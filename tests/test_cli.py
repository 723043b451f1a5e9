"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.api.registry import list_estimators, make_estimator
from repro.cli import main
from repro.io import read_histogram_csv, write_values
from repro.metrics.distances import wasserstein_distance
from repro.protocol import codec_for_estimator, encode_frame_blocks
from repro.service import ServiceConfig, ShardedCollector
from repro.service.loadgen import synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution
from tests.conftest import true_histogram


#: Every registered family; d=64 suits all of them (a power of 4, and a
#: multiple of every CFO bin count).
SPECS = list_estimators()


@pytest.fixture()
def values_file(tmp_path, beta_values):
    return write_values(beta_values[:10_000], tmp_path / "values.txt")


class TestPrivatizeAggregate:
    """A round from files: ``pack`` privatizes on the client into a frame,
    ``collect`` aggregates on the server."""

    def test_full_round(self, tmp_path, values_file, beta_values):
        reports = tmp_path / "reports.rpf"
        hist = tmp_path / "hist.csv"
        assert main([
            "pack", "--epsilon", "1.0", "--d", "64", "--round-id", "r1",
            "--input", str(values_file), "--output", str(reports), "--seed", "3",
        ]) == 0
        assert main([
            "collect", "--epsilon", "1.0", "--round-id", "r1", "--d", "64",
            "--input", str(reports), "--output", str(hist),
        ]) == 0
        estimate = read_histogram_csv(hist)
        truth = true_histogram(beta_values[:10_000], 64)
        assert estimate.sum() == pytest.approx(1.0, abs=1e-6)
        assert wasserstein_distance(truth, estimate) < 0.05

    def test_round_mismatch_fails_cleanly(self, tmp_path, values_file, capsys):
        reports = tmp_path / "reports.rpf"
        main([
            "pack", "--epsilon", "1.0", "--round-id", "a",
            "--input", str(values_file), "--output", str(reports),
        ])
        code = main([
            "collect", "--epsilon", "1.0", "--round-id", "b", "--d", "64",
            "--input", str(reports), "--output", str(tmp_path / "h.csv"),
        ])
        assert code == 2
        assert "error: frame for round 'a' sent to round 'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["privatize", "aggregate"])
    def test_sw_only_subcommands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--epsilon", "1.0", "--round-id", "r1"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEstimate:
    @pytest.mark.parametrize(
        "method", ["sw-ems", "cfo-16", "sw-discrete-ems", "hh-admm"]
    )
    def test_methods(self, tmp_path, values_file, method):
        out = tmp_path / "hist.csv"
        assert main([
            "estimate", "--epsilon", "1.0", "--d", "64", "--method", method,
            "--input", str(values_file), "--output", str(out), "--seed", "1",
        ]) == 0
        assert read_histogram_csv(out).sum() == pytest.approx(1.0, abs=1e-6)

    def test_leaf_signed_method(self, tmp_path, values_file):
        out = tmp_path / "hist.csv"
        assert main([
            "estimate", "--epsilon", "1.0", "--d", "64", "--method", "haar-hrr",
            "--input", str(values_file), "--output", str(out), "--seed", "1",
        ]) == 0
        assert read_histogram_csv(out).shape == (64,)

    def test_frequency_method(self, tmp_path, values_file):
        out = tmp_path / "freq.csv"
        assert main([
            "estimate", "--epsilon", "1.0", "--d", "64", "--method", "grr",
            "--input", str(values_file), "--output", str(out), "--seed", "1",
        ]) == 0
        assert read_histogram_csv(out).shape == (64,)

    def test_scalar_method(self, tmp_path, values_file, capsys):
        out = tmp_path / "mean.csv"
        assert main([
            "estimate", "--epsilon", "1.0", "--method", "pm",
            "--input", str(values_file), "--output", str(out), "--seed", "1",
        ]) == 0
        assert "estimated mean" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("statistic,value")
        mean = float(text.splitlines()[1].split(",")[1])
        assert 0.6 < mean < 0.8  # Beta(5, 2) has mean 5/7

    def test_list_methods(self, capsys):
        assert main(["estimate", "--list-methods"]) == 0
        out = capsys.readouterr().out
        for name in ("sw-ems", "hh-admm", "cfo-16", "sr", "grr"):
            assert name in out
        assert "distribution" in out and "scalar" in out

    def test_missing_required_flags(self, capsys):
        assert main(["estimate", "--method", "sw-ems"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_method_fails(self, tmp_path, values_file):
        code = main([
            "estimate", "--epsilon", "1.0", "--method", "magic",
            "--input", str(values_file), "--output", str(tmp_path / "h.csv"),
        ])
        assert code == 2

    def test_missing_input_fails(self, tmp_path):
        code = main([
            "estimate", "--epsilon", "1.0",
            "--input", str(tmp_path / "nope.txt"), "--output", str(tmp_path / "h.csv"),
        ])
        assert code == 2


class TestAuditAndPlan:
    @pytest.mark.parametrize("shape", ["square", "triangle", "cosine", "epanechnikov"])
    def test_audit_passes(self, shape, capsys):
        assert main(["audit", "--shape", shape, "--epsilon", "1.0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_plan_output(self, capsys):
        assert main(["plan", "--epsilon", "1.0", "--target-std", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "users" in out


class TestAnalyze:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        import json

        plan = {
            "epsilon": 1.0,
            "attributes": [
                {"name": "income", "low": 0.0, "high": 100000.0, "d": 64},
                {"name": "age", "low": 18.0, "high": 90.0, "d": 64},
            ],
            "tasks": [
                {"task": "mean", "attribute": "income"},
                {"task": "quantiles", "attribute": "income", "quantiles": [0.5]},
                {"task": "range_queries", "attribute": "age", "windows": [[18, 40]]},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    @pytest.fixture()
    def table_file(self, tmp_path, rng):
        path = tmp_path / "survey.csv"
        incomes = rng.gamma(4.0, 9000.0, 5000).clip(0, 100000)
        ages = rng.normal(45.0, 14.0, 5000).clip(18, 90)
        lines = ["income,age"] + [
            f"{i:.2f},{a:.2f}" for i, a in zip(incomes, ages, strict=True)
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_explain_prints_planner_choices(self, plan_file, capsys):
        assert main(["analyze", "--plan", str(plan_file), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "income: sw-ems" in out
        assert "age: hh-admm" in out
        assert "per-user epsilon" in out

    def test_analyze_end_to_end(self, plan_file, table_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "results.json"
        code = main([
            "analyze", "--plan", str(plan_file), "--input", str(table_file),
            "--output", str(out_path), "--seed", "5", "--shards", "2",
        ])
        assert code == 0
        assert "budget OK" in capsys.readouterr().out
        results = json.loads(out_path.read_text())
        assert {r["task"] for r in results["results"]} == {
            "mean", "quantiles", "range_queries",
        }
        assert results["per_user_epsilon"] == 1.0

    def test_marginals_plan_end_to_end(self, table_file, tmp_path, capsys):
        """Several marginals come from a plan's marginals task: each
        attribute gets ``sw-ems`` and its own share of the users."""
        import json

        plan_path = tmp_path / "marginals.json"
        plan_path.write_text(json.dumps({
            "epsilon": 2.0,
            "attributes": [
                {"name": "income", "low": 0.0, "high": 100000.0, "d": 32},
                {"name": "age", "low": 18.0, "high": 90.0, "d": 32},
            ],
            "tasks": [{"task": "marginals", "names": ["income", "age"]}],
        }))
        assert main(["analyze", "--plan", str(plan_path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "income: sw-ems" in out and "age: sw-ems" in out
        out_path = tmp_path / "results.json"
        code = main([
            "analyze", "--plan", str(plan_path), "--input", str(table_file),
            "--output", str(out_path), "--seed", "5",
        ])
        assert code == 0
        (result,) = json.loads(out_path.read_text())["results"]
        assert result["task"] == "marginals"
        assert result["n_reports"] == 5000
        for name in ("income", "age"):
            assert len(result["value"][name]) == 32
            assert sum(result["value"][name]) == pytest.approx(1.0)

    def test_missing_io_flags(self, plan_file, capsys):
        assert main(["analyze", "--plan", str(plan_file)]) == 2
        assert "required" in capsys.readouterr().err

    def test_bad_plan_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text('{"epsilon": 1.0, "attributes": [], "tasks": []}')
        assert main(["analyze", "--plan", str(bad), "--explain"]) == 2
        assert "error" in capsys.readouterr().err

    def test_typoed_plan_key_fails_cleanly(self, tmp_path, capsys):
        """Misnamed keys exit 2 with a message, not a TypeError traceback."""
        import json

        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps({
            "epsilon": 1.0,
            "attributes": [{"name": "x", "lo": 0.0}],
            "tasks": [{"task": "mean", "attribute": "x"}],
        }))
        assert main(["analyze", "--plan", str(bad), "--explain"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "AttributeSpec" in err

    def test_missing_plan_key_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text('{"attributes": [], "tasks": []}')
        assert main(["analyze", "--plan", str(bad), "--explain"]) == 2
        assert "missing required key" in capsys.readouterr().err


class TestServeWorkflow:
    """pack / unpack / collect: the protocol-v2 serving subcommands."""

    @pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
    def test_pack_collect_round_trip(self, tmp_path, values_file, spec):
        feed = tmp_path / "feed"
        out = tmp_path / "est.csv"
        assert main([
            "pack", "--method", spec.name, "--epsilon", "1.0", "--d", "64",
            "--round-id", "r1",
            "--input", str(values_file), "--output", str(feed), "--seed", "3",
        ]) == 0
        assert main([
            "collect", "--method", spec.name, "--epsilon", "1.0", "--d", "64",
            "--round-id", "r1", "--input", str(feed), "--output", str(out),
        ]) == 0
        if spec.kind == "scalar":
            assert out.read_text().startswith("statistic,value\nmean,")
        else:
            assert read_histogram_csv(out).shape == (64,)

    @pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
    def test_unpack_names_each_family_codec(self, tmp_path, values_file, spec, capsys):
        feed = tmp_path / "feed.rpf"
        assert main([
            "pack", "--method", spec.name, "--epsilon", "1.0", "--d", "64",
            "--round-id", "r2",
            "--input", str(values_file), "--output", str(feed), "--seed", "4",
        ]) == 0
        capsys.readouterr()
        assert main(["unpack", "--input", str(feed)]) == 0
        codec = codec_for_estimator(make_estimator(spec.name, 1.0, 64)).name
        assert capsys.readouterr().out == (
            f"round 'r2' attr 'value': 10000 reports ({codec} payloads)\n"
        )

    def test_collect_merges_shard_feeds(self, tmp_path, values_file, capsys):
        feeds = []
        for i in range(2):
            feed = tmp_path / f"shard{i}"
            main([
                "pack", "--epsilon", "1.0", "--d", "64", "--round-id", "r",
                "--input", str(values_file),
                "--output", str(feed), "--seed", str(i),
            ])
            feeds.append(str(feed))
        out = tmp_path / "est.csv"
        assert main([
            "collect", "--epsilon", "1.0", "--d", "64", "--round-id", "r",
            "--input", *feeds, "--output", str(out),
        ]) == 0
        assert "20000 reports across 2 feed(s)" in capsys.readouterr().out

    def test_unpack_inspects(self, tmp_path, values_file, capsys):
        feed = tmp_path / "feed.rpf"
        main([
            "pack", "--method", "grr", "--epsilon", "1.0", "--d", "32",
            "--round-id", "r9", "--attr", "age",
            "--input", str(values_file), "--output", str(feed), "--seed", "1",
        ])
        capsys.readouterr()
        assert main(["unpack", "--input", str(feed)]) == 0
        assert capsys.readouterr().out == (
            "round 'r9' attr 'age': 10000 reports (category payloads)\n"
        )

    def test_unpack_prints_every_block(self, tmp_path, capsys):
        """A multi-attribute frame prints one line per block, in wire order."""
        feed = tmp_path / "mixed.rpf"
        feed.write_bytes(encode_frame_blocks(
            "r3", [("income", "category", [0, 1, 2, 3, 4]), ("age", "float", [0.5] * 3)]
        ))
        assert main(["unpack", "--input", str(feed)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "round 'r3' attr 'income': 5 reports (category payloads)",
            "round 'r3' attr 'age': 3 reports (float payloads)",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["pack", "--epsilon", "1.0", "--round-id", "r", "--input", "v.txt",
             "--output", "f.rpf", "--format", "jsonl"],
            ["unpack", "--input", "f.rpf", "--format", "frame"],
            ["unpack", "--input", "f.rpf", "--output", "f.jsonl"],
        ],
        ids=["pack-format", "unpack-format", "unpack-output"],
    )
    def test_conversion_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_collect_scalar_method(self, tmp_path, values_file):
        feed = tmp_path / "feed"
        out = tmp_path / "mean.csv"
        main([
            "pack", "--method", "pm", "--epsilon", "1.0", "--round-id", "r",
            "--input", str(values_file), "--output", str(feed), "--seed", "2",
        ])
        assert main([
            "collect", "--method", "pm", "--epsilon", "1.0", "--round-id", "r",
            "--input", str(feed), "--output", str(out),
        ]) == 0
        mean = float(out.read_text().splitlines()[1].split(",")[1])
        assert 0.6 < mean < 0.8

    def test_collect_wrong_round_fails_cleanly(self, tmp_path, values_file, capsys):
        feed = tmp_path / "feed"
        main([
            "pack", "--epsilon", "1.0", "--round-id", "a",
            "--input", str(values_file), "--output", str(feed),
        ])
        assert main([
            "collect", "--epsilon", "1.0", "--round-id", "b",
            "--input", str(feed), "--output", str(tmp_path / "h.csv"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_collect_codec_mismatch_fails_cleanly(self, tmp_path, values_file, capsys):
        feed = tmp_path / "feed"
        main([
            "pack", "--method", "olh", "--epsilon", "1.0", "--d", "32",
            "--round-id", "r", "--input", str(values_file), "--output", str(feed),
        ])
        assert main([
            "collect", "--method", "sw-ems", "--epsilon", "1.0", "--d", "32",
            "--round-id", "r", "--input", str(feed),
            "--output", str(tmp_path / "h.csv"),
        ]) == 2
        assert "payloads" in capsys.readouterr().err

    def test_collect_corrupted_feed_fails_cleanly(self, tmp_path, values_file, capsys):
        feed = tmp_path / "feed.rpf"
        main([
            "pack", "--method", "grr", "--epsilon", "1.0", "--d", "16",
            "--round-id", "r", "--input", str(values_file), "--output", str(feed),
        ])
        feed.write_bytes(feed.read_bytes()[:-3])
        out = tmp_path / "h.csv"
        assert main([
            "collect", "--method", "grr", "--epsilon", "1.0", "--d", "16",
            "--round-id", "r", "--input", str(feed), "--output", str(out),
        ]) == 2
        assert "truncated" in capsys.readouterr().err
        assert not out.exists()

    def test_collect_refuses_jsonl_feed(self, tmp_path, capsys):
        """A JSON-lines file is not a frame: exit 2, an error that names
        ``python -m repro pack``, and no output file."""
        feed = tmp_path / "feed.jsonl"
        feed.write_text(
            '{"round_id":"r","mech":"float","payload":0.25,"version":2}\n'
            '{"round_id":"r","mech":"float","payload":0.75,"version":2}\n'
        )
        out = tmp_path / "h.csv"
        assert main([
            "collect", "--epsilon", "1.0", "--d", "16", "--round-id", "r",
            "--input", str(feed), "--output", str(out),
        ]) == 2
        assert "`python -m repro pack`" in capsys.readouterr().err
        assert not out.exists()


class TestContinuousCollection:
    """``stream`` simulates a windowed stream; ``recover`` rebuilds a
    windowed deployment from its journals."""

    def test_stream_writes_ticks_and_charges_every_round(self, tmp_path, capsys):
        out = tmp_path / "stream.json"
        assert main([
            "stream", "--window", "3", "--ticks", "4", "--users", "2000",
            "--d", "32", "--output", str(out),
        ]) == 0
        result = json.loads(out.read_text())
        ticks = result["ticks"]
        assert [row["tick"] for row in ticks] == [1, 2, 3, 4]
        assert [row["attributes"]["value"]["warm"] for row in ticks] == [
            False, True, True, True,
        ]
        audit = result["audit"]
        assert audit["rounds"] == 4
        assert audit["cumulative_epsilon"] == pytest.approx(4.0)
        assert audit["satisfied"] is False
        assert "cumulative epsilon 4 over 4 rounds" in capsys.readouterr().out

    def test_recover_rebuilds_the_live_window_bit_for_bit(self, tmp_path, capsys):
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=(
                AttributeSpec("income", low=0.0, high=1e5, d=32),
                AttributeSpec("hours", low=0.0, high=120.0, d=32),
            ),
            tasks=(Distribution("income"), Distribution("hours")),
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        journal_dir = tmp_path / "wal"
        config = ServiceConfig(
            plan=plan, n_shards=2, window=2, journal_dir=journal_dir
        )
        with ShardedCollector(config) as collector:
            for seed, round_id in enumerate(("r1", "r2", "r3")):
                for frame, _n in synthesize_frames(
                    plan, round_id, 600, batch_size=300, rng=seed
                ):
                    collector.submit(frame, round_id)
                collector.advance_window(round_id)
            live = collector.window_estimate()
        out = tmp_path / "recovered.json"
        assert main([
            "recover", "--plan", str(plan_file), "--journal-dir", str(journal_dir),
            "--window", "2", "--output", str(out),
        ]) == 0
        assert "window re-advanced through 3 ticks" in capsys.readouterr().out
        recovered = json.loads(out.read_text())["window"]
        assert recovered["rounds"] == ["r1", "r2", "r3"]
        assert recovered["estimates"] == live["estimates"]
        assert recovered["audit"] == live["audit"]
        assert recovered["audit"]["rounds"] == 3

    def test_recover_refuses_another_shard_count(self, tmp_path, capsys):
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=(AttributeSpec("income", low=0.0, high=1e5, d=32),),
            tasks=(Distribution("income"),),
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        journal_dir = tmp_path / "wal"
        config = ServiceConfig(plan=plan, n_shards=2, journal_dir=journal_dir)
        with ShardedCollector(config) as collector:
            for frame, _n in synthesize_frames(plan, "r1", 600, batch_size=300, rng=0):
                collector.submit(frame, "r1")
        argv = ["recover", "--plan", str(plan_file), "--journal-dir", str(journal_dir)]
        assert main([*argv, "--shards", "3"]) == 2
        assert "n_shards is 3" in capsys.readouterr().err
        assert main(argv) == 0  # inferred from the two shard journals
        assert "across 2 shards" in capsys.readouterr().out

    def test_recover_refuses_a_journal_set_with_a_gap(self, tmp_path, capsys):
        """The count inferred from the files cannot paper over a lost
        journal: two files named shard-0 and shard-2 are not two shards."""
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=(AttributeSpec("income", low=0.0, high=1e5, d=32),),
            tasks=(Distribution("income"),),
        )
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        journal_dir = tmp_path / "wal"
        config = ServiceConfig(plan=plan, n_shards=3, journal_dir=journal_dir)
        with ShardedCollector(config) as collector:
            for frame, _n in synthesize_frames(plan, "r1", 600, batch_size=300, rng=0):
                collector.submit(frame, "r1")
        (journal_dir / "shard-1.journal").unlink()
        argv = ["recover", "--plan", str(plan_file), "--journal-dir", str(journal_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "shard-0.journal, shard-2.journal" in err
        assert "n_shards is 2" in err
        assert not (journal_dir / "shard-1.journal").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--plan", "plan.json"],
            ["recover", "--plan", "plan.json", "--journal-dir", "wal"],
            ["stream"],
        ],
        ids=["serve", "recover", "stream"],
    )
    def test_decay_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--decay", "0.9"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --decay" in capsys.readouterr().err
