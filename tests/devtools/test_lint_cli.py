"""CLI behavior: output format, exit codes, baseline round-trips."""

import json
from pathlib import Path

from repro.devtools.baseline import Baseline, BaselineEntry
from repro.devtools.lint import main

_BAD_RNG = "import numpy as np\n\ndef f(x):\n    np.random.shuffle(x)\n"
_CLEAN = "import numpy as np\n\ndef f(rng):\n    return np.random.default_rng(rng)\n"


def write(tmp_path: Path, rel: str, source: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_finding_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "src/mod.py:4:4 RNG001" in out

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no-such-dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RNG001",
            "PRIV001",
            "PRIV002",
            "NUM001",
            "NUM002",
            "REG001",
        ):
            assert code in out

    def test_quiet_omits_summary(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--quiet"]) == 0
        assert "reprolint:" not in capsys.readouterr().out


class TestOutputFormat:
    def test_ruff_style_lines(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        monkeypatch.chdir(tmp_path)
        main(["src"])
        line = capsys.readouterr().out.splitlines()[0]
        location, _, rest = line.partition(" ")
        path, lineno, col = location.rsplit(":", 2)
        assert path == "src/mod.py"
        assert lineno.isdigit() and col.isdigit()
        assert rest.startswith("RNG001 ")


class TestBaseline:
    def test_baselined_finding_passes(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        baseline = Baseline(
            entries=[
                BaselineEntry(
                    rule="RNG001",
                    path="src/mod.py",
                    line_text="np.random.shuffle(x)",
                    reason="fixture: grandfathered for the test",
                )
            ]
        )
        baseline.save(tmp_path / "reprolint-baseline.json")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_baseline_survives_line_drift(self, tmp_path, monkeypatch):
        # Same statement, different line number: the entry still matches.
        write(tmp_path, "src/mod.py", "import numpy as np\n\n\n\ndef f(x):\n    np.random.shuffle(x)\n")
        Baseline(
            entries=[
                BaselineEntry(
                    rule="RNG001",
                    path="src/mod.py",
                    line_text="np.random.shuffle(x)",
                    reason="fixture",
                )
            ]
        ).save(tmp_path / "reprolint-baseline.json")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0

    def test_stale_entry_fails(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _CLEAN)
        Baseline(
            entries=[
                BaselineEntry(
                    rule="RNG001",
                    path="src/mod.py",
                    line_text="np.random.shuffle(x)",
                    reason="fixed long ago",
                )
            ]
        ).save(tmp_path / "reprolint-baseline.json")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_no_baseline_flag_ignores_file(self, tmp_path, monkeypatch):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        Baseline(
            entries=[
                BaselineEntry(
                    rule="RNG001",
                    path="src/mod.py",
                    line_text="np.random.shuffle(x)",
                    reason="fixture",
                )
            ]
        ).save(tmp_path / "reprolint-baseline.json")
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--no-baseline"]) == 1

    def test_update_baseline_round_trip(self, tmp_path, monkeypatch, capsys):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--update-baseline"]) == 0
        payload = json.loads((tmp_path / "reprolint-baseline.json").read_text())
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        assert entry["rule"] == "RNG001"
        assert entry["path"] == "src/mod.py"
        assert entry["reason"]  # placeholder forces a human to justify it
        capsys.readouterr()
        assert main(["src"]) == 0

    def test_explicit_baseline_path(self, tmp_path, monkeypatch):
        write(tmp_path, "src/mod.py", _BAD_RNG)
        custom = tmp_path / "custom-baseline.json"
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--update-baseline", "--baseline", str(custom)]) == 0
        assert custom.exists()
        assert main(["src", "--baseline", str(custom)]) == 0
