"""Tiny runs of every workload: each declared metric comes out with its unit."""

import json
import os
import shutil

import pytest
import run
from ldpbench.layers import PER_LAYER, layer_metrics
from ldpbench.workloads import WORKLOADS, Context

DECLARED = json.loads(run.BENCH.read_text())


@pytest.fixture
def rundir():
    path = run.ROOT / ".bench_run" / f"smoke-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _check(line: str, kind: str) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_reports_every_metric(workload, rundir):
    # One round, 20 uploads, one monitored round: too few ops for a p90.
    ctx = dict(seed=3, seconds=0.02, launches=1)
    plain = Context(run.ROOT, rundir / "plain", trace=False, **ctx)
    measured = WORKLOADS[workload](plain)
    metrics, lines, _ = run.end_to_end(measured, workload, plain.raw_setup_s)
    assert measured.failures == []
    assert ("advance_p50_ms" in metrics) == (workload == "monitor_http")
    assert "fail_frac" in metrics and len(lines) == len(metrics)
    _check(run._json_line(True, measured.attempted, measured.failed, metrics, "end_to_end"),
           "end_to_end")

    traced = WORKLOADS[workload](Context(run.ROOT, rundir / "traced", trace=True, **ctx))
    assert traced.failures == [] and traced.spans
    layers = layer_metrics(traced.spans, traced.window, traced.samples, len(traced.op_ms),
                           traced.advances, traced.skew)
    units = dict(PER_LAYER)
    _check(run._json_line(True, traced.attempted, traced.failed,
                          {k: (v, units[k]) for k, v in layers.items()}, "per_layer"),
           "per_layer")
    assert layers["engine.solve_calls"] > 0 or workload == "ingest_http"
