"""Metric extraction on fixed inputs."""

import math
import threading

import numpy as np
import pytest
from ldpbench.inputs import unit_counts
from ldpbench.layers import op_coverage
from ldpbench.spans import Tracer, _resolve
from ldpbench.stats import (
    PROBE_REF_NS,
    beyond_count,
    nearest_rank,
    parse_proc_cpu_seconds,
    parse_vm_hwm_kb,
    reportable_percentile,
    self_times,
    slowdowns,
    spread,
    w1_unit,
)


def test_nearest_rank_picks_the_ceiling_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 50) == 3.0  # rank ceil(2.5) = 3
    assert nearest_rank(samples, 90) == 5.0  # rank ceil(4.5) = 5
    assert nearest_rank(samples, 20) == 1.0  # rank 1
    assert nearest_rank(list(range(1, 101)), 90) == 90


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_p90_needs_ten_samples_beyond_it():
    assert beyond_count(100, 90) == 10
    assert beyond_count(99, 90) == 9  # rank 90 of 99
    assert reportable_percentile([float(i) for i in range(1, 101)], 90) == 90.0
    assert reportable_percentile([float(i) for i in range(1, 100)], 90) is None
    assert reportable_percentile([], 90) is None


def test_w1_against_hand_computed_cases():
    # All mass moves from the first bin centre (1/8) to the last (7/8).
    assert w1_unit([1, 0, 0, 0], [0, 0, 0, 1]) == pytest.approx(0.75)
    # Half the mass moves one bin (1/4) to the right: 0.5 * 0.25.
    assert w1_unit([0.5, 0.5, 0, 0], [0, 1, 0, 0]) == pytest.approx(0.125)
    # Normalisation: scale does not matter, identical shapes are 0 apart.
    assert w1_unit([2, 2, 4], [1, 1, 2]) == 0.0


def test_w1_rejects_mismatched_or_empty_histograms():
    with pytest.raises(ValueError):
        w1_unit([1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        w1_unit([0, 0], [1, 0])


def test_unit_counts_puts_one_in_the_last_bin():
    counts = unit_counts(np.array([0.0, 0.24, 0.25, 0.99, 1.0]), 4)
    assert counts.tolist() == [2.0, 1.0, 0.0, 2.0]


def test_self_time_subtracts_nested_children():
    spans = [
        (1, 0, "root", 0, 100),
        (2, 1, "child", 10, 40),
        (3, 2, "grandchild", 20, 30),
        (4, 1, "child", 50, 70),
        (5, 0, "other", 200, 210),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 10, 4: 20, 5: 10}


def test_self_time_clips_and_merges_overlapping_children():
    spans = [(1, 0, "root", 0, 100), (2, 1, "a", 90, 120), (3, 1, "b", 10, 30), (4, 1, "c", 20, 40)]
    assert self_times(spans)[1] == 100 - 30 - 10


def test_tracer_nests_spans_and_inherits_the_correlation_id():
    tracer = Tracer()

    def leaf():
        return 7

    def middle(key):
        return traced_leaf() + 1

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle", corr=lambda key: key)
    assert traced_middle("k1") == 8
    worker = threading.Thread(target=traced_leaf)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (mid,) = by_name["middle"]
    nested, other_thread = by_name["leaf"]
    assert nested[1] == mid[0] and nested[5] == "k1"
    assert other_thread[1] == 0 and other_thread[5] is None
    assert mid[3] <= nested[3] <= nested[4] <= mid[4]


def test_tracer_times_each_generator_step_and_counts_blocks():
    tracer = Tracer()

    def blocks(source):
        yield from source

    traced = tracer.wrap(blocks, "gen", before=lambda source: {"bytes": len(source)})
    assert list(traced(b"ab")) == [97, 98]
    extras = [span[7] for span in tracer.spans]
    assert extras == [{"bytes": 2, "block": 1}, {"block": 1}, None]


def test_a_hook_that_no_longer_fits_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap(lambda x: x + 1, "f", corr=lambda: "k",
                         after=lambda result, pre, x: {"n": result.size})
    assert traced(1) == 2  # the program's call is unaffected
    assert [(span[5], span[7]) for span in tracer.spans] == [(None, None)]


def test_layers_the_program_lacks_resolve_to_nothing():
    assert _resolve(("repro.tasks.session",), "Session.privatize") is not None
    assert _resolve(("repro.tasks.session",), "Session.no_such_method") is None
    assert _resolve(("repro.tasks.session",), "NoSuchClass.privatize") is None
    assert _resolve(("repro.no_such_module",), "f") is None


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap(lambda: 1, "f")
    with tracer.paused():
        traced()
    assert tracer.spans == []


def test_op_coverage_is_the_blocking_share_of_each_op():
    spans = [
        (1, 0, "op", 0, 100, None),
        (2, 1, "session.privatize", 0, 50, None),
        (3, 1, "server.report", 60, 100, None),
        (4, 2, "server.report", 10, 20, None),  # not a direct child of the op
    ]
    assert op_coverage(spans) == [0.9]


STAT = (
    "4242 (python3 (x) y) S 1 4242 4242 0 -1 4194560 27346 0 0 0 "
    "1234 56 0 0 20 0 7 0 100 200000000 30000 18446744073709551615"
)
STATUS = "Name:\tpython3\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"


def test_proc_stat_cpu_is_user_plus_system_ticks():
    assert parse_proc_cpu_seconds(STAT, 100) == pytest.approx((1234 + 56) / 100)


def test_proc_status_peak_rss():
    assert parse_vm_hwm_kb(STATUS) == 123456
    with pytest.raises(ValueError):
        parse_vm_hwm_kb("Name:\tx\n")


def test_slowdown_is_a_running_median_over_the_reference():
    ref = PROBE_REF_NS
    probes = [ref, 2 * ref, ref, ref, 3 * ref]
    # One slow probe among fast neighbours does not move its slowdown.
    assert slowdowns(probes, 1) == [1.5, 1.0, 1.0, 1.0, 2.0]
    assert slowdowns(probes, 0) == [1.0, 2.0, 1.0, 1.0, 3.0]


def test_spread_matches_the_exclusive_quartiles():
    s = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["iqr_frac"] == pytest.approx(5.5 / 5.5)
    assert math.isnan(spread([])["median"])
