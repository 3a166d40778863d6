"""The benchmark harness's own arithmetic (no workload runs here)."""

from __future__ import annotations

import asyncio
import json
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import metrics, run
from perfbench.stats import (
    Outcomes,
    covered,
    highest_percentile,
    nearest_rank,
    samples_beyond,
    uncovered_fraction,
)
from perfbench.tracing import OP, Span, Tracer, layer_totals, self_times, unattributed_frac

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- percentiles


def test_nearest_rank_is_exact_for_fractional_percentiles():
    assert nearest_rank(1000, 99.9) == 999
    assert nearest_rank(1000, 99) == 990
    assert nearest_rank(3, 50) == 2
    assert nearest_rank(1, 1) == 1


def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    values = [float(v) for v in range(1000, 0, -1)]  # unsorted on purpose
    assert highest_percentile(values) == (99.0, 990.0)
    assert highest_percentile(values[1:]) == (95.0, 950.0)  # 999 samples: p99 has 9 beyond
    assert highest_percentile([float(v) for v in range(20)]) == (50.0, 9.0)  # 10 beyond
    assert highest_percentile([float(v) for v in range(19)]) is None  # 9 beyond
    assert highest_percentile([]) is None


def test_highest_percentile_prefers_the_highest_supported():
    assert highest_percentile([0.0] * 10_000)[0] == 99.9
    assert highest_percentile([0.0] * 9_999)[0] == 99.0


def test_percentile_rejects_out_of_range_requests():
    with pytest.raises(ValueError):
        nearest_rank(0, 50)
    with pytest.raises(ValueError):
        nearest_rank(10, 0)


# -------------------------------------------------------------- intervals


def test_covered_counts_overlap_once_and_clips():
    assert covered([(1, 4), (3, 6)]) == 5
    assert covered([(1, 4), (3, 6)], 2, 5) == 3
    assert covered([(0, 1), (2, 3)], 0.5, 2.5) == 1
    assert covered([]) == 0
    assert covered([(2, 2), (3, 1)]) == 0  # empty and reversed intervals


def test_uncovered_fraction():
    assert uncovered_fraction([(0, 10)], [(0, 5)]) == 0.5
    # Overlapping outer intervals (concurrent ops) are one stretch of time.
    assert uncovered_fraction([(0, 10), (5, 10)], [(2, 4), (3, 7)]) == 0.5
    assert uncovered_fraction([], [(0, 1)]) == 0.0


def _span(name, start, end, parent=None):
    span = Span(name, parent, start)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("p", 0.0, 10.0)
    children = [_span("c", 1.0, 4.0, parent), _span("c", 3.0, 6.0, parent)]
    # A grandchild is its child's business, not the parent's.
    grandchild = _span("g", 1.5, 2.0, children[0])
    spans = [parent, *children, grandchild]
    own = self_times(spans)
    assert own[id(parent)] == 5.0
    assert own[id(children[0])] == 2.5
    totals = layer_totals(spans)
    assert totals["c"] == {"calls": 2, "self_s": 5.5, "total_s": 6.0}
    assert totals["p"]["self_s"] == 5.0


def test_self_time_clips_a_child_that_outlives_its_parent():
    parent = _span("p", 0.0, 2.0)
    child = _span("c", 1.0, 5.0, parent)  # a task the parent did not await
    assert self_times([parent, child])[id(parent)] == 1.0


def test_concurrent_child_tasks_nest_under_the_awaiting_parent():
    tracer = Tracer()

    async def child():
        with tracer.span("child"):
            await asyncio.sleep(0.02)

    async def parent():
        with tracer.span("parent") as span:
            await asyncio.gather(child(), child())
        return span

    parent_span = asyncio.run(parent())
    kids = [s for s in tracer.spans if s.name == "child"]
    assert [k.parent for k in kids] == [parent_span, parent_span]
    own = self_times(tracer.spans)[id(parent_span)]
    # Summing the two children would overshoot the parent's duration.
    assert sum(k.duration for k in kids) > parent_span.duration
    assert 0.0 <= own < 0.5 * parent_span.duration


def test_executor_work_is_not_a_child_of_the_awaiting_caller():
    """``serve.execute`` runs on the chip thread while the caller awaits on
    the loop: it roots its own tree, the caller keeps its full self time,
    and the op time it covers is attributed."""
    tracer = Tracer()
    execute = tracer.wrap(lambda: time.sleep(0.05), "serve.execute")

    async def caller(pool):
        loop = asyncio.get_running_loop()
        with tracer.span(OP):
            await asyncio.sleep(0.01)
            await loop.run_in_executor(pool, execute)

    with ThreadPoolExecutor(max_workers=1) as pool:
        asyncio.run(caller(pool))
    op = next(s for s in tracer.spans if s.name == OP)
    work = next(s for s in tracer.spans if s.name == "serve.execute")
    assert work.parent is None
    assert self_times(tracer.spans)[id(op)] == op.duration
    assert OP not in layer_totals(tracer.spans)
    share = unattributed_frac(tracer.spans)
    assert share == pytest.approx(1.0 - work.duration / op.duration)
    assert 0.0 < share < 0.5


def test_install_wraps_and_uninstall_restores(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def step(self, x):
            return module.helper(x) + 1  # looked up at call time, as in the program

    def helper(x):
        return 2 * x

    module.Engine, module.helper = Engine, helper
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_step = Engine.__dict__["step"]
    seen = []
    tracer = Tracer()
    tracer.install(
        [("engine.step", module.__name__, "Engine.step"), ("helper", module.__name__, "helper")],
        {"helper": seen.append},
    )
    try:
        assert Engine().step(3) == 7
    finally:
        tracer.uninstall()
    assert Engine.__dict__["step"] is original_step and module.helper is helper
    assert seen == [6]
    step, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert inner.parent is step and step.parent is None
    assert Engine().step(1) == 3 and len(tracer.spans) == 2  # unwrapped again


def test_install_failure_leaves_nothing_patched(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer2")
    module.helper = helper = lambda: None
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([("h", module.__name__, "helper"), ("x", module.__name__, "missing")])
    assert module.helper is helper


# ------------------------------------------------------------ failure count


def test_failures_count_once_per_op_with_every_reason_kept():
    outcomes = Outcomes()
    assert outcomes.record([])
    assert not outcomes.record(["mvm error", "egv cosine", "mvm error"])
    assert not outcomes.record(["RequestTimeout"])
    assert (outcomes.attempted, outcomes.failed) == (3, 2)
    assert outcomes.failed_frac == pytest.approx(2 / 3)
    assert outcomes.reasons == {"mvm error": 1, "egv cosine": 1, "RequestTimeout": 1}
    assert Outcomes().failed_frac == 0.0


def test_rss_peak_is_read_at_a_fixed_op_count():
    """A run that manages more ops must not read a later, higher peak."""
    from repro.obs.cost import SolveCost
    from perfbench.workloads import Run

    recorded = Run(digest_ops=0, rss_ops=2)
    recorded.record_op(0.1, 1.0, False, [], [], SolveCost())
    assert recorded.rss_mb is None
    recorded.record_op(0.1, 1.0, False, ["missed"], [], SolveCost())
    peak = recorded.rss_mb
    assert peak > 0 and recorded.rss_at == 2
    recorded.record_op(0.1, 1.0, False, [], [], SolveCost())
    assert (recorded.rss_mb, recorded.rss_at) == (peak, 2)


# ------------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_matches_what_the_harness_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == metrics.PER_LAYER
    assert all(m["better"] in ("lower", "higher") for m in BENCHMARK["end_to_end"])
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25
