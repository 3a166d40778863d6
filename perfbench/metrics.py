"""Metric names, units and the arithmetic from a measured run to each value.

``BENCHMARK.json`` lists the same names and units; ``test_perfbench.py``
keeps the two in step.  Per-layer counts and self times are per op: a
program counter is summed over every measured op, a span time over the
traced ops, and each is divided by the ops it was summed over.
"""

from __future__ import annotations

from perfbench.stats import highest_percentile, median
from perfbench.tracing import layer_totals, unattributed_frac

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "analog_err_p50": "ratio",
    "chip_s_per_op": "s",
    "chip_J_per_op": "J",
    "rss_peak_mb": "MB",
}

#: Span names whose per-op self time is reported as ``<name>.self_s``.
SELF_TIMES = (
    "serve.admit", "serve.coalesce", "serve.execute", "serve.scatter",
    "core.solver.compile", "core.pool.acquire_many", "macro.program_mapping",
    "core.grid_engine.refresh", "core.grid_engine.sweep",
    "core.backend.batched_lu_solve", "core.backend.batched_matmul",
    "core.refine.refine_solution",
    "core.operator.mvm", "core.operator.solve", "core.operator.lstsq",
    "core.operator.eigvec", "macro.compute",
)
#: Span names whose per-op call count is reported as ``<name>.calls``.
CALLS = ("core.grid_engine.sweep", "core.backend.batched_lu_solve", "core.backend.batched_matmul")

PER_LAYER = {
    "serve.queue_wait_s_p50": "s",
    "serve.engine_calls_per_req": "count",
    "serve.cols_per_call": "count",
    "serve.execute_busy_frac": "ratio",
    "serve.shed_frac": "ratio",
    "core.pool.evictions": "count",
    "macro.cells_programmed": "count",
    "analog.eig_calls": "count",
    "core.tiled.stack_rebuilds": "count",
    "core.grid_engine.dispatches_per_op": "count",
    "core.tiled.sweeps_per_op": "count",
    "core.refine.steps_per_op": "count",
    "core.ranging.attempts_per_col": "count",
    "converters.dac_conversions_per_op": "count",
    "converters.adc_conversions_per_op": "count",
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run) -> dict[str, float]:
    chip_s, chip_J = run.chip_per_op()
    return {
        "setup_s": median(run.setup_s),
        "op_s_p50": median(run.op_s),
        "ops_per_s": _ratio(len(run.op_s), run.busy_s),
        "analog_err_p50": median(run.analog_err),
        "chip_s_per_op": chip_s,
        "chip_J_per_op": chip_J,
        "rss_peak_mb": run.rss_mb,
    }


def tail_latency(run) -> tuple[float, float] | None:
    """``(q, op_s p<q>)`` for the highest percentile that has at least ten
    untraced ops beyond it, or ``None`` when even the median has not."""
    return highest_percentile(run.op_s)


def per_layer(run) -> dict[str, float]:
    ops = len(run.op_s) + len(run.traced_op_s)
    traced = len(run.traced_op_s)
    spans = run.tracer.spans
    totals = layer_totals(spans)
    counts = run.counts

    def per_op(key: str) -> float:
        return _ratio(counts.get(key, 0), ops)

    def span_stat(name: str, stat: str) -> float:
        return _ratio(totals.get(name, {}).get(stat, 0.0), traced)

    ranged_columns = sum(columns for _, columns in run.ranging)
    out = {
        "serve.queue_wait_s_p50": median(run.queue_wait_s) if run.queue_wait_s else 0.0,
        "serve.engine_calls_per_req": per_op("engine_calls"),
        "serve.cols_per_call": _ratio(
            counts.get("coalesced_columns", 0), counts.get("engine_calls", 0)
        ),
        "serve.execute_busy_frac": _ratio(
            totals.get("serve.execute", {}).get("total_s", 0.0), run.traced_wall_s
        ),
        "serve.shed_frac": _ratio(counts.get("shed", 0), run.outcomes.attempted),
        "core.pool.evictions": per_op("evictions"),
        "macro.cells_programmed": _ratio(run.cost["cells_programmed"], ops),
        "analog.eig_calls": per_op("eig_calls"),
        "core.tiled.stack_rebuilds": per_op("stack_rebuilds"),
        "core.grid_engine.dispatches_per_op": per_op("dispatches"),
        "core.tiled.sweeps_per_op": per_op("sweeps"),
        "core.refine.steps_per_op": per_op("refine_steps"),
        "core.ranging.attempts_per_col": _ratio(
            sum(attempts * columns for attempts, columns in run.ranging), ranged_columns
        ),
        "converters.dac_conversions_per_op": _ratio(run.cost["dac_conversions"], ops),
        "converters.adc_conversions_per_op": _ratio(run.cost["adc_conversions"], ops),
        **{f"{name}.calls": span_stat(name, "calls") for name in CALLS},
        **{f"{name}.self_s": span_stat(name, "self_s") for name in SELF_TIMES},
        "trace.overhead_frac": _ratio(median(run.traced_op_s), median(run.op_s)) - 1.0,
        "trace.unattributed_frac": unattributed_frac(spans),
    }
    assert out.keys() == PER_LAYER.keys()
    return out
