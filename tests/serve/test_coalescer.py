"""Coalescer unit tests: grouping, scatter slicing, failure isolation.

These run against a stub operator so the batching/scatter *mechanism* is
pinned down independent of analog physics; the end-to-end bitwise
contract against the real engine lives in ``test_service.py``."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.analog.topologies import AMCMode
from repro.core.results import SolveResult
from repro.obs.cost import SolveCost
from repro.serve import ColumnRangingError, SolveRequest, TenantQuota, TenantRegistry
from repro.serve.coalescer import coalesce
from repro.system.stats import ServiceStats


class _FakeFuture:
    """Just enough of asyncio.Future for synchronous scatter tests."""

    def __init__(self):
        self._result = None
        self._exception = None
        self._done = False

    def done(self):
        return self._done

    def cancel(self):
        self._done = True

    def set_result(self, value):
        assert not self._done
        self._result = value
        self._done = True

    def set_exception(self, error):
        assert not self._done
        self._exception = error
        self._done = True


class _StubOperator:
    """Returns a crafted batched SolveResult; records call shapes."""

    def __init__(
        self, key: str, n: int = 6, column_saturated=None, stable=True, cost=None
    ):
        self.key = key
        self.mode = AMCMode.INV
        self.shape = (n, n)
        self.closed = False
        self.calls: list[tuple[int, ...]] = []
        self._column_saturated = column_saturated
        self._stable = stable
        self._cost = cost

    def solve(self, b: np.ndarray, rtol=None) -> SolveResult:
        self.calls.append(b.shape)
        k = b.shape[1]
        saturated = (
            np.zeros(k, dtype=bool)
            if self._column_saturated is None
            else np.asarray(self._column_saturated, dtype=bool)
        )
        return SolveResult(
            mode=AMCMode.INV,
            value=b * 2.0,  # recognisable per-column transform
            reference=b * 2.0,
            attempts=3,
            input_scale=1.0,
            stable=self._stable,
            saturated=bool(saturated.any()),
            macro_ids=(0,),
            input_scales=np.arange(1, k + 1, dtype=float),
            per_column_attempts=np.full(k, 3),
            column_saturated=saturated,
            cost=self._cost,
        )

    def eigvec(self) -> SolveResult:
        self.calls.append(("eigvec",))
        vector = np.full(self.shape[0], 1.0 / np.sqrt(self.shape[0]))
        return SolveResult(
            mode=AMCMode.EGV, value=vector, reference=vector, attempts=1,
            input_scale=1.0, stable=True, saturated=False, macro_ids=(0,),
            cost=self._cost,
        )


def _registry() -> TenantRegistry:
    registry = TenantRegistry(ServiceStats())
    for name in ("alice", "bob", "carol"):
        registry.register(name, TenantQuota())
    return registry


def _req(tenant, operator, payload, kind="solve", require_in_range=True, rtol=None):
    payload = None if payload is None else np.asarray(payload, dtype=float)
    vector = payload is None or payload.ndim == 1
    columns = 1 if vector else payload.shape[1]
    return SolveRequest(
        tenant=tenant, operator=operator, kind=kind, payload=payload,
        future=_FakeFuture(), columns=columns, vector=vector,
        require_in_range=require_in_range,
        rtol=None if rtol is None else np.full(columns, rtol),
    )


def test_grouping_is_by_digest_and_kind():
    op_a, op_b = _StubOperator("digest-a"), _StubOperator("digest-b")
    requests = [
        _req("alice", op_a, np.ones(6)),
        _req("bob", op_a, np.ones(6)),
        _req("alice", op_b, np.ones(6)),
        _req("carol", op_a, None, kind="eigvec"),
    ]
    batches = coalesce(requests)
    keys = sorted((b.operator.key, b.kind, b.columns) for b in batches)
    assert keys == [
        ("digest-a", "eigvec", 1),
        ("digest-a", "solve", 2),
        ("digest-b", "solve", 1),
    ]


def test_scatter_slices_mixed_shapes_exactly():
    op = _StubOperator("d")
    r_vec = _req("alice", op, np.arange(6.0))
    r_mat = _req("bob", op, np.arange(12.0).reshape(6, 2))
    r_vec2 = _req("carol", op, np.arange(6.0) + 100.0)
    (batch,) = coalesce([r_vec, r_mat, r_vec2])
    assert batch.columns == 4
    result = batch.execute()
    assert op.calls == [(6, 4)]
    registry = _registry()
    batch.scatter(result, registry)

    out_vec = r_vec.future._result
    assert out_vec.value.shape == (6,)
    assert np.array_equal(out_vec.value, np.arange(6.0) * 2.0)
    assert out_vec.input_scale == 1.0  # column 0 of the stub's 1..k scales
    assert out_vec.input_scales is None  # vector requests stay vector-shaped

    out_mat = r_mat.future._result
    assert out_mat.value.shape == (6, 2)
    assert np.array_equal(out_mat.value, np.arange(12.0).reshape(6, 2) * 2.0)
    assert np.array_equal(out_mat.input_scales, np.array([2.0, 3.0]))
    assert np.array_equal(out_mat.per_column_attempts, np.array([3, 3]))

    out_vec2 = r_vec2.future._result
    assert np.array_equal(out_vec2.value, (np.arange(6.0) + 100.0) * 2.0)
    assert out_vec2.input_scale == 4.0

    counters = registry.get("bob").counters
    assert counters.completed == 1
    assert counters.columns_dispatched == 2


def test_failed_column_rejects_only_its_own_future():
    # Column 1 (bob's) stays railed after ranging; siblings are clean.
    op = _StubOperator("d", column_saturated=[False, True, False])
    r_a = _req("alice", op, np.ones(6))
    r_b = _req("bob", op, np.ones(6) * 5)
    r_c = _req("carol", op, np.ones(6) * 2)
    (batch,) = coalesce([r_a, r_b, r_c])
    registry = _registry()
    batch.scatter(batch.execute(), registry)

    assert r_a.future._result is not None
    assert r_c.future._result is not None
    error = r_b.future._exception
    assert isinstance(error, ColumnRangingError)
    # The structured error carries the out-of-range slice for diagnosis.
    assert error.result is not None and error.result.saturated
    assert registry.get("bob").counters.failed == 1
    assert registry.get("alice").counters.completed == 1


def test_require_in_range_false_returns_flagged_result():
    op = _StubOperator("d", column_saturated=[True])
    request = _req("alice", op, np.ones(6), require_in_range=False)
    (batch,) = coalesce([request])
    batch.scatter(batch.execute(), _registry())
    result = request.future._result
    assert result is not None and result.saturated


def test_cancelled_future_is_skipped_at_scatter():
    op = _StubOperator("d")
    r_live = _req("alice", op, np.ones(6))
    r_dead = _req("bob", op, np.ones(6))
    (batch,) = coalesce([r_live, r_dead])
    result = batch.execute()
    r_dead.future.cancel()  # client vanished mid-window
    batch.scatter(result, _registry())
    assert r_live.future._result is not None
    assert r_dead.future._result is None and r_dead.future._exception is None


def test_eigvec_requests_dedupe_to_one_engine_call():
    op = _StubOperator("d")
    requests = [_req(t, op, None, kind="eigvec") for t in ("alice", "bob", "carol")]
    (batch,) = coalesce(requests)
    batch.scatter(batch.execute(), _registry())
    assert op.calls == [("eigvec",)]  # one settling for all three
    values = [r.future._result.value for r in requests]
    assert all(np.array_equal(values[0], v) for v in values[1:])


def test_unstable_batch_fails_every_request():
    op = _StubOperator("d", stable=False)
    requests = [_req("alice", op, np.ones(6)), _req("bob", op, np.ones(6))]
    (batch,) = coalesce(requests)
    registry = _registry()
    batch.scatter(batch.execute(), registry)
    for request in requests:
        assert isinstance(request.future._exception, ColumnRangingError)
    assert registry.get("alice").counters.failed == 1
    assert registry.get("bob").counters.failed == 1


_WINDOW_COST = SolveCost(
    analog_settling_s=3e-6,
    dac_conversions=1001,
    adc_conversions=997,
    engine_macs=65_537,
    refine_macs=4_099,
    engine_dispatches=3,
    refine_steps=7,
    cells_programmed=5,
    write_pulses=11,
)
_INT_COUNTERS = [f.name for f in fields(SolveCost) if f.type == "int"]


def test_scatter_apportions_every_integer_counter_exactly():
    """Three engine dispatches shared by seven callers used to round to 0
    each; the shares of every integer counter must sum to the window's."""
    op = _StubOperator("d", cost=_WINDOW_COST)
    requests = [
        _req("alice", op, np.ones(6), rtol=1e-8),
        _req("bob", op, np.ones((6, 3))),
        _req("carol", op, np.ones(6)),
        _req("alice", op, np.ones((6, 2)), rtol=1e-6),
        _req("bob", op, np.ones(6), rtol=1e-10),
        _req("carol", op, np.ones(6)),
        _req("alice", op, np.ones(6)),
    ]
    for i, request in enumerate(requests):
        request.queue_wait_s = 1e-3 * i
    (batch,) = coalesce(requests)
    batch.scatter(batch.execute(), _registry())
    shares = [request.future._result.cost for request in requests]
    for name in _INT_COUNTERS:
        assert sum(getattr(share, name) for share in shares) == getattr(_WINDOW_COST, name), name
        assert all(isinstance(getattr(share, name), int) for share in shares)
    assert sum(share.engine_dispatches for share in shares) == 3
    # Refinement is billed only to the callers that asked for an rtol.
    for request, share in zip(requests, shares):
        if request.rtol is None:
            assert share.refine_macs == 0 and share.refine_steps == 0
        assert share.queue_wait_s == request.queue_wait_s
    assert sum(share.analog_settling_s for share in shares) == pytest.approx(3e-6)


def test_eigvec_dedupe_apportions_the_one_settling():
    op = _StubOperator("d", cost=_WINDOW_COST)
    requests = [_req(t, op, None, kind="eigvec") for t in ("alice", "bob", "carol")]
    (batch,) = coalesce(requests)
    batch.scatter(batch.execute(), _registry())
    shares = [request.future._result.cost for request in requests]
    for name in _INT_COUNTERS:
        assert sum(getattr(share, name) for share in shares) == getattr(_WINDOW_COST, name), name
