"""Stacked grid engine: equivalence, invalidation, and dispatch scaling.

The vectorized sweep engine's contract is *bit-identity* with the
per-tile reference loop under the deterministic engine mode
(``column_independent_apply``), noisy physics included — every test here
runs twin identically-seeded chips, one per engine, and compares raw
bits.  Under the default BLAS mode the batched kernels may legally differ
from the per-slice ones in the last ulp, so those combinations assert a
tight tolerance instead.
"""

import numpy as np
import pytest

from repro.analog import determinism
from repro.analog.opamp import OpAmpParams
from repro.analog.topologies import AMCMode
from repro.converters.adc import ADCParams
from repro.converters.dac import DACParams
from repro.core.errors import GramcError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.core.tiled import TiledOperator
from repro.devices.constants import DeviceStack, VariabilityParams
from repro.programming.levels import LevelMap
from repro.workloads.matrices import block_dominant

N = 100
TILE = 32  # 100 = 3×32 + 4: a ragged 4×4 grid exercising the padding
COLUMNS = 3


def _pool_config(noisy: bool) -> PoolConfig:
    if noisy:
        # Every per-call randomness source on: analog amplifier noise plus
        # converter noise/INL — the stacked path must consume each macro's
        # stream draw-for-draw like the per-tile loop.
        return PoolConfig(
            num_macros=40,
            rows=TILE,
            cols=TILE,
            level_map=LevelMap(num_levels=256),
            dac=DACParams(bits=10, inl_lsb=0.4, noise_sigma=3e-4),
            adc=ADCParams(bits=10, noise_sigma=3e-4, offset=1e-4),
        )
    return PoolConfig(
        num_macros=40,
        rows=TILE,
        cols=TILE,
        level_map=LevelMap(num_levels=256),
        stack=DeviceStack(variability=VariabilityParams(read_noise_sigma=0.0)),
        opamp=OpAmpParams(noise_sigma=0.0),
        dac=DACParams(bits=10, noise_sigma=0.0),
        adc=ADCParams(bits=10, noise_sigma=0.0),
    )


def _solver(noisy: bool, seed: int = 77) -> GramcSolver:
    return GramcSolver(
        pool=MacroPool(_pool_config(noisy), rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(7),
    )


def _problem(seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    matrix = block_dominant(N, TILE, rng=rng)
    b = rng.uniform(-1, 1, (N, COLUMNS))
    return matrix, b


def _twin_solve(method: str, noisy: bool, **solve_kwargs):
    """The same ragged-grid solve on twin chips, one per engine."""
    matrix, b = _problem()
    results = []
    for engine in ("stacked", "pertile"):
        solver = _solver(noisy)
        op = solver.compile(matrix, AMCMode.INV)
        assert isinstance(op, TiledOperator)
        assert op.block_slices[-1] == slice(96, 100)  # ragged trailing edge
        result = op.solve(b, method=method, engine=engine, **solve_kwargs)
        results.append(result)
        op.close()
    return results


class TestEquivalence:
    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_bitwise_under_deterministic_mode(self, method, noisy):
        with determinism.column_independent_apply(True):
            stacked, pertile = _twin_solve(method, noisy)
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.sweeps == pertile.sweeps
        assert stacked.attempts == pertile.attempts
        assert stacked.converged == pertile.converged
        assert np.array_equal(stacked.input_scales, pertile.input_scales)
        assert np.array_equal(stacked.per_column_attempts, pertile.per_column_attempts)
        assert np.array_equal(stacked.column_saturated, pertile.column_saturated)

    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_tolerance_under_blas_mode(self, method, noisy):
        with determinism.column_independent_apply(False):
            stacked, pertile = _twin_solve(method, noisy)
        scale = float(np.linalg.norm(pertile.value))
        assert float(np.linalg.norm(stacked.value - pertile.value)) <= 1e-6 * scale
        assert stacked.sweeps == pertile.sweeps

    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    def test_refined_solve_bitwise(self, method):
        """Refinement corrections stop at the floor the base solve
        measured; both engines measure the same floor from the same bits,
        so the refined answer, sweep count and residual trace stay twins."""
        with determinism.column_independent_apply(True):
            stacked, pertile = _twin_solve(method, noisy=True, rtol=1e-10)
        assert stacked.refine_steps > 0
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.sweeps == pertile.sweeps
        assert stacked.refine_residual_trace == pertile.refine_residual_trace
        assert stacked.per_column_converged.all()

    @pytest.mark.parametrize(
        "method, sweeps, total, weighted",
        [
            ("gauss-seidel", 7, 4.67560611869213, 377.6843302921682),
            ("jacobi", 8, 4.670844124371038, 378.21739239224195),
        ],
    )
    def test_plain_solve_is_pinned(self, method, sweeps, total, weighted):
        """``solve(b)`` without ``rtol`` keeps its stop rule: the sweep
        count and the answer recorded before refinement corrections got
        their own stopping tolerance.  The values were bitwise equal when
        recorded; the 1e-12 band only admits the last-ulp reduction-order
        differences between CPUs, orders of magnitude under one noise
        draw, so any change to the sweeps or their noise stream fails."""
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            for engine in ("stacked", "pertile"):
                op = _solver(noisy=True).compile(matrix, AMCMode.INV)
                result = op.solve(b, method=method, engine=engine)
                op.close()
                value = result.value
                assert result.sweeps == sweeps
                assert float(value.sum()) == pytest.approx(total, rel=1e-12)
                position = np.arange(value.size).reshape(value.shape)
                assert float((value * position).sum()) == pytest.approx(weighted, rel=1e-12)

    def test_vector_rhs_bitwise(self):
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            values = []
            for engine in ("stacked", "pertile"):
                solver = _solver(noisy=True)
                op = solver.compile(matrix, AMCMode.INV)
                values.append(op.solve(b[:, 0], engine=engine).value)
                op.close()
        assert np.array_equal(values[0], values[1])

    def test_unknown_engine_rejected(self):
        matrix, b = _problem()
        solver = _solver(noisy=False)
        op = solver.compile(matrix, AMCMode.INV)
        with pytest.raises(GramcError, match="engine"):
            op.solve(b, engine="vectorised")
        op.close()


class TestInvalidation:
    def test_set_g_f_retune_needs_no_rebuild(self):
        """Ladder moves between solves must neither rebuild stacks nor
        desynchronize the engines — g_f is read live from the registers."""
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            results = []
            for engine in ("stacked", "pertile"):
                solver = _solver(noisy=True)
                op = solver.compile(matrix, AMCMode.INV)
                op.solve(b, engine=engine)
                for handle in op._solve_handles():
                    tile = handle._tiles[0]
                    tile.primary.set_g_f(tile.primary.config.g_f * 2.0)
                    if tile.partner is not None:
                        tile.partner.set_g_f(tile.primary.config.g_f)
                results.append(op.solve(b, engine=engine))
                op.close()
        stacked, pertile = results
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.stack_rebuilds == 0

    def test_preemption_invalidates_exactly_the_stolen_slice(self):
        """The stale-cache regression: a fair-share preemption between
        solves must rebuild the preempted tile's slice — and only it —
        and the answer must stay bitwise equal to the per-tile engine
        under the same preemption."""
        matrix, b = _problem()
        with determinism.column_independent_apply(True):
            results = []
            for engine in ("stacked", "pertile"):
                solver = _solver(noisy=True)
                op = solver.compile(matrix, AMCMode.INV)
                op.solve(b, engine=engine)  # warm stacks + ranging
                op.unpin()  # preemption refuses pinned owners
                victim = op._off[(0, 1)]
                assert solver.pool.preempt(victim.owner_names()[0])
                result = op.solve(b, engine=engine)
                results.append(result)
                op.close()
        stacked, pertile = results
        assert np.array_equal(stacked.value, pertile.value)
        assert stacked.stack_rebuilds == 1
        assert pertile.stack_rebuilds == 0

    def test_steady_state_rebuilds_zero(self):
        matrix, b = _problem()
        solver = _solver(noisy=False)
        op = solver.compile(matrix, AMCMode.INV)
        first = op.solve(b)
        second = op.solve(b)
        assert first.stack_rebuilds == op.block_count  # initial stack build
        assert second.stack_rebuilds == 0
        op.close()


class TestDispatchScaling:
    def _grid_solver(self) -> GramcSolver:
        solver = GramcSolver(
            pool=MacroPool(
                PoolConfig(num_macros=40, rows=TILE, cols=TILE),
                rng=np.random.default_rng(5),
            ),
            rng=np.random.default_rng(9),
        )
        solver.max_attempts = 1  # freeze ranging: pure sweep kernel counts
        return solver

    @pytest.mark.parametrize("n", [64, 128], ids=["2x2", "4x4"])
    def test_jacobi_sweep_costs_constant_dispatches(self, n):
        """A stacked Jacobi sweep is 3 kernels — off-diagonal positive
        plane, off-diagonal negative plane, batched diagonal solve —
        independent of how many tiles the grid holds.  Sweep 1 reads the
        all-zero initial iterate, so both MVM kernels are skipped
        (A·0 ≡ 0) and only the diagonal solve runs."""
        rng = np.random.default_rng(11)
        matrix = block_dominant(n, TILE, rng=rng)
        b = rng.uniform(-1, 1, (n, 4))
        solver = self._grid_solver()
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b, method="jacobi", engine="stacked")
        assert result.sweeps >= 1
        assert result.engine_dispatches == 3 * result.sweeps - 2
        op.close()

    def test_ragged_grid_diagonal_stage_is_one_dispatch(self):
        """The diagonal stage applies zero-padded equilibrium inverses, so
        the ragged trailing tile (100 = 3×32 + 4) joins the full tiles'
        batched kernel in the default BLAS mode too: still 3 kernels per
        Jacobi sweep, not one diagonal kernel per distinct tile size."""
        rng = np.random.default_rng(11)
        matrix = block_dominant(N, TILE, rng=rng)
        b = rng.uniform(-1, 1, (N, 4))
        solver = self._grid_solver()
        with determinism.column_independent_apply(False):
            op = solver.compile(matrix, AMCMode.INV)
            assert op.block_slices[-1] == slice(96, 100)
            result = op.solve(b, method="jacobi", engine="stacked")
            op.close()
        assert result.sweeps >= 2
        assert result.engine_dispatches == 3 * result.sweeps - 2

    def test_pertile_dispatches_scale_with_tiles(self):
        rng = np.random.default_rng(11)
        matrix = block_dominant(128, TILE, rng=rng)
        b = rng.uniform(-1, 1, (128, 4))
        solver = self._grid_solver()
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b, method="jacobi", engine="pertile")
        # 4×4 grid: 12 coupling MVMs + 4 diagonal solves per sweep,
        # minus the 12 zero-source MVMs skipped on sweep 1.
        assert result.engine_dispatches == 16 * result.sweeps - 12
        op.close()

    def test_chip_stats_carry_the_counters(self):
        rng = np.random.default_rng(11)
        matrix = block_dominant(64, TILE, rng=rng)
        b = rng.uniform(-1, 1, (64, 2))
        from repro.system.stats import ChipStats

        stats = ChipStats()
        solver = GramcSolver(
            pool=MacroPool(
                PoolConfig(num_macros=40, rows=TILE, cols=TILE),
                rng=np.random.default_rng(5),
            ),
            rng=np.random.default_rng(9),
            stats=stats,
        )
        op = solver.compile(matrix, AMCMode.INV)
        result = op.solve(b)
        assert stats.engine_dispatches == result.engine_dispatches
        assert stats.stack_rebuilds == result.stack_rebuilds
        assert "engine_dispatches" in stats.summary()
        assert "stack_rebuilds" in stats.summary()
        op.close()
