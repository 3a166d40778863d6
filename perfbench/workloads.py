"""The three workloads: generated inputs, set-up, measured ops and checks.

Every input comes from the workload seed; the chip's programming and read
noise comes from fixed seeds, so one seed names one reproducible run.
Each op's outputs are checked against a float64 NumPy oracle computed
here, never against the ``reference`` the program attaches to its result.
``perfbench/WORKLOADS.md`` records why each workload exists.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from perfbench.host import SpeedProbe, rss_peak_mb
from perfbench.stats import Outcomes
from perfbench.tracing import OP, Tracer
from repro.analog import dynamics
from repro.analog.topologies import AMCMode
from repro.core.errors import GramcError
from repro.core.pool import MacroPool, PoolConfig
from repro.core.solver import GramcSolver
from repro.obs.cost import SolveCost
from repro.obs.report import solve_breakdown
from repro.programming.levels import LevelMap
from repro.serve import SolveService
from repro.workloads.matrices import block_dominant, gram, wishart

#: Set-ups per run; ``setup_s`` is their median, and the last one is measured.
SETUP_REPEATS = 5

#: The chip's fixed noise seeds (the pool's and the solver's generators).
CHIP_SEED, SOLVER_SEED = 20260729, 17
#: Resident operands are part of a workload's definition, like a deployed
#: model: the workload seed drives what is sent to them.  Drawing them
#: from the seed would make refine steps, and with them every time,
#: differ between seeds by the operand's conditioning rather than by noise.
RESIDENT_SEED = 3

#: Per-mode bounds on an unrefined analog answer's relative error, as the
#: existing ``BENCH_*`` invariants and figure benches state them.
MAX_ERROR = {"mvm": 0.35, "inv": 0.6, "pinv": 0.25}
#: EGV is judged by alignment with the float64 dominant eigenvector.
MIN_EGV_COSINE = 0.95

#: Layer functions the traced run wraps: (metric prefix, module, attribute).
LAYER_FUNCTIONS = (
    ("serve.admit", "repro.serve.admission", "AdmissionController.admit"),
    # service.py calls the coalescer through its own module-level binding.
    ("serve.coalesce", "repro.serve.service", "coalesce"),
    ("serve.execute", "repro.serve.coalescer", "CoalescedBatch.execute"),
    ("serve.scatter", "repro.serve.coalescer", "CoalescedBatch.scatter"),
    ("core.solver.compile", "repro.core.solver", "GramcSolver.compile"),
    ("core.pool.acquire_many", "repro.core.pool", "MacroPool.acquire_many"),
    ("macro.program_mapping", "repro.macro.amc_macro", "AMCMacro.program_mapping"),
    ("core.grid_engine.refresh", "repro.core.grid_engine", "GridEngine.refresh"),
    ("core.grid_engine.sweep", "repro.core.grid_engine", "GridEngine.sweep"),
    ("core.backend.batched_lu_solve", "repro.core.backend", "NumpyBackend.batched_lu_solve"),
    ("core.backend.batched_matmul", "repro.core.backend", "NumpyBackend.batched_matmul"),
    ("core.refine.refine_solution", "repro.core.refine", "refine_solution"),
    ("core.operator.mvm", "repro.core.operator", "AnalogOperator.mvm"),
    ("core.operator.solve", "repro.core.operator", "AnalogOperator.solve"),
    ("core.operator.lstsq", "repro.core.operator", "AnalogOperator.lstsq"),
    ("core.operator.eigvec", "repro.core.operator", "AnalogOperator.eigvec"),
    ("macro.compute", "repro.macro.amc_macro", "AMCMacro.compute_mvm"),
    ("macro.compute", "repro.macro.amc_macro", "AMCMacro.compute_inv"),
    ("macro.compute", "repro.macro.amc_macro", "AMCMacro.compute_pinv"),
    ("macro.compute", "repro.macro.amc_macro", "AMCMacro.compute_egv"),
    # The ranging loops are bound by name in the modules that call them.
    ("core.ranging", "repro.core.operator", "autorange_mvm"),
    ("core.ranging", "repro.core.operator", "autorange_gain"),
    ("core.ranging", "repro.core.operator", "autorange_gain_batch"),
    ("core.ranging", "repro.core.grid_engine", "autorange_mvm"),
    ("core.ranging", "repro.core.grid_engine", "autorange_gain_batch"),
)


def make_solver(num_macros: int, levels: int | None = None) -> GramcSolver:
    """A fresh chip of ``num_macros`` 64×64 macros."""
    config = PoolConfig(num_macros=num_macros, rows=64, cols=64)
    if levels is not None:
        config.level_map = LevelMap(num_levels=levels)
    return GramcSolver(
        pool=MacroPool(config, rng=np.random.default_rng(CHIP_SEED)),
        rng=np.random.default_rng(SOLVER_SEED),
        backend="numpy",
    )


# -------------------------------------------------------------------- checks


def relative_error(value: np.ndarray, oracle: np.ndarray) -> float:
    """``‖value − oracle‖ / ‖oracle‖`` (Frobenius for blocks)."""
    diff = (np.asarray(value) - oracle).ravel()
    flat = oracle.ravel()
    return math.sqrt(float(diff @ diff) / float(flat @ flat))


def check_refined(matrix: np.ndarray, b: np.ndarray, value, rtol: float) -> list[str]:
    """The ``rtol`` contract, re-measured in float64 per column."""
    b2 = b.reshape(b.shape[0], -1)
    x2 = np.asarray(value).reshape(b2.shape)
    residuals = np.linalg.norm(b2 - matrix @ x2, axis=0) / np.linalg.norm(b2, axis=0)
    if np.all(residuals <= rtol):  # False for NaN as well
        return []
    return [f"residual above rtol {rtol:g}"]


def check_analog(kind: str, value, oracle: np.ndarray) -> tuple[list[str], float]:
    error = relative_error(value, oracle)
    if error <= MAX_ERROR[kind]:
        return [], error
    return [f"{kind} error above {MAX_ERROR[kind]}"], error


def check_eigvec(value, oracle: np.ndarray) -> tuple[list[str], float]:
    """Alignment with the unit dominant eigenvector ``oracle`` (sign-free)."""
    unit = np.asarray(value) / np.linalg.norm(value)
    cosine = float(unit @ oracle)
    error = relative_error(np.copysign(1.0, cosine) * unit, oracle)
    if abs(cosine) >= MIN_EGV_COSINE:
        return [], error
    return [f"egv cosine below {MIN_EGV_COSINE}"], error


def dominant_eigvec(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(matrix)[1][:, -1]


def chip_cost(cost: SolveCost) -> tuple[float, float]:
    """Modeled chip seconds (queue wait excluded) and joules of ``cost``."""
    table = solve_breakdown(cost)
    return table["total_time_s"] - table["wait_time_s"], table["total_energy_J"]


# --------------------------------------------------------------- measurement

_COST_FIELDS = tuple(f.name for f in fields(SolveCost))


@dataclass
class Run:
    """Everything one run measured; ``run.py`` turns it into metrics."""

    digest_ops: int
    rss_ops: int
    tracer: Tracer | None = None
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    """Host seconds of each untraced op, rescaled by the speed probe."""
    traced_op_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    """Host seconds of each untraced op as the clock read them."""
    busy_s: float = 0.0
    """Rescaled host seconds of untraced measurement: summed op times for
    a serial workload, phase wall-clock for the concurrent one."""
    traced_wall_s: float = 0.0
    analog_err: list[float] = field(default_factory=list)
    cost: dict[str, float] = field(default_factory=lambda: dict.fromkeys(_COST_FIELDS, 0))
    """Modeled cost summed over every measured op."""
    queue_wait_s: list[float] = field(default_factory=list)
    outcomes: Outcomes = field(default_factory=Outcomes)
    run_misses: list[str] = field(default_factory=list)
    """Checks on the run as a whole (steady-state reprogramming)."""
    counts: dict[str, float] = field(default_factory=dict)
    """Program counters summed over every measured op."""
    digest_rows: list[tuple] = field(default_factory=list)
    ranging: list[tuple[int, int]] = field(default_factory=list)
    """(attempts, columns) of every traced call into ``core.ranging``."""
    rss_mb: float | None = None
    """Peak resident set size once ``rss_ops`` ops have been recorded, so
    that it does not grow with the number of ops a run manages."""
    rss_at: int = 0

    def add_counts(self, **deltas: float) -> None:
        for key, value in deltas.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def observe_ranging(self, out) -> None:
        # autorange_mvm returns (result, attempts, saturated); the gain
        # loops return an outcome object.  The raw conversion block says
        # how many columns shared those attempts.
        result, attempts = (out[0], out[1]) if isinstance(out, tuple) else (out.result, out.attempts)
        raw = np.asarray(result.raw)
        self.ranging.append((int(attempts), int(raw.shape[1]) if raw.ndim == 2 else 1))

    def tracing(self, traced: bool):
        """Context for one op or phase: the layer wrappers, when traced."""
        if not traced:
            return nullcontext()
        return self.tracer.installed(LAYER_FUNCTIONS, {"core.ranging": self.observe_ranging})

    def record_op(
        self,
        elapsed: float,
        speed: float,
        traced: bool,
        misses: list[str],
        errors,
        cost: SolveCost,
        row=(),
    ) -> None:
        """Count one op that took ``elapsed`` host seconds while the speed
        probe read ``speed``."""
        if traced:
            self.traced_op_s.append(elapsed * speed)
        else:
            self.op_s.append(elapsed * speed)
            self.raw_op_s.append(elapsed)
        self.outcomes.record(misses)
        self.analog_err.extend(errors)
        total = self.cost
        for name in _COST_FIELDS:
            total[name] += getattr(cost, name)
        if len(self.digest_rows) < self.digest_ops:
            self.digest_rows.append(chip_cost(cost) + tuple(row))
        if self.rss_mb is None and self.outcomes.attempted >= self.rss_ops:
            self.sample_rss()

    def sample_rss(self) -> None:
        self.rss_mb, self.rss_at = rss_peak_mb(), self.outcomes.attempted

    def chip_per_op(self) -> tuple[float, float]:
        """Modeled chip seconds and joules per op, queue wait excluded."""
        ops = len(self.op_s) + len(self.traced_op_s)
        chip_s, chip_J = chip_cost(SolveCost(**self.cost))
        return chip_s / ops, chip_J / ops

    def digest(self) -> str:
        """Hash of the simulated statistics of the first ``digest_ops`` ops."""
        rows = self.digest_rows
        return f"{hashlib.sha256(repr(rows).encode()).hexdigest()[:16]}/{len(rows)}ops"


_COUNTERS = ("dispatches", "refine_steps", "stack_rebuilds", "evictions", "eig_calls")


def _snapshot(solver: GramcSolver) -> tuple:
    return (
        solver.cost.snapshot(),
        solver.engine_dispatches,
        solver.refine_steps,
        solver.stack_rebuilds,
        solver.pool.evictions,
        dynamics.eig_call_count(),
    )


def _delta(before: tuple, after: tuple) -> tuple[SolveCost, dict[str, int]]:
    counts = {name: a - b for name, a, b in zip(_COUNTERS, after[1:], before[1:])}
    return after[0] - before[0], counts


def _set_up(run: Run, probe: SpeedProbe, setup, teardown):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last state."""
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        gc.collect()
        speed = probe.factor()
        start = time.perf_counter()
        state = setup()
        run.setup_s.append((time.perf_counter() - start) * speed)
    gc.collect()
    return state


# ---------------------------------------------------------- serial workloads


class SolveRefined:
    """One resident 256×256 INV grid; each op is ``solve(B, rtol=1e-10)``."""

    name = "solve_refined"
    digest_ops, rss_ops = 8, 10
    size, tile, columns, levels, rtol = 256, 64, 32, 256, 1e-10
    warm_ups = 2

    def __init__(self, seed: int):
        self.matrix = block_dominant(
            self.size, self.tile, rng=np.random.default_rng(RESIDENT_SEED)
        )
        warm_rng = np.random.default_rng([seed, 0])
        self.warm_rhs = [self._rhs(warm_rng) for _ in range(self.warm_ups)]
        self.rng = np.random.default_rng([seed, 1])

    def _rhs(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=(self.size, self.columns))

    def setup(self):
        solver = make_solver(40, self.levels)
        op = solver.compile(self.matrix, AMCMode.INV)
        for b in self.warm_rhs:
            op.solve(b, rtol=self.rtol)
        return SimpleNamespace(solver=solver, op=op)

    @staticmethod
    def teardown(state) -> None:
        state.op.close()

    def generate(self) -> np.ndarray:
        return self._rhs(self.rng)

    def call(self, state, b: np.ndarray):
        programmed = state.op.program_events
        result = state.op.solve(b, rtol=self.rtol)
        return result, state.op.program_events - programmed

    def check(self, b, outputs) -> tuple[list[str], list[float], int]:
        result, reprogrammed = outputs
        misses = check_refined(self.matrix, b, result.value, self.rtol)
        if reprogrammed:
            misses.append("reprogrammed in steady state")
        return misses, [result.refine_residual_trace[0]], result.sweeps


class ReconfigChurn:
    """Each op compiles fresh operands in all four modes, calls each once
    and closes it again."""

    name = "reconfig_churn"
    digest_ops, rss_ops = 20, 50
    n, rtol, levels = 64, 1e-8, 256

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.warm = self.generate()

    def generate(self) -> SimpleNamespace:
        rng, n = self.rng, self.n
        pinv = rng.uniform(-1.0, 1.0, size=(n, 8))
        # Six samples sharing one dominant factor: the separated-eigenvalue
        # regime the EGV circuit is specified for (the paper's Gram data).
        # Without the factor, λ2/λ1 of a rank-6 Gram matrix can approach 1
        # and the dominant eigenvector is ill-defined for any solver.
        factor = rng.standard_normal(n)
        factor /= np.linalg.norm(factor)
        samples = 2.0 * np.sqrt(n / 6) * np.outer(factor, rng.standard_normal(6))
        samples += rng.standard_normal((n, 6))
        return SimpleNamespace(
            mvm=rng.uniform(-1.0, 1.0, size=(n, n)),
            x=rng.uniform(-1.0, 1.0, size=(n, 16)),
            inv=wishart(n, rng=rng) + 0.6 * np.eye(n),
            b_inv=rng.uniform(-1.0, 1.0, size=n),
            pinv=pinv,
            b_pinv=pinv @ rng.uniform(-1.0, 1.0, size=8) + 0.05 * rng.standard_normal(n),
            egv=gram(samples),
            tiled=block_dominant(2 * n, n, rng=rng),
            b_tiled=rng.uniform(-1.0, 1.0, size=2 * n),
        )

    def setup(self):
        solver = make_solver(40, self.levels)
        self.call(solver, self.warm)
        return solver

    @staticmethod
    def teardown(state) -> None:
        state.pool.release_all()

    def call(self, solver: GramcSolver, c) -> tuple:
        with solver.compile(c.mvm, AMCMode.MVM) as op:
            mvm = op.mvm(c.x)
        with solver.compile(c.inv, AMCMode.INV) as op:
            inv = op.solve(c.b_inv, rtol=self.rtol)
        with solver.compile(c.pinv, AMCMode.PINV) as op:
            pinv = op.lstsq(c.b_pinv)
        with solver.compile(c.egv, AMCMode.EGV) as op:
            egv = op.eigvec()
        with solver.compile(c.tiled, AMCMode.INV) as op:
            tiled = op.solve(c.b_tiled, rtol=self.rtol)
        return mvm, inv, pinv, egv, tiled

    def check(self, c, outputs) -> tuple[list[str], list[float], int]:
        mvm, inv, pinv, egv, tiled = outputs
        misses, errors = [], []
        for found in (
            check_analog("mvm", mvm.value, c.mvm @ c.x),
            check_analog("pinv", pinv.value, np.linalg.lstsq(c.pinv, c.b_pinv, rcond=None)[0]),
            check_eigvec(egv.value, dominant_eigvec(c.egv)),
        ):
            misses += found[0]
            errors.append(found[1])
        misses += check_refined(c.inv, c.b_inv, inv.value, self.rtol)
        misses += check_refined(c.tiled, c.b_tiled, tiled.value, self.rtol)
        errors += [inv.refine_residual_trace[0], tiled.refine_residual_trace[0]]
        return misses, errors, tiled.sweeps


def run_serial(workload, probe: SpeedProbe, seconds: float, traced: bool) -> Run:
    """Closed loop, one caller: op after op until ``seconds`` have passed.

    In a traced run every other op runs under the layer wrappers, so the
    untraced ops beside them measure the tracing overhead."""
    run = Run(workload.digest_ops, workload.rss_ops, Tracer() if traced else None)
    state = _set_up(run, probe, workload.setup, workload.teardown)
    solver = getattr(state, "solver", state)
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        inputs = workload.generate()
        traced_op = traced and index % 2 == 1
        index += 1
        speed = probe.factor()
        before = _snapshot(solver)
        with run.tracing(traced_op):
            span = run.tracer.span(OP) if traced_op else nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    outputs = workload.call(state, inputs)
            except GramcError as error:
                outputs, misses = None, [type(error).__name__]
            elapsed = time.perf_counter() - start
        cost, counts = _delta(before, _snapshot(solver))
        errors, sweeps = [], 0
        if outputs is not None:
            misses, errors, sweeps = workload.check(inputs, outputs)
        if not traced_op:
            run.busy_s += elapsed * speed
        run.add_counts(sweeps=sweeps, **counts)
        run.record_op(
            elapsed, speed, traced_op, misses, errors, cost,
            row=(counts["refine_steps"], sweeps, counts["dispatches"], counts["eig_calls"]),
        )
    workload.teardown(state)
    return run


# ------------------------------------------------------ concurrent workload


class ServeMixed:
    """32 closed-loop callers over 4 tenants on one ``SolveService``."""

    name = "serve_mixed"
    digest_ops, rss_ops = 64, 10_000
    callers, tenants, macros = 32, 4, 16
    phase_s = 1.0
    rtol = 1e-6
    #: Request mix: (operator, share of requests).
    mix = (("inv", 0.3), ("inv_rtol", 0.3), ("mvm", 0.3), ("pinv", 0.1))

    def __init__(self, seed: int):
        rng = np.random.default_rng(RESIDENT_SEED)
        pinv = rng.uniform(-1.0, 1.0, size=(64, 8))
        self.matrices = {
            "inv": wishart(32, rng=rng) + 0.6 * np.eye(32),
            "inv_rtol": wishart(32, rng=rng) + 0.6 * np.eye(32),
            "mvm": rng.uniform(-1.0, 1.0, size=(32, 32)),
            "pinv": pinv,
        }
        self.oracles = {
            "inv": np.linalg.inv(self.matrices["inv"]),
            "mvm": self.matrices["mvm"],
            "pinv": np.linalg.pinv(pinv),
        }
        self.streams = [np.random.default_rng([seed, 4, c]) for c in range(self.callers)]
        shares = [share for _, share in self.mix]
        self.thresholds = [sum(shares[: i + 1]) for i in range(len(shares) - 1)]
        warm_rng = np.random.default_rng([seed, 5])
        self.warm = [
            (kind, self._payload(kind, warm_rng)) for kind, _ in self.mix for _ in range(16)
        ]

    def _payload(self, kind: str, rng: np.random.Generator) -> np.ndarray:
        if kind == "pinv":
            return self.matrices["pinv"] @ rng.uniform(-1.0, 1.0, 8) + 0.05 * rng.standard_normal(64)
        return rng.uniform(-1.0, 1.0, 32)

    def generate(self, caller: int) -> tuple[str, np.ndarray]:
        rng = self.streams[caller]
        kind = self.mix[bisect.bisect_right(self.thresholds, rng.random())][0]
        return kind, self._payload(kind, rng)

    def check(self, kind: str, payload, result) -> tuple[list[str], list[float]]:
        if kind == "inv_rtol":
            misses = check_refined(self.matrices[kind], payload, result.value, self.rtol)
            return misses, [result.refine_residual_trace[0]]
        found, error = check_analog(kind, result.value, self.oracles[kind] @ payload)
        return found, [error]

    async def submit(self, state, tenant: str, kind: str, payload):
        service, op = state.service, state.ops[kind]
        if kind == "mvm":
            return await service.mvm(tenant, op, payload)
        if kind == "pinv":
            return await service.lstsq(tenant, op, payload)
        if kind == "inv_rtol":
            return await service.solve(tenant, op, payload, rtol=self.rtol)
        return await service.solve(tenant, op, payload)

    async def setup(self):
        solver = make_solver(self.macros)
        service = SolveService(solver)
        for t in range(self.tenants):
            service.register_tenant(f"tenant{t}")
        await service.start()
        ops = {}
        for t, kind in enumerate(self.matrices):
            mode = {"mvm": AMCMode.MVM, "pinv": AMCMode.PINV}.get(kind, AMCMode.INV)
            ops[kind] = await service.compile(
                f"tenant{t % self.tenants}", self.matrices[kind], mode
            )
        state = SimpleNamespace(solver=solver, service=service, ops=ops)
        await asyncio.gather(
            *(
                self.submit(state, f"tenant{i % self.tenants}", kind, payload)
                for i, (kind, payload) in enumerate(self.warm)
            )
        )
        return state

    @staticmethod
    def programmed(state) -> int:
        return sum(op.program_count for op in state.ops.values())

    async def phase(
        self, state, run: Run, deadline: float, speed: float, traced: bool
    ) -> None:
        async def caller(c: int) -> None:
            tenant = f"tenant{c % self.tenants}"
            while time.perf_counter() < deadline:
                kind, payload = self.generate(c)
                span = run.tracer.span(OP) if traced else nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        result = await self.submit(state, tenant, kind, payload)
                except GramcError as error:
                    run.record_op(
                        time.perf_counter() - start, speed, traced,
                        [type(error).__name__], [], SolveCost(),
                    )
                    continue
                elapsed = time.perf_counter() - start
                misses, errors = self.check(kind, payload, result)
                run.queue_wait_s.append(result.cost.queue_wait_s)
                run.record_op(
                    elapsed, speed, traced, misses, errors, result.cost,
                    row=(result.refine_steps or 0,),
                )

        await asyncio.gather(*(caller(c) for c in range(self.callers)))


def run_serve(workload: ServeMixed, probe: SpeedProbe, seconds: float, traced: bool) -> Run:
    """Closed loop, 32 callers, in phases of about one second.

    Every phase ends with all callers drained, and the speed probe runs
    between phases, while the chip thread is idle.  In a traced run every
    other phase runs under the layer wrappers."""

    async def session() -> Run:
        run = Run(workload.digest_ops, workload.rss_ops, Tracer() if traced else None)
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                await state.service.close()
            gc.collect()
            speed = probe.factor()
            start = time.perf_counter()
            state = await workload.setup()
            run.setup_s.append((time.perf_counter() - start) * speed)
        gc.collect()
        solver, stats = state.solver, state.service.stats
        phases = max(2, round(seconds / workload.phase_s))
        try:
            for p in range(phases):
                traced_phase = traced and p % 2 == 1
                before = _snapshot(solver)
                programmed = workload.programmed(state)
                service_before = (stats.engine_calls, stats.coalesced_columns, stats.shed_requests)
                speed = probe.factor()
                with run.tracing(traced_phase):
                    start = time.perf_counter()
                    await workload.phase(
                        state, run, start + seconds / phases, speed, traced_phase
                    )
                    wall = time.perf_counter() - start
                if traced_phase:
                    run.traced_wall_s += wall
                else:
                    run.busy_s += wall * speed
                _, counts = _delta(before, _snapshot(solver))
                run.add_counts(
                    engine_calls=stats.engine_calls - service_before[0],
                    coalesced_columns=stats.coalesced_columns - service_before[1],
                    shed=stats.shed_requests - service_before[2],
                    **counts,
                )
                if workload.programmed(state) != programmed or counts["evictions"]:
                    run.run_misses.append(f"phase {p}: reprogrammed in steady state")
        finally:
            await state.service.close()
        return run

    return asyncio.run(session())


WORKLOADS = {cls.name: cls for cls in (SolveRefined, ServeMixed, ReconfigChurn)}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Run:
    workload = WORKLOADS[name](seed)
    runner = run_serve if isinstance(workload, ServeMixed) else run_serial
    run = runner(workload, SpeedProbe(), seconds, traced)
    if run.rss_mb is None:  # a run too short to reach rss_ops
        run.sample_rss()
    return run
