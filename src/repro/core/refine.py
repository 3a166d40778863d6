"""Digital iterative refinement: float-accurate answers from analog solves.

An analog solve is *cheap but inexact*: quantization (one part in the
level map), programming/read noise and converter resolution bound its
relative error at η ≈ 1e-2..1e-1 — and the blocked sweep engine stalls at
an O(η·κ) residual floor on top.  The canonical fix (Sun & Ielmini,
arXiv:2205.05853, §"mixed-precision") is **iterative refinement**: use
the analog solve only for a cheap approximate *direction*, measure how
wrong it is digitally, and re-solve the correction on the very same
programmed operator:

.. code-block:: text

    x⁰ = analog_solve(b)                  # η-accurate direction
    repeat:
        r  = b − A·xᵏ     (float64)       # digital residual, exact A
        d  = analog_solve(r)              # correction on the RESIDENT
        xᵏ⁺¹ = xᵏ + d                     #   operator: zero reprogramming

Because auto-ranging rescales every right-hand side to the converters'
full range, the correction solve has the *same relative* accuracy η no
matter how small ``r`` has become — so the residual contracts
geometrically (‖rᵏ⁺¹‖ ≲ η·κ·‖rᵏ‖) all the way down to float64 rounding,
as long as η·κ < 1.  The same argument bounds what a correction solve
is worth: a step contracts the residual by about the analog accuracy
however precisely the correction is solved, so an iterative correction
(the blocked grid's sweeps) stops at the floor the base solve measured —
as soon as its contracting updates predict it — rather than sweeping
toward a tolerance the floor never reaches.  On the 256×256 4×4-grid
benchmark that takes the refined solve from 76 sweeps to 25 (2 per
correction) at the same 9 steps.  When η·κ ≥ 1 (a near-singular
operand) the residual grows instead; the loop detects that and raises
a structured :class:`~repro.core.errors.ConvergenceError` carrying the
per-step residual trace.

The loop is **column-masked**: with a matrix right-hand side, columns
that have already reached their target drop out of subsequent correction
solves, so a mixed-``rtol`` batch (the serve layer coalesces requests
with different accuracy targets into one analog step) only pays
refinement for the columns that still need it.  Residuals are evaluated
through :func:`repro.analog.determinism.apply_matrix_per_column` (one
fixed reduction order per column, whatever the batch width), so under
the column-independent engine mode the refined answer of a column is
bitwise independent of which sibling columns shared its batch —
coalescing stays bit-transparent through refinement.

This module is deliberately engine-agnostic: it sees the float64 matrix,
the analog first guess, and a ``resolve(residual_columns)`` callable.
:meth:`AnalogOperator.solve` and :meth:`TiledOperator.solve` own the
wiring (and the dispatch accounting that makes the analog/digital work
split observable in :class:`~repro.system.stats.ChipStats`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analog.determinism import apply_matrix_per_column
from repro.core.errors import ConvergenceError, ShapeError
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.results import SolveResult

DEFAULT_MAX_STEPS = 25
"""Default refinement-step budget.  With a healthy contraction of
η ≈ 4e-2 per step, 25 steps cover > 30 orders of magnitude — the budget
exists to bound near-stagnant loops, not to be reached."""

DIVERGENCE_RATIO = 4.0
"""A column whose residual grows past ``DIVERGENCE_RATIO ×`` its best
seen value (while still above target) is declared divergent: with
η·κ < 1 the residual must contract monotonically up to noise, so
sustained growth means the operand is too ill-conditioned for the
analog accuracy available."""


@dataclass
class RefineReport:
    """What the refinement loop did to one (batched) solve."""

    steps: int
    """Correction steps actually applied (0: the analog answer already
    met every column's target)."""

    residual: float
    """Worst per-column relative residual ``‖b_j − A·x_j‖/‖b_j‖`` at exit,
    taken over the columns with *finite* targets (columns that opted out
    with ``rtol=inf`` sit at the analog floor by design and are excluded;
    see ``per_column_residual`` for every column's value)."""

    per_column_residual: np.ndarray
    """Final relative residual of every column, shape ``(k,)``."""

    per_column_converged: np.ndarray
    """Whether each column reached its ``rtol``, shape ``(k,)`` bool."""

    residual_trace: tuple[float, ...]
    """Worst-column relative residual after each step, starting with the
    raw analog answer (index 0) — the accuracy-vs-steps curve."""

    correction_solves: int
    """Batched analog correction solves issued (≤ ``steps``; a step is
    one batched re-solve over the still-unconverged columns)."""

    @property
    def converged(self) -> bool:
        return bool(self.per_column_converged.all())


def as_rtol_vector(rtol, columns: int) -> np.ndarray:
    """Validate and broadcast an ``rtol`` request to one target per column.

    ``rtol`` may be a positive scalar or a ``(columns,)`` array; ``inf``
    entries are legal and mean "this column rides the shared analog step
    but wants no refinement" — that is how the serve layer coalesces
    mixed-accuracy requests into one batch.
    """
    vector = np.asarray(rtol, dtype=float)
    if vector.ndim == 0:
        vector = np.full(columns, float(vector))
    if vector.shape != (columns,):
        raise ShapeError(
            f"rtol must be a scalar or a ({columns},) per-column vector; "
            f"got shape {vector.shape}"
        )
    if np.any(np.isnan(vector)) or np.any(vector <= 0.0):
        raise ValueError("rtol targets must be positive (inf = no refinement)")
    return vector


WORST_COLUMNS_REPORTED = 4
"""How many offending columns a failed contract names (enough to spot a
pattern — one tenant, one tile — without dumping the whole batch)."""


def worst_columns_of(
    residuals: np.ndarray,
    mask: np.ndarray,
    k: int = WORST_COLUMNS_REPORTED,
) -> tuple[int, ...]:
    """The ``k`` worst offending column indices, highest residual first.

    ``mask`` selects the columns eligible to be blamed (diverging, or
    still unconverged); non-finite residuals sort as worst of all.
    """
    candidates = np.flatnonzero(np.asarray(mask, dtype=bool))
    if candidates.size == 0:
        return ()
    values = np.asarray(residuals, dtype=float)[candidates]
    order = np.argsort(np.where(np.isfinite(values), -values, -np.inf))
    return tuple(int(c) for c in candidates[order[:k]])


def _column_norms(block: np.ndarray) -> np.ndarray:
    """Per-column 2-norms with a batch-width-independent reduction order.

    ``np.linalg.norm(block, axis=0)`` reduces along strided views whose
    blocking can depend on the batch width; norming each column as its
    own contiguous vector pins one summation order, so the convergence
    decisions (and hence the correction schedule) of a column never
    depend on which siblings share its batch."""
    return np.array(
        [
            float(np.linalg.norm(np.ascontiguousarray(block[:, j])))
            for j in range(block.shape[1])
        ]
    )


def refine_solution(
    matrix: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    resolve: Callable[[np.ndarray], np.ndarray],
    rtol: np.ndarray,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    divergence_ratio: float = DIVERGENCE_RATIO,
) -> tuple[np.ndarray, RefineReport]:
    """Refine ``x0`` until every column's relative residual meets ``rtol``.

    Parameters
    ----------
    matrix:
        The *original* float64 operand (not its quantized image) — the
        residual must be measured against what the user asked to solve.
    b, x0:
        Right-hand side and the analog first guess, both ``(n, k)``.
    resolve:
        ``resolve(r)`` → approximate ``A⁻¹·r`` for an ``(n, j)`` residual
        block (``j`` ≤ ``k``: converged columns are masked out).  This is
        the analog re-solve on the resident operator; it must not
        reprogram anything.
    rtol:
        Per-column targets from :func:`as_rtol_vector`.

    Returns the refined solution and a :class:`RefineReport`.  Raises
    :class:`~repro.core.errors.ConvergenceError` (with ``steps`` and
    ``residual_trace`` attached) if any still-unconverged column's
    residual grows past ``divergence_ratio ×`` its best seen value or
    stops being finite — the near-singular/η·κ ≥ 1 regime where analog
    refinement cannot deliver the requested accuracy.
    """
    x = np.array(x0, dtype=float)
    b = np.asarray(b, dtype=float)
    columns = b.shape[1]

    b_norms = np.linalg.norm(b, axis=0)
    # An all-zero column's solution is exactly zero; judge it absolutely.
    denominators = np.where(b_norms == 0.0, 1.0, b_norms)

    # ``inf`` targets ("ride the batch, no refinement") are excluded from
    # the scalar aggregates: the reported residual / trace describe the
    # columns that actually contracted for accuracy, not the analog-floor
    # residual of columns that opted out.
    tracked = np.isfinite(rtol)
    if not tracked.any():
        tracked = np.ones(columns, dtype=bool)

    def worst(values: np.ndarray) -> float:
        return float(np.max(values[tracked])) if columns else 0.0

    residual = b - apply_matrix_per_column(matrix, x)
    res = _column_norms(residual) / denominators
    converged = res <= rtol
    best = res.copy()
    trace = [worst(res)]
    steps = 0
    correction_solves = 0

    while steps < max_steps and not converged.all():
        active = ~converged
        with obs_trace.span(
            "refine_step", step=steps + 1, active=int(active.sum())
        ) as sp:
            correction = resolve(residual[:, active])
            x[:, active] += correction
            steps += 1
            correction_solves += 1
            residual[:, active] = b[:, active] - apply_matrix_per_column(
                matrix, x[:, active]
            )
            res = res.copy()
            res[active] = (
                _column_norms(residual[:, active]) / denominators[active]
            )
            trace.append(worst(res))
            sp.set(residual=worst(res))
            converged = converged | (res <= rtol)
            grew = active & ~converged & (
                ~np.isfinite(res) | (res > divergence_ratio * best)
            )
            if np.any(grew):
                offender = int(np.argmax(np.where(grew, res, -np.inf)))
                raise ConvergenceError(
                    f"iterative refinement diverged after {steps} step(s): "
                    f"column {offender} residual {res[offender]:.3e} grew past "
                    f"{divergence_ratio}x its best {best[offender]:.3e} — the "
                    "operand is too ill-conditioned (eta*kappa >= 1) for the "
                    "analog accuracy available",
                    steps=steps,
                    residual_trace=trace,
                    worst_columns=worst_columns_of(res, grew),
                )
            np.minimum(best, np.where(np.isfinite(res), res, np.inf), out=best)

    report = RefineReport(
        steps=steps,
        residual=worst(res),
        per_column_residual=res,
        per_column_converged=converged,
        residual_trace=tuple(trace),
        correction_solves=correction_solves,
    )
    return x, report


class _CorrectionFold:
    """Folds each correction solve's scalar diagnostics into running totals.

    The refinement loop wants a plain ``residual → correction array``
    callable; the operator layers produce full result objects.  This
    adapter bridges the two while keeping ``attempts`` / ``stable`` /
    ``saturated`` honest across the whole refined solve.
    """

    def __init__(self, solve_correction: Callable[[np.ndarray], "object"]):
        self._solve = solve_correction
        self.attempts = 0
        self.stable = True
        self.saturated = False
        self.columns_resolved = 0
        """Total residual columns re-solved across all steps — the digital
        residual recomputes scale with this, so it sizes the refinement
        MAC charge."""

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        self.columns_resolved += residual.shape[1]
        inner = self._solve(residual)
        self.attempts += inner.attempts
        self.stable &= inner.stable
        self.saturated |= inner.saturated
        return inner.value


def refine_solve_result(
    base: "SolveResult",
    *,
    matrix: np.ndarray,
    b: np.ndarray,
    rtol,
    max_steps: int,
    solve_correction: Callable[[np.ndarray], "object"],
    solver,
) -> "SolveResult":
    """Run refinement on top of a base analog :class:`SolveResult`.

    ``solve_correction(r)`` must return an object with ``value`` /
    ``attempts`` / ``stable`` / ``saturated`` (a :class:`SolveResult`
    or duck-equivalent) for an ``(n, j)`` residual block, solved on the
    resident operator.  The returned result carries the refined value,
    the aggregated scalar diagnostics, and the refinement metadata;
    ``solver`` is charged the step/dispatch accounting (the analog/
    digital work split in :class:`~repro.system.stats.ChipStats`).
    """
    vector = b.ndim == 1
    big_b = b[:, None] if vector else b
    columns = big_b.shape[1]
    if columns == 0:
        return replace(
            base,
            refine_steps=0,
            refined_residual=0.0,
            per_column_converged=np.zeros(0, dtype=bool),
            refine_residual_trace=(0.0,),
            per_column_residual=np.zeros(0),
        )
    targets = as_rtol_vector(rtol, columns)
    x0 = base.value[:, None] if vector else base.value
    fold = _CorrectionFold(solve_correction)
    dispatches_before = solver.engine_dispatches
    n_rows, n_cols = matrix.shape

    def digital_macs() -> int:
        # One full-width residual up front plus one recompute per re-solved
        # column block — the float64 A·x work the host actually performed.
        return n_rows * n_cols * (columns + fold.columns_resolved)

    try:
        refined, report = refine_solution(
            matrix, big_b, x0, fold, targets, max_steps=max_steps
        )
    except ConvergenceError as error:
        solver._record_refinement(
            error.steps or 0,
            solver.engine_dispatches - dispatches_before,
            macs=digital_macs(),
        )
        raise
    solver._record_refinement(
        report.steps,
        solver.engine_dispatches - dispatches_before,
        macs=digital_macs(),
    )
    return replace(
        base,
        value=refined[:, 0] if vector else refined,
        attempts=base.attempts + fold.attempts,
        stable=base.stable and fold.stable,
        saturated=base.saturated or fold.saturated,
        refine_steps=report.steps,
        refined_residual=report.residual,
        per_column_converged=report.per_column_converged,
        refine_residual_trace=report.residual_trace,
        per_column_residual=report.per_column_residual,
        # A budget-exhausted result names its offenders, like the
        # divergence error does — "which columns" is the first question
        # any operator asks of an unmet contract.
        worst_columns=(
            None
            if report.converged
            else worst_columns_of(
                report.per_column_residual, ~report.per_column_converged
            )
        ),
    )
