"""Per-solve cost capture: what one solve spent, by physical category.

:class:`ChipStats` accumulates *chip-lifetime* totals; this module
captures the **delta attributable to one solve** so
:func:`repro.obs.report.solve_breakdown` can answer "where did *this*
solve spend its time and energy" — the question every perf PR must
answer before claiming a speedup.

The model (constants in :mod:`repro.system.stats`, figures from the
AMC/IMC literature):

* **analog settling** — Σ settling time over analog tile solves;
  energy is the amp-seconds integral × ``POWER_OPAMP``;
* **conversion** — DAC/ADC conversions at every analog tile boundary
  (mixed-signal; counted per column element per ranging attempt);
* **digital engine** — multiply-accumulates executed by the digital
  engine's batched kernels (the grid engine's stacked MVM/INV stages and
  the per-tile fallback), at ``DIGITAL_MACS_PER_CYCLE`` per cycle;
* **refinement** — float64 residual/correction MACs of the iterative
  refinement loop (a subset of digital work, attributed separately
  because the ``rtol`` contract buys accuracy with exactly these);
* **programming** — write pulses (only non-zero when a solve triggered
  (re)programming);
* **queue wait** — serve-layer time between admission and dispatch
  (zero energy; filled in by the serve layer).

Capture is **always on** (a handful of float adds per dispatch — no
measurable overhead) and independent of whether a ``ChipStats`` is
attached, so ``result.cost`` is never None-surprising.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

__all__ = ["CostAccumulator", "SolveCost"]


@dataclass
class SolveCost:
    """Additive cost counters for one solve (or one accumulation window)."""

    analog_settling_s: float = 0.0
    """Σ settling time across analog tile solves (serialised model)."""
    amp_seconds: float = 0.0
    """Σ (active amplifiers × settling time) — drives op-amp energy."""
    dac_conversions: int = 0
    adc_conversions: int = 0
    engine_macs: int = 0
    """Multiply-accumulates in the digital engine's kernels (MVM stages,
    batched equilibrium-inverse applies, digital accumulation)."""
    refine_macs: int = 0
    """Float64 MACs spent by iterative-refinement residuals/corrections."""
    engine_dispatches: int = 0
    refine_steps: int = 0
    cells_programmed: int = 0
    write_pulses: int = 0
    queue_wait_s: float = 0.0
    """Serve-layer wait between admission and dispatch (0 outside serve)."""
    host_s: float = 0.0
    """Wall-clock of the host-side solve call (simulator time, not part
    of the modeled hardware latency; kept for calibration)."""

    def __add__(self, other: "SolveCost") -> "SolveCost":
        if not isinstance(other, SolveCost):
            return NotImplemented
        return SolveCost(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(SolveCost)
            }
        )

    def __sub__(self, other: "SolveCost") -> "SolveCost":
        if not isinstance(other, SolveCost):
            return NotImplemented
        return SolveCost(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(SolveCost)
            }
        )

    def copy(self) -> "SolveCost":
        return SolveCost(**self.as_dict())

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(SolveCost)}

    def apportion(self, weights: "Sequence[int]") -> "list[SolveCost]":
        """Shares of this cost proportional to ``weights`` (coalesced-batch
        slicing: one weight per caller, its column count).

        Float fields split proportionally.  Each integer counter is split
        by largest remainder: every share gets the floor of its quota and
        the units left over go to the largest remainders, ties to the
        earlier share — so the shares of every counter sum *exactly* to
        this cost's count.  All-zero ``weights`` get all-zero shares.
        """
        total = sum(weights)
        shares = [SolveCost() for _ in weights]
        if total <= 0:
            return shares
        for f in fields(SolveCost):
            value = getattr(self, f.name)
            if f.type != "int":
                for share, weight in zip(shares, weights):
                    setattr(share, f.name, value * weight / total)
                continue
            counts = [value * weight // total for weight in weights]
            by_remainder = sorted(
                range(len(weights)), key=lambda i: -(value * weights[i] % total)
            )
            for i in by_remainder[: value - sum(counts)]:
                counts[i] += 1
            for share, count in zip(shares, counts):
                setattr(share, f.name, count)
        return shares


class CostAccumulator:
    """The solver's always-on cost ledger.

    One per :class:`~repro.core.solver.GramcSolver`; every dispatch site
    adds into :attr:`total`, and a solve captures its own share with
    ``snapshot()`` before / ``delta(before)`` after.  Thread-safety is
    by construction: the serve layer funnels all chip work through one
    executor thread, matching the rest of the solver's counters.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = SolveCost()

    def snapshot(self) -> SolveCost:
        return self.total.copy()

    def delta(self, before: SolveCost) -> SolveCost:
        return self.total - before

    # -- recording (called from solver/engine hot paths) ---------------------

    def add_analog(self, amplifiers: int, settling_time: "float | None") -> None:
        if settling_time is not None:
            self.total.analog_settling_s += settling_time
            self.total.amp_seconds += amplifiers * settling_time

    def add_conversions(self, dac: int = 0, adc: int = 0) -> None:
        self.total.dac_conversions += dac
        self.total.adc_conversions += adc

    def add_engine_macs(self, macs: int) -> None:
        self.total.engine_macs += macs

    def add_refine(self, steps: int, macs: int) -> None:
        self.total.refine_steps += steps
        self.total.refine_macs += macs

    def add_dispatches(self, count: int = 1) -> None:
        self.total.engine_dispatches += count

    def add_programming(self, cells: int, pulses: int) -> None:
        self.total.cells_programmed += cells
        self.total.write_pulses += pulses
