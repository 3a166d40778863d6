"""Macro pool: allocation of the chip's 16 AMC macros to matrix operands.

The GRAMC chip has a fixed complement of macros (16 in the paper); matrix
operands claim one or more of them (two for a signed paired-array plane
pair, four for a signed PINV).  The pool hands out free macros and evicts
the least-recently-used operand when full — the behaviour a compiler
runtime would implement on the real chip.

Operator handles participate in eviction through two mechanisms:

* an ``on_evict`` callback registered at :meth:`MacroPool.acquire` time,
  fired when the owner loses its macros involuntarily (this is how the
  solver purges its operator cache — evicted entries used to leak);
* :meth:`MacroPool.pin` — pinned owners are skipped by the eviction scan,
  and an allocation that cannot proceed without evicting a pinned owner
  raises :class:`~repro.core.errors.CapacityError` instead of silently
  tearing down an operator the user promised to keep resident.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analog.opamp import OpAmpParams
from repro.converters.adc import ADCParams
from repro.converters.dac import DACParams
from repro.core.errors import CapacityError
from repro.devices.constants import DEFAULT_STACK, DeviceStack
from repro.macro.amc_macro import AMCMacro
from repro.programming.levels import LevelMap


@dataclass
class PoolConfig:
    """Hardware complement of one chip."""

    num_macros: int = 16
    rows: int = 128
    cols: int = 128
    stack: DeviceStack = field(default_factory=lambda: DEFAULT_STACK)
    opamp: OpAmpParams = field(default_factory=OpAmpParams)
    dac: DACParams = field(default_factory=DACParams)
    adc: ADCParams = field(default_factory=ADCParams)
    level_map: LevelMap = field(default_factory=LevelMap)
    wire_resistance: float = 0.0


class MacroPool:
    """LRU-managed set of AMC macros."""

    def __init__(self, config: PoolConfig | None = None, rng: np.random.Generator | None = None):
        self.config = config or PoolConfig()
        rng = rng if rng is not None else np.random.default_rng(2025)
        self.macros = [
            AMCMacro(
                macro_id=i,
                stack=self.config.stack,
                rows=self.config.rows,
                cols=self.config.cols,
                opamp_params=self.config.opamp,
                dac_params=self.config.dac,
                adc_params=self.config.adc,
                level_map=self.config.level_map,
                rng=np.random.default_rng(rng.integers(0, 2**63)),
                wire_resistance=self.config.wire_resistance,
            )
            for i in range(self.config.num_macros)
        ]
        self._free: deque[int] = deque(range(self.config.num_macros))
        self._owners: OrderedDict[str, list[int]] = OrderedDict()
        self._pinned: set[str] = set()
        self._on_evict: dict[str, Callable[[str], None]] = {}
        self._quarantined: set[int] = set()
        self.acquisitions = 0
        self.evictions = 0
        self.eviction_callback_errors = 0
        self.fault_injector = None
        """The chip's :class:`~repro.faults.FaultInjector` when fault
        injection is enabled (``GramcChip(faults=...)``), else ``None`` —
        the pool is the one object every layer already shares."""

    def __len__(self) -> int:
        return len(self.macros)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def utilization(self) -> float:
        """Fraction of the macro complement currently owned [0, 1]."""
        if not self.macros:
            return 0.0
        return 1.0 - len(self._free) / len(self.macros)

    def owner_stats(self) -> dict[str, dict[str, object]]:
        """Per-owner residency snapshot — a public, side-effect-free poll.

        Owners are listed in LRU order (the first entry is the next
        eviction candidate, unless pinned).  This is the API the serve
        layer and tests poll for "who holds the chip" — it never touches
        LRU order and never raises; historically it was only reachable
        inside :class:`CapacityError` payloads.
        """
        return {
            owner: {
                "macros": len(indices),
                "macro_ids": tuple(indices),
                "pinned": owner in self._pinned,
            }
            for owner, indices in self._owners.items()
        }

    def snapshot(self) -> dict[str, object]:
        """One-call public snapshot of the pool's residency and counters.

        Everything a scheduler, dashboard, or test needs to reason about
        capacity without provoking an allocation::

            {
                "total_macros": 16,
                "free_macros": 3,
                "utilization": 0.8125,
                "owners": {owner: {"macros", "macro_ids", "pinned"}, ...},
                "pinned_macros": 8,
                "acquisitions": 41,
                "evictions": 5,
            }

        ``owners`` is :meth:`owner_stats` (LRU order).  Reading the
        snapshot has no side effects — in particular it cannot raise
        :class:`CapacityError`, unlike the allocation paths that used to
        be the only way to see these numbers.
        """
        owners = self.owner_stats()
        pinned_macros = sum(
            int(stats["macros"]) for stats in owners.values() if stats["pinned"]
        )
        return {
            "total_macros": len(self.macros),
            "free_macros": len(self._free),
            "utilization": self.utilization,
            "owners": owners,
            "pinned_macros": pinned_macros,
            "acquisitions": self.acquisitions,
            "evictions": self.evictions,
            "quarantined_macros": tuple(sorted(self._quarantined)),
            "eviction_callback_errors": self.eviction_callback_errors,
        }

    def preempt(self, owner: str) -> bool:
        """Forcibly evict one resident, *unpinned* owner (scheduler hook).

        The fair-share scheduler uses this to reclaim tiles from
        over-quota tenants: unlike LRU eviction (which fires as a side
        effect of someone else's :meth:`acquire`), preemption names its
        victim.  The owner's ``on_evict`` callback fires exactly as for an
        LRU eviction, so operator handles mark themselves stale and
        transparently re-program on next use.

        Returns ``True`` if the owner was evicted, ``False`` if it was not
        resident or is pinned (a pinned owner is a promise the scheduler
        must not break — callers decide whether that is an error).
        """
        if owner not in self._owners or owner in self._pinned:
            return False
        self._evict(owner)
        return True

    def acquire(
        self,
        owner: str,
        count: int,
        on_evict: Callable[[str], None] | None = None,
    ) -> list[AMCMacro]:
        """Claim ``count`` macros for ``owner``, evicting LRU owners if needed.

        ``on_evict`` is invoked with the owner name if the owner later
        loses its macros to another allocation (not on an explicit
        :meth:`release`).  Pinned owners are never chosen as victims; if
        only pinned owners remain, :class:`CapacityError` is raised.
        """
        usable = len(self.macros) - len(self._quarantined)
        if count > usable:
            raise CapacityError(
                f"operand needs {count} macros but the chip only has {usable} "
                f"in service ({len(self._quarantined)} quarantined of "
                f"{len(self.macros)})"
            )
        was_pinned = owner in self._pinned
        if owner in self._owners:
            self._owners.move_to_end(owner)
            if on_evict is not None:
                self._on_evict[owner] = on_evict
            held = self._owners[owner]
            if len(held) == count:
                return [self.macros[i] for i in held]
            self.release(owner)
        while len(self._free) < count:
            victim = next((o for o in self._owners if o not in self._pinned), None)
            if victim is None:
                raise CapacityError(
                    f"cannot allocate {count} macros for {owner!r}: "
                    f"{len(self._free)} free and every resident operator is pinned"
                )
            self._evict(victim)
        taken = [self._free.popleft() for _ in range(count)]
        self._owners[owner] = taken
        if was_pinned:
            # A resize re-acquire goes through release(); keep the pin.
            self._pinned.add(owner)
        if on_evict is not None:
            self._on_evict[owner] = on_evict
        self.acquisitions += 1
        return [self.macros[i] for i in taken]

    def acquire_many(
        self,
        requests: "list[tuple[str, int]]",
        on_evict: Callable[[str], None] | None = None,
    ) -> list[list[AMCMacro]]:
        """Atomically claim macros for several owners — all or nothing.

        A multi-tile operand (a wide MVM, or a blocked solve grid) must
        either get *every* tile resident or none of them: the seed's
        tile-by-tile acquisition could evict the operand's own earlier
        tiles while programming the later ones, or leak a partially built
        grid when a later tile ran out of capacity.  ``acquire_many``
        prevents both:

        * batch members are shielded from eviction while their siblings
          are being acquired (a temporary pin, dropped on return);
        * if any acquisition raises :class:`CapacityError`, everything the
          batch already grabbed is released before the error propagates,
          and the message carries :meth:`owner_stats` so the caller can
          see who holds the pool.

        Owners outside the batch may still be evicted (their ``on_evict``
        callbacks fire as usual) even when the batch ultimately fails —
        eviction is not transactional, only the batch's own claims are.
        Returns one macro list per request, in request order.
        """
        acquired: list[str] = []
        temp_pins: list[str] = []
        grants: list[list[AMCMacro]] = []
        try:
            for owner, count in requests:
                grants.append(self.acquire(owner, count, on_evict=on_evict))
                acquired.append(owner)
                if owner not in self._pinned:
                    self._pinned.add(owner)
                    temp_pins.append(owner)
        except CapacityError as error:
            for owner in temp_pins:
                self._pinned.discard(owner)
            for owner in acquired:
                self.release(owner)
            total = sum(count for _, count in requests)
            raise CapacityError(
                f"atomic acquisition of {total} macros across "
                f"{len(requests)} tiles failed ({error}); current pool "
                f"owners: {self.owner_stats()}"
            ) from error
        for owner in temp_pins:
            self._pinned.discard(owner)
        return grants

    def _evict(self, owner: str) -> None:
        indices = self._owners.pop(owner)
        self._free.extend(i for i in indices if i not in self._quarantined)
        self.evictions += 1
        callback = self._on_evict.pop(owner, None)
        if callback is not None:
            try:
                callback(owner)
            except Exception:
                # A closed-but-still-registered handle's callback must not
                # abort the caller's reclaim loop: the victim's macros are
                # already back on the free list, and swallowing here keeps
                # later victims from leaking.  Counted, never silent-lost.
                self.eviction_callback_errors += 1

    def holds(self, owner: str) -> bool:
        """Whether ``owner``'s macros are still resident (not evicted)."""
        return owner in self._owners

    def owned_by(self, owner: str, callback) -> bool:
        """Whether ``owner`` is resident *and* registered to ``callback``.

        Operator handles use this to tell their own residency apart from a
        later handle's under the same owner name — only the handle whose
        eviction callback is registered may release or unpin the entry.
        """
        return owner in self._owners and self._on_evict.get(owner) == callback

    def touch(self, owner: str) -> None:
        """Mark ``owner`` as most recently used (no-op if not resident).

        Solves through an operator handle call this, so "least recently
        used" means least recently *computed with*, not least recently
        programmed — a hot operator is not evicted mid-stream.
        """
        if owner in self._owners:
            self._owners.move_to_end(owner)

    def pin(self, owner: str) -> None:
        """Exempt ``owner`` from LRU eviction until :meth:`unpin`."""
        if owner not in self._owners:
            raise KeyError(f"cannot pin unknown owner {owner!r}")
        self._pinned.add(owner)

    def unpin(self, owner: str) -> None:
        """Make ``owner`` evictable again (no-op if not pinned)."""
        self._pinned.discard(owner)

    def pinned(self, owner: str) -> bool:
        return owner in self._pinned

    def release(self, owner: str) -> None:
        """Return an owner's macros to the free list (no callback fires).

        The released macros' cached circuits are dropped with them: the
        next owner reprograms the macros, so the caches are dead state.
        """
        indices = self._owners.pop(owner, [])
        for i in indices:
            self.macros[i].drop_resident_circuits()
        self._free.extend(i for i in indices if i not in self._quarantined)
        self._pinned.discard(owner)
        self._on_evict.pop(owner, None)

    def release_all(self) -> None:
        for owner in list(self._owners):
            self.release(owner)

    # -- quarantine ---------------------------------------------------------------

    @property
    def quarantined(self) -> frozenset[int]:
        """Macro ids currently excluded from allocation."""
        return frozenset(self._quarantined)

    def quarantine(self, macro_id: int) -> bool:
        """Mark one macro unhealthy and exclude it from the free list.

        A free macro simply leaves the free deque; an owned macro evicts
        its owner (the ``on_evict`` callback fires, so operator handles
        mark themselves stale and transparently re-home onto healthy
        macros on next use — this is the migration half of self-healing).
        Returns ``False`` if the macro was already quarantined.
        """
        if not 0 <= macro_id < len(self.macros):
            raise KeyError(f"unknown macro id {macro_id}")
        if macro_id in self._quarantined:
            return False
        self._quarantined.add(macro_id)
        if macro_id in self._free:
            self._free.remove(macro_id)
            return True
        for owner, indices in list(self._owners.items()):
            if macro_id in indices:
                # Quarantine overrides pinning: a pinned promise cannot
                # keep an operator on dead silicon.
                self._pinned.discard(owner)
                self._evict(owner)
                break
        return True

    def unquarantine(self, macro_id: int) -> bool:
        """Return a quarantined macro to service (back onto the free list)."""
        if macro_id not in self._quarantined:
            return False
        self._quarantined.discard(macro_id)
        self._free.append(macro_id)
        return True
