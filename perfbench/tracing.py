"""Outside-in layer tracing: spans around calls into each layer's functions.

The traced run patches the public functions named in
``workloads.LAYER_FUNCTIONS`` with timing wrappers for the length of a
traced phase and restores them afterwards; no file of the program changes.
The program's own tracer (``repro.obs.trace``) is deliberately not used:
the benchmark must measure the program, not depend on its
instrumentation, so a later change to that tracer cannot move these
numbers.

Parents are tracked through a :class:`contextvars.ContextVar`, so nesting
follows the caller: calls on one thread nest, each asyncio task sees its
own stack, and work handed to an executor thread starts a root of its own
(``run_in_executor`` does not carry the context across).  A layer's self
time is its duration minus the part of its interval that its children
cover (:func:`perfbench.stats.covered`).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from perfbench.stats import covered, uncovered_fraction

#: Name of the spans the harness opens around each measured operation.
OP = "op"

class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`install` wraps layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> tuple[Span, contextvars.Token]:
        span = Span(name, self._current.get(), time.perf_counter())
        return span, self._current.set(span)

    def end(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)  # list.append is atomic across threads

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span, token = self.begin(name)
        try:
            yield span
        finally:
            self.end(span, token)

    def wrap(
        self, fn: Callable, name: str, observe: Callable[[object], None] | None = None
    ) -> Callable:
        """``fn`` timed as a span named ``name``; ``observe(result)`` runs
        after the span closes, so its cost is nobody's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, token)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(
        self,
        targets: Iterable[tuple[str, str, str]],
        observers: "dict[str, Callable[[object], None]] | None" = None,
    ) -> None:
        """Wrap each ``(layer_name, module, "Class.attr" | "attr")`` target."""
        observers = observers or {}
        try:
            for name, module_name, path in targets:
                owner: object = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                # A class's own __dict__ holds the plain function (getattr
                # on a class would do too, but not for static methods).
                original = (
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
                setattr(owner, attr, self.wrap(original, name, observers.get(name)))
                self._patches.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    @contextmanager
    def installed(self, targets, observers=None) -> Iterator["Tracer"]:
        """:meth:`install` for the length of a ``with`` block."""
        self.install(targets, observers)
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id(span)``): its duration minus the
    union of its direct children's intervals clipped to its own."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): span.duration - covered(children[id(span)], span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "self_s", "total_s"}}`` over every non-op span."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for span in spans:
        if span.name == OP:
            continue
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[id(span)]
        entry["total_s"] += span.duration
    return dict(totals)


def unattributed_frac(spans: Iterable[Span]) -> float:
    """Share of measured op time during which no wrapped layer ran, on
    any thread."""
    spans = list(spans)
    ops = [(s.start, s.end) for s in spans if s.name == OP]
    layers = [(s.start, s.end) for s in spans if s.name != OP]
    return uncovered_fraction(ops, layers)
