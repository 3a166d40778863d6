"""Pluggable compute backends for the vectorized grid engine.

The grid engine (:mod:`repro.core.grid_engine`) reduces a block-Jacobi /
Gauss-Seidel sweep to a handful of batched array kernels over 3-D tile
stacks.  Those kernels are the only numerically heavy operations in the
sweep, so they are routed through a tiny :class:`Backend` protocol: the
NumPy implementation below is the default, and a GPU or native extension
can later register an alternative without touching solver code — the
same shape aihwkit uses to target CPU and CUDA from one ``AnalogMatrix``
API.

Selection order:

1. an explicit instance or name passed to ``GramcChip(backend=...)`` /
   ``GramcSolver(backend=...)``;
2. the ``REPRO_BACKEND`` environment variable;
3. the ``"numpy"`` default.

Unknown names raise :class:`~repro.core.errors.BackendError` carrying
the requested name and the registered alternatives, so misconfiguration
fails loudly at chip construction rather than silently falling back.
"""

from __future__ import annotations

import os
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.core.errors import BackendError

REPRO_BACKEND_ENV = "REPRO_BACKEND"
"""Environment variable consulted when no explicit backend is given."""


@runtime_checkable
class Backend(Protocol):
    """Batched array kernels the grid engine dispatches per sweep stage."""

    name: str

    def stack(
        self, blocks: Sequence[np.ndarray], rows: int, cols: int
    ) -> np.ndarray:
        """Zero-pad 2-D ``blocks`` into one contiguous ``(T, rows, cols)``."""

    def batched_matmul(
        self, a: np.ndarray, x: np.ndarray, column_independent: bool = False
    ) -> np.ndarray:
        """``(T,m,n) @ (T,n,k)`` → ``(T,m,k)``.

        When ``column_independent`` is set the contraction must follow
        the deterministic-engine contract of
        :func:`repro.analog.determinism.apply_matrix`: an einsum over
        C-contiguous operands whose per-column results do not depend on
        how many columns ride in the batch.
        """

    def scatter_columns(
        self,
        out: np.ndarray,
        row_slices: Sequence[slice],
        blocks: Sequence[np.ndarray],
    ) -> None:
        """Write solved blocks back into ``out`` at their row spans."""


class NumpyBackend:
    """Default backend: NumPy einsum/matmul kernels."""

    name = "numpy"

    def stack(
        self, blocks: Sequence[np.ndarray], rows: int, cols: int
    ) -> np.ndarray:
        out = np.zeros((len(blocks), rows, cols))
        for t, block in enumerate(blocks):
            out[t, : block.shape[0], : block.shape[1]] = block
        return out

    def batched_matmul(
        self, a: np.ndarray, x: np.ndarray, column_independent: bool = False
    ) -> np.ndarray:
        if column_independent:
            # The stacked twin of determinism.apply_matrix: per-column
            # results are bitwise independent of batch width, and bitwise
            # equal to the 2-D einsum on each (zero-padded) slice.
            return np.einsum(
                "tij,tjk->tik",
                np.ascontiguousarray(a),
                np.ascontiguousarray(x),
            )
        return a @ x

    def batched_lu_solve(
        self, lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(T,n,n)`` stacked LU factors against ``(T,n,k)`` RHS.

        Not part of :class:`Backend`: no engine stage calls it since the
        diagonal stage applies cached equilibrium inverses.  It stays
        until ``perfbench``'s traced run stops wrapping it by name.
        """
        # SciPy's stacked ``lu_solve`` is a per-slice Python loop behind a
        # batch-dispatch wrapper; calling ``getrs`` directly runs the same
        # LAPACK routine per slice — identical bits — without the wrapper
        # and finite-check overhead on the sweep hot path.
        getrs, = get_lapack_funcs(("getrs",), (lu, rhs))
        out = np.empty_like(rhs)
        for t in range(rhs.shape[0]):
            x, info = getrs(lu[t], piv[t], rhs[t])
            if info != 0:  # pragma: no cover - requires a corrupt factor
                raise ValueError(f"illegal value in argument {-info} of getrs")
            out[t] = x
        return out

    def scatter_columns(
        self,
        out: np.ndarray,
        row_slices: Sequence[slice],
        blocks: Sequence[np.ndarray],
    ) -> None:
        for rows, block in zip(row_slices, blocks):
            out[rows] = block


_REGISTRY: dict[str, Callable[[], Backend]] = {"numpy": NumpyBackend}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (later GPU/native plugs)."""
    _REGISTRY[name.strip().lower()] = factory


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str | None = None) -> Backend:
    """Resolve a backend by name, env var, or default.

    Raises :class:`BackendError` (with ``requested`` / ``available``
    attributes) for names that are not registered.
    """
    requested = name if name is not None else os.environ.get(REPRO_BACKEND_ENV)
    if not requested:
        requested = "numpy"
    normalized = requested.strip().lower()
    factory = _REGISTRY.get(normalized)
    if factory is None:
        raise BackendError(
            f"unknown compute backend {requested!r}; available backends: "
            f"{', '.join(available_backends())} (pass GramcChip(backend=...) "
            f"or set {REPRO_BACKEND_ENV} to one of these)",
            requested=requested,
            available=available_backends(),
        )
    return factory()


def resolve_backend(spec: "Backend | str | None" = None) -> Backend:
    """Accept a Backend instance, a name, or ``None`` (env var/default)."""
    if spec is None or isinstance(spec, str):
        return get_backend(spec)
    return spec
