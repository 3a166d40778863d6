"""Host fingerprint, calibration kernel and host-speed probe.

Absolute host times are not comparable across machines; the fingerprint
says what produced a number, and the calibration kernel (the diagonal
stage's two shapes of work: a batched matmul against cached per-tile
inverses and a per-slice LAPACK ``getrs`` loop) lets a reader compare
one host with another.  Neither is gated on.

The speed probe is what the host-time metrics are rescaled by.  On a
shared 2-core VM the host's speed drifts by ±25% over seconds to tens of
seconds, for NumPy kernels and pure Python alike, so raw seconds spread
by 15-35% between 30-second runs of unchanged code.  Timing a fixed
kernel right before each op (or around each serve phase, while the chip
thread is idle) and rescaling the op's time to the probe's reference
speed removes most of that drift.  The probe first overwrites a buffer
larger than the core's L2 cache, so it always starts from the same cache
state: what the previous op left behind does not move the divisor.
"""

from __future__ import annotations

import os
import platform
import resource
import time

#: The BLAS thread count the benchmark process runs with.  One thread
#: keeps the 64×64 tile kernels off the second core, where a co-tenant's
#: load would otherwise show up as run-to-run noise.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Calibration shapes: four 64×64 tiles with 32 right-hand sides.
_CAL_SLICES, _CAL_N, _CAL_K, _CAL_REPEATS = 4, 64, 32, 200


#: Typical probe time on the reference host, a 2-core x86_64 VM with 2 MiB
#: of L2 per core.  Rescaled times are host seconds as that host would
#: have measured them.
REFERENCE_PROBE_S = 1.0e-3

#: Bytes the probe overwrites before it is timed: four times the
#: reference host's per-core L2.  Without it the probe starts from
#: whatever the op before left in the caches: in one check an op that
#: ended by writing 64 MB slowed the probe after it by 8%, which would
#: hide part of the op's own slowdown.  With it the same op moved the
#: probe by 0.5%.
FLUSH_BYTES = 8 * 2**20


class SpeedProbe:
    """A fixed ~1 ms kernel timed to sample the host's current speed.

    Its parts mirror the kinds of work the workloads do: batched matmuls
    and an LU factorization at the engine's tile shapes, a small
    eigendecomposition, many small array allocations and a pure-Python
    loop.  A probe of matmuls and Python alone left a 7% run-to-run
    spread on ``reconfig_churn`` where this one leaves 1-2%."""

    def __init__(self) -> None:
        import numpy as np
        from scipy.linalg import lu_factor

        rng = np.random.default_rng(0)
        self._np, self._lu_factor = np, lu_factor
        self._a = rng.standard_normal((_CAL_SLICES, _CAL_N, _CAL_N))
        self._b = rng.standard_normal((_CAL_SLICES, _CAL_N, _CAL_K))
        self._square = self._a[0] + _CAL_N * np.eye(_CAL_N)
        self._small = rng.standard_normal((24, 24))
        self._flush = np.zeros(FLUSH_BYTES // 8)

    def _time_once(self) -> float:
        np = self._np
        start = time.perf_counter()
        for _ in range(10):
            np.matmul(self._a, self._b)
        self._lu_factor(self._square)
        np.linalg.eig(self._small)
        for _ in range(200):
            np.zeros(8)
        total = 0
        for i in range(2000):
            total += i * i
        return time.perf_counter() - start

    def factor(self) -> float:
        """Multiply a host time measured now by this to rescale it to the
        reference host's speed (best of two probe runs after a flush)."""
        self._flush[::8] += 1.0  # one write per 64-byte cache line
        return REFERENCE_PROBE_S / min(self._time_once(), self._time_once())


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before NumPy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def rss_peak_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_library() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        return "unknown"


def calibration_s() -> dict[str, float]:
    """Median seconds of one batched matmul and of one ``getrs`` loop."""
    import numpy as np
    from scipy.linalg import get_lapack_funcs, lu_factor

    rng = np.random.default_rng(0)
    mats = rng.standard_normal((_CAL_SLICES, _CAL_N, _CAL_N)) + _CAL_N * np.eye(_CAL_N)
    rhs = rng.standard_normal((_CAL_SLICES, _CAL_N, _CAL_K))
    inverses = np.linalg.inv(mats)
    factors = [lu_factor(m) for m in mats]
    (getrs,) = get_lapack_funcs(("getrs",), (mats[0], rhs[0]))

    def matmul() -> None:
        np.matmul(inverses, rhs)

    def getrs_loop() -> None:
        for (lu, piv), b in zip(factors, rhs):
            getrs(lu, piv, b)

    out = {}
    for name, kernel in (("batched_matmul", matmul), ("getrs_loop", getrs_loop)):
        samples = []
        for _ in range(_CAL_REPEATS):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        out[f"calibration.{name}_s"] = sorted(samples)[len(samples) // 2]
    return out


def fingerprint() -> dict[str, object]:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        **calibration_s(),
    }
