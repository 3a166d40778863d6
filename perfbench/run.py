"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve_refined --seed 1 --seconds 10 --trace 0

Prints the host fingerprint, every metric by name with its unit, the
simulated-statistics digest and the failure count, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports the per-layer ones.  Exits 1 when any output
check missed, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("solve_refined", "serve_mixed", "reconfig_churn")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The script's own directory leads sys.path; its module names (stats,
    # host, ...) must not shadow top-level imports of the program.
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != here
    ]
    from perfbench import host

    host.pin_blas_threads()  # before NumPy's first import below
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]  # no fault plan, tracer or backend from outside

    from perfbench import metrics
    from perfbench.stats import median
    from perfbench.workloads import run_workload

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + json.dumps(host.fingerprint(), sort_keys=True))
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        values, units = metrics.per_layer(run), metrics.PER_LAYER
    else:
        values, units = metrics.end_to_end(run), metrics.END_TO_END
    for name, value in values.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    tail = metrics.tail_latency(run)
    print(f"  op_s over {len(run.op_s)} untraced ops: "
          + (f"p{tail[0]:g} {tail[1]:.6g} s" if tail else "no percentile has 10 samples beyond")
          + f"; {len(run.op_s) + len(run.traced_op_s)} ops in all")
    print(f"  op_s p50 as the clock read it {median(run.raw_op_s):.6g} s "
          f"(metrics are rescaled to the speed probe's reference host)")
    print(f"  rss peak taken after {run.rss_at} ops (set-up included)")
    outcomes = run.outcomes
    print(f"  failed_frac {outcomes.failed_frac:.6g} ({outcomes.failed}/{outcomes.attempted})")
    print(f"  digest {run.digest()}  (chip_s, chip_J, refine steps, sweeps, dispatches, "
          f"eig calls per op)")
    correct = outcomes.failed == 0 and not run.run_misses
    for reason, count in sorted(outcomes.reasons.items()):
        print(f"perfbench: {count} op(s) failed: {reason}", file=sys.stderr)
    for miss in run.run_misses:
        print(f"perfbench: {miss}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
