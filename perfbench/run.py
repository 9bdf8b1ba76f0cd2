"""The wordfuse benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a wordfuse checkout; it needs ``src/wordfuse`` and
``tests/golden`` there and nothing installed.  Workloads: cli-cold-128,
pipeline-long-512, pipeline-short-zipf, vote-corpus (see workloads.py and
README.md).  One caller runs a closed loop: the next item starts when the
previous one ended, until the items' time reaches S seconds and at least
three items ran.  Every item's output is checked against an independent
oracle, and, for the default seed, against the digests in reference.json;
each run also fuses the golden inputs of tests/golden.

The last line of standard output is the result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  The line before it holds the
run's details (machine, input properties, tail latency, the golden check).
Files go to .perfbench/ in the checkout; the run's own scratch directory is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from spawner import Spawner

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> None:
    """Cap every BLAS/OpenMP thread variable at nproc, here and in every child."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = int(os.environ.get(var) or nproc)
        except ValueError:
            cap = nproc
        os.environ[var] = str(max(1, min(cap, nproc)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wordfuse" / "cli.py").is_file() or not (root / "tests" / "golden").is_dir():
        print("error: run from the root of a wordfuse checkout (needs src/wordfuse and tests/golden)",
              file=sys.stderr)
        return 2
    cap_threads()
    spawner = Spawner()  # before NumPy loads; see spawner.py
    try:
        import bench
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
                  file=sys.stderr)
            return 2
        lines = bench.report(root, spawner, args.workload, args.seed, args.seconds, bool(args.trace), THREAD_VARS)
    finally:
        spawner.close()
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
