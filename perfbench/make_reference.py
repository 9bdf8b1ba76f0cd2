"""Rewrite reference.json: output digests of the first items for the default seed.

    python3 perfbench/make_reference.py

Run from the checkout root, only when the program's output bytes are meant
to change; every output is still checked against the oracle first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
from spawner import Spawner

ITEMS = {"cli-cold-128": 4, "pipeline-long-512": 3, "pipeline-short-zipf": 64, "vote-corpus": 3}


def main() -> int:
    run.cap_threads()
    spawner = Spawner()
    try:
        import bench

        co = bench.Checkout(Path.cwd(), spawner)
        out = {}
        for name, count in ITEMS.items():
            res = bench.run_workload(co, name, bench.DEFAULT_SEED, 0.0, False, {}, min_items=count)
            if res["failures"]:
                print(f"{name}: {res['failures']}", file=sys.stderr)
                return 1
            out[name] = res["digests"]
            out["golden"] = res["anchor"]["sha256"]
            print(f"{name}: {len(res['digests'])} digests", file=sys.stderr)
    finally:
        spawner.close()
    bench.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
