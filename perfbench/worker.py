"""One fresh process per run, so its peak memory is its own.

    python3 perfbench/worker.py SPEC.json RESULT.json

Runs the pipeline workloads in-process, and with tracing on, the CLI
workloads too, through ``wordfuse.cli.main(argv)``.  With tracing on, each
input runs twice, untraced and traced, in alternating order and for at
least two inputs: the two outputs must agree byte for byte, and the
difference of the two medians is the tracing overhead.
Checking against the oracle is left to the caller.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer


class Runner:
    def __init__(self, spec: dict):
        self.spec = spec
        self.wl = workloads.WORKLOADS[spec["workload"]]
        self.ctx = workloads.Ctx(Path(spec["work"]), Path(spec["embeddings"]), Path(spec["bundle"]), spec["seed"])
        self.tracer = Tracer() if spec["trace"] else None
        self.failures: list[dict] = []  # {"item": index, "msg": ...}

    def traced(self, unit: str, fn):
        """fn() with spans recorded under unit; returns (wall seconds, result)."""
        self.tracer.unit = unit
        self.tracer.install()
        try:
            return self.timed(fn)
        finally:
            self.tracer.uninstall()

    @staticmethod
    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result

    # -- in-process pipeline -------------------------------------------------
    def setup_pipeline(self) -> list[float]:
        """One set-up repetition; the caller runs the others in their own processes."""
        from wordfuse import lexicon

        def load():
            return lexicon.load_embeddings(self.ctx.embeddings), lexicon.load_bundle(self.ctx.bundle)

        wall, self.model = self.traced("s0", load) if self.tracer else self.timed(load)
        return [wall]

    def pipeline_item(self, i: int):
        from wordfuse import attention, segvote
        from wordfuse.fusion import FusionConfig

        sent, h = self.wl.item_input(self.ctx, i)
        tokenizations = [list(t) for t in sent.tokenizations]
        table, bundle = self.model

        def run():
            seg = segvote.vote(sent.text, tokenizations)
            return seg, attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

        def save(result):
            seg, res = result
            out = self.ctx.work / f"fused{i}.npy"
            np.save(out, res.fused)
            out.with_suffix(".json").write_text(json.dumps([[s.start, s.end] for s in seg.spans]), encoding="utf-8")
            return res.fused.tobytes()

        return run, save

    # -- CLI in-process (traced runs only) -----------------------------------
    def setup_cli(self) -> list[float]:
        from wordfuse import cli

        times = []
        for rep in range(self.wl.setup_reps):
            argv = self.wl.setup_argv(self.ctx, rep)
            wall, code = self.traced(f"s{rep}", lambda: cli.main(argv))
            if code != 0:
                raise RuntimeError(f"set-up {argv[0]} exited {code}")
            times.append(wall)
        return times

    def cli_item(self, i: int):
        from wordfuse import cli

        item = self.wl.item(self.ctx, i)

        def save(code):
            if code != 0:
                raise RuntimeError(f"{item.argv[0]} exited {code}")
            return item.output.read_bytes()

        return lambda: cli.main(item.argv), save

    # -- the loop ------------------------------------------------------------
    def run(self) -> dict:
        in_process = not self.wl.cold
        setup = self.setup_pipeline() if in_process else self.setup_cli()
        if self.spec.get("setup_only"):
            return {"setup_s": setup}
        make = self.pipeline_item if in_process else self.cli_item
        items, traced_walls, untraced_walls = [], {}, []
        spent, i = 0.0, 0
        while spent < self.spec["seconds"] or i < self.spec["min_items"]:
            try:
                run, save = make(i)
                # alternate which goes first: the first call of a pair pays the page faults
                kinds = ["plain"] + (["traced"] if self.tracer else [])
                walls, outputs = {}, {}
                for kind in kinds if i % 2 == 0 else kinds[::-1]:
                    wall, result = self.traced(f"i{i}", run) if kind == "traced" else self.timed(run)
                    walls[kind], outputs[kind] = wall, save(result)
                untraced_walls.append(walls["plain"])
                if self.tracer:
                    traced_walls[f"i{i}"] = walls["traced"]
                    if outputs["traced"] != outputs["plain"]:
                        self.failures.append({"item": i, "msg": "traced and untraced outputs differ"})
                items.append({"index": i, "wall": walls["plain"]})
                spent += sum(walls.values())
            except Exception:  # noqa: BLE001 - a failed item is counted, the run goes on
                self.failures.append({"item": i, "msg": traceback.format_exc(limit=3)})
                spent += 1.0  # so a run whose items all fail at once still ends
            i += 1
        result = {"setup_s": setup, "items": items, "failures": self.failures, "attempted": i}
        if self.tracer:
            from wordfuse.segvote import agreement_stats

            result["per_layer"] = self.tracer.per_layer(agreement_stats)
            result["per_layer"]["trace.overhead_s"] = (
                statistics.median(traced_walls.values()) - statistics.median(untraced_walls)) if items else 0.0
            covered = self.tracer.item_coverage(traced_walls)
            result["self_over_wall"] = max(covered.values(), default=0.0)
            result["uncovered_share"] = {u: round(1.0 - c, 6) for u, c in covered.items()}
            self.tracer.dump(self.spec["trace_out"])
        return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = Runner(spec).run()
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
