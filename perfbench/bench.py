"""One benchmark run: set-up, the item loop, checks and metrics.

Imported by run.py once the spawner is up; see run.py for the command.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import inputs
import machine
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
STARTUP_REPS = 3
MIN_ITEMS = 3  # items per run at least, so the medians can pass over one slow item
GOLDEN_ATOL = 1e-12  # the tolerance tests/test_acceptance.py holds the golden to
REFERENCE = HERE / "reference.json"
CLI = [sys.executable, "-m", "wordfuse.cli"]


class Checkout:
    def __init__(self, root: Path, spawner):
        self.src = root / "src"
        self.golden = root / "tests" / "golden"
        self.state = root / ".perfbench"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.spawner = spawner

    def child(self, argv: list[str], log: Path, command=CLI) -> tuple[float, int, float]:
        """Run ``wordfuse argv`` cold; returns wall s, exit code, peak RSS MB."""
        return self.spawner.run(command + argv, self.env, log)


def cold_run(co: Checkout, wl, ctx, seconds: float, min_items: int) -> dict:
    setup, items, failures = [], [], []
    for rep in range(wl.setup_reps):
        wall, code, _ = co.child(wl.setup_argv(ctx, rep), ctx.work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up exited {code}: {(ctx.work / 'setup.log').read_text(errors='replace')}")
        setup.append(wall)
    spent, i, rss = 0.0, 0, 0.0
    while spent < seconds or i < min_items:
        item = wl.item(ctx, i)
        wall, code, peak = co.child(item.argv, ctx.work / "item.log")
        spent += wall
        rss = max(rss, peak)
        if code == 0:
            items.append({"index": i, "wall": wall, "item": item})
        else:
            log = (ctx.work / "item.log").read_text(errors="replace")[-500:]
            failures.append({"item": i, "msg": f"exit {code}: {log}"})
        i += 1
    return {"setup_s": setup, "items": items, "failures": failures, "attempted": i, "peak_rss_mb": rss}


def worker_run(co: Checkout, wl, ctx, seconds: float, trace: bool, min_items: int) -> dict:
    traces = co.state / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spec = {"workload": wl.name, "seed": ctx.seed, "seconds": seconds, "trace": trace, "min_items": min_items,
            "work": str(ctx.work), "embeddings": str(ctx.embeddings), "bundle": str(ctx.bundle),
            "trace_out": str(traces / f"{wl.name}-seed{ctx.seed}.jsonl")}
    spec_path, result_path = ctx.work / "spec.json", ctx.work / "result.json"
    env = dict(co.env, PYTHONPATH=os.pathsep.join([str(HERE), str(co.src)]))
    log = ctx.work / "worker.log"

    def spawn(spec: dict) -> dict:
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)]
        _, code, rss = co.spawner.run(argv, env, log)
        if code != 0:
            raise RuntimeError(f"worker exited {code}: {log.read_text(errors='replace')[-2000:]}")
        return dict(json.loads(result_path.read_text(encoding="utf-8")), peak_rss_mb=rss)

    setup = []
    if not wl.cold:
        # a process that loaded the model twice would report a heap-dependent
        # peak, so the extra set-up repetitions run in processes of their own
        for _ in range(wl.setup_reps - 1):
            setup += spawn(dict(spec, setup_only=True))["setup_s"]
    result = spawn(spec)
    result["setup_s"] = setup + result["setup_s"]
    return result


def golden_anchor(co: Checkout, work: Path, expected_digest: str | None) -> dict:
    """Cold vote + fuse on tests/golden; the golden files are only read."""
    g = co.golden
    seg, out = work / "golden_seg.jsonl", work / "golden_fused.txt"
    codes = [
        co.child(["vote", "--input", str(g / "vote_record.jsonl"), "--output", str(seg)], work / "golden.log")[1],
        co.child(["fuse", "--embeddings", str(g / "toy_embeddings.txt"), "--weights", str(g / "bundle_seed42.json"),
                  "--hidden", str(g / "hidden_6x8.txt"), "--segmentation", str(seg), "--output", str(out)],
                 work / "golden.log")[1],
    ]
    if any(codes) or not out.exists():
        return {"ok": False, "error": f"exit codes {codes}"}
    data = out.read_bytes()
    expected = (g / "expected_fused.txt").read_bytes()
    got, want = oracle.parse_matrix(data.decode("utf-8")), oracle.parse_matrix(expected.decode("utf-8"))
    max_diff = float(np.abs(got - want).max()) if got.shape == want.shape else float("inf")
    digest = workloads.sha256(data)
    same = expected_digest is None or digest == expected_digest
    return {
        "ok": max_diff <= GOLDEN_ATOL and same,
        "sha256": digest,
        "matches_reference_digest": same,
        "max_abs_diff_vs_expected_fused": max_diff,
        "byte_identical_to_expected_fused": data == expected,
    }


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    k = len(walls) - 10
    if k < 1:
        return None
    return {"percentile": round(100.0 * k / len(walls), 1), "value_s": sorted(walls)[k - 1], "samples": len(walls)}


def run_workload(co: Checkout, name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 min_items: int = MIN_ITEMS) -> dict:
    """One run; checks outputs against the oracle and, for DEFAULT_SEED, the reference digests."""
    wl = workloads.WORKLOADS[name]
    emb, bundle = inputs.ensure_model(co.state / "cache", co.src, co.env)
    work = co.state / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Ctx(work, emb, bundle, seed)
    try:
        if wl.cold and not trace:
            res = cold_run(co, wl, ctx, seconds, min_items)
        else:
            res = worker_run(co, wl, ctx, seconds, trace, min_items)
        model = workloads.Model()
        expected = reference.get(name, []) if seed == DEFAULT_SEED else []
        digests, sentences = [], []
        for rec in res["items"]:
            item = rec.pop("item", None) or wl.item(ctx, rec["index"])
            sentences += item.sentences
            rec["chars"] = item.chars
            digest, problem = wl.check(ctx, item, model)
            if problem is None and item.index < len(expected) and digest != expected[item.index]:
                problem = "output digest differs from reference.json"
            if problem:
                res["failures"].append({"item": item.index, "msg": problem})
            digests.append(digest)
        anchor = golden_anchor(co, work, reference.get("golden"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res.update(digests=digests, anchor=anchor, inputs=inputs.properties(sentences) if sentences else {})
    if not anchor["ok"]:
        res["failures"].append({"item": "golden", "msg": f"golden anchor: {anchor}"})
    return res


def report(root: Path, spawner, workload: str, seed: int, seconds: float, trace: bool, thread_vars) -> list[dict]:
    """The detail line and the result line of one run."""
    co = Checkout(root, spawner)
    record = machine.record(thread_vars)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    res = run_workload(co, workload, seed, seconds, trace, reference)
    walls = [r["wall"] for r in res["items"]]
    attempted = res["attempted"] + 1  # the golden anchor counts as one more item
    if trace:
        startup = [co.child(["-c", "import wordfuse.cli"], co.state / "startup.log", [sys.executable])[0]
                   for _ in range(STARTUP_REPS)]
        per_layer = dict(res["per_layer"], **{"cli.startup_s": statistics.median(startup)})
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in tracing.METRICS.items()}
        if res["self_over_wall"] > 1.0:  # not an item: clears `correct` without counting as a failed item
            res["failures"].append({"item": None,
                                    "msg": f"layer self times exceed item wall time ({res['self_over_wall']:.4f})"})
    else:
        # medians over items, so one item slowed by a neighbour on the host moves neither figure
        rates = [r["chars"] / r["wall"] for r in res["items"]]
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "item_p50_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "chars_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "chars/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed = len({f["item"] for f in res["failures"] if f["item"] is not None})
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": record, "inputs": res["inputs"], "input_assumptions": inputs.ASSUMED,
        "setup_s": res["setup_s"], "item_walls_s": walls,
        "item_tail_s": tail(walls), "items_attempted": attempted, "items_failed": failed,
        "golden_anchor": res["anchor"], "failures": res["failures"][:20],
        "self_over_wall": res.get("self_over_wall"), "uncovered_share": res.get("uncovered_share"),
    }
    return [detail, {"correct": not res["failures"], "attempted": attempted, "failed": failed, "metrics": metrics}]
