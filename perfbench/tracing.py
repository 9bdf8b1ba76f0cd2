"""Spans around the package's public functions, recorded from outside.

The package source is not touched.  ``Tracer.install`` wraps each function
in SPANS and rebinds every ``wordfuse.*`` module attribute that refers to
it, because modules import these functions by name (``attention`` calls
its own ``matmul``, ``cli`` its own ``pipeline_forward``).  Each call
becomes a span (name, start, end, parent span, unit) kept in memory; notes
taken after the call add the computed counts (flops and bytes from array
shapes, never from hardware counters).

A *unit* is one set-up repetition ("s0", "s1", ...) or one item ("i0",
...).  Per-layer values are per unit: the median over the items in which
the layer ran, or over the set-up repetitions when it ran only there.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> span name; attend is split by its mask argument
SPANS = {
    ("numerics", "matmul"): "numerics.matmul",
    ("numerics", "softmax_rows"): "numerics.softmax_rows",
    ("numerics", "cosine"): "numerics.cosine",
    ("numerics", "read_matrix"): "numerics.read_matrix",
    ("numerics", "write_matrix"): "numerics.write_matrix",
    ("numerics", "init_matrix"): "numerics.init_matrix",
    ("lexicon", "load_embeddings"): "lexicon.load_embeddings",
    ("lexicon", "load_bundle"): "lexicon.load_bundle",
    ("lexicon", "save_bundle"): "lexicon.save_bundle",
    ("lexicon", "lookup"): "lexicon.lookup",
    ("lexicon", "project"): "lexicon.project",
    ("fusion", "fuse_sequence"): "fusion.fuse_sequence",
    ("fusion", "inject_word"): "fusion.inject_word",
    ("fusion", "mix_word"): "fusion.mix_word",
    ("attention", "attend"): "attention.attend",
    ("attention", "fuse_heads_output"): "attention.fuse_heads_output",
    ("attention", "pipeline_forward"): "attention.pipeline_forward",
    ("segvote", "vote"): "segvote.vote",
    ("cli", "cmd_vote"): "cli.vote",
    ("cli", "cmd_fuse"): "cli.fuse",
    ("cli", "cmd_init_weights"): "cli.init_weights",
}

# per-layer metric -> unit; the names BENCHMARK.json lists
METRICS = {
    "numerics.matmul.calls": "count",
    "numerics.matmul.self_s": "s",
    "numerics.matmul.flops": "flop",
    "numerics.matmul.bytes": "B",
    "numerics.matmul.gflops_per_s": "GFLOP/s",
    "numerics.matmul.flops_per_byte": "flop/B",
    "numerics.softmax_rows.self_s": "s",
    "numerics.cosine.calls": "count",
    "numerics.cosine.self_s": "s",
    "numerics.read_matrix.self_s": "s",
    "numerics.write_matrix.self_s": "s",
    "numerics.init_matrix.self_s": "s",
    "numerics.init_matrix.draws": "count",
    "lexicon.project.calls": "count",
    "lexicon.project.self_s": "s",
    "lexicon.project.repeat_share": "share",
    "lexicon.lookup.oov_share": "share",
    "lexicon.load_embeddings.self_s": "s",
    "lexicon.load_embeddings.bytes": "B",
    "lexicon.load_bundle.self_s": "s",
    "lexicon.load_bundle.bytes": "B",
    "lexicon.save_bundle.self_s": "s",
    "lexicon.save_bundle.bytes": "B",
    "fusion.fuse_sequence.self_s": "s",
    "fusion.inject_word.self_s": "s",
    "fusion.mix_word.self_s": "s",
    "fusion.copied_bytes": "B",
    "fusion.single_char_share": "share",
    "fusion.inject_word.uniform_fallbacks": "count",
    "attention.attend.plain_s": "s",
    "attention.attend.masked_s": "s",
    "attention.omega_share": "share",
    "attention.fuse_heads_output.self_s": "s",
    "segvote.vote.calls": "count",
    "segvote.vote.self_s": "s",
    "segvote.agreement": "share",
    "cli.vote.self_s": "s",
    "cli.fuse.self_s": "s",
    "cli.init_weights.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


def _shape(m) -> tuple[int, int]:
    return np.shape(m)[0], np.shape(m)[1]


def _mask(args, kwargs):
    """The mask argument of attention.attend(h, wq, wk, wv, heads, mask)."""
    return kwargs.get("mask", args[5] if len(args) > 5 else None)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, unit]
        self.stack: list[int] = []
        self.unit: str | None = None
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (unit, counter)
        self.seen_vectors: set[bytes] = set()
        self.tokenizations: list = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------
    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.unit, key)] += amount

    def _note(self, name: str, args, kwargs) -> None:
        if name == "numerics.matmul":
            (m, k), (_, n) = _shape(args[0]), _shape(args[1])
            self.count("matmul.flops", 2 * m * k * n)
            self.count("matmul.bytes", 8 * (m * k + k * n + m * n))
        elif name == "numerics.init_matrix":
            self.count("init_matrix.draws", args[1] * args[2])
        elif name in ("lexicon.load_embeddings", "lexicon.load_bundle"):
            self.count(name[8:] + ".bytes", os.path.getsize(args[0]))
        elif name == "lexicon.save_bundle":
            self.count("save_bundle.bytes", os.path.getsize(args[1]))
        elif name == "lexicon.project":
            key = np.asarray(args[0], dtype=np.float64).tobytes()
            self.count("project.repeats", key in self.seen_vectors)
            self.seen_vectors.add(key)
        elif name == "lexicon.lookup":
            self.count("lookup.calls")
            self.count("lookup.oov", args[1] not in args[0])
        elif name == "fusion.inject_word":
            h, wa, cfg = args[:3]
            self.count("inject_word.uniform_fallbacks", abs(float(np.sum(wa.scores))) < cfg.eps_denom)
            self.count("copied_bytes", np.asarray(h).nbytes)
        elif name == "fusion.mix_word":
            self.count("mix_word.words")
            self.count("mix_word.single", len(args[1]) == 1)
            self.count("copied_bytes", np.asarray(args[0]).nbytes)
        elif name == "attention.attend.masked":
            mask = _mask(args, kwargs)
            self.count("omega", len(mask.omega))
            self.count("omega_n", mask.n)
        elif name == "segvote.vote":
            self.tokenizations.append(args[1])

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "attention.attend":
                span_name += ".plain" if _mask(args, kwargs) is None else ".masked"
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            record = [span_name, 0.0, 0.0, parent, tracer.unit]
            tracer.spans.append(record)
            tracer.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._note(span_name, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        import wordfuse.cli  # noqa: F401  (loads every layer module)

        modules = [m for k, m in sys.modules.items() if k == "wordfuse" or k.startswith("wordfuse.")]
        for (mod, func), name in SPANS.items():
            original = getattr(sys.modules[f"wordfuse.{mod}"], func, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def unit_totals(self) -> dict[str, dict[str, float]]:
        """unit -> {span name + '.self_s' | '.total_s' | '.calls': value}."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            t = totals[s[4]]
            t[s[0] + ".self_s"] += own
            t[s[0] + ".total_s"] += s[2] - s[1]
            t[s[0] + ".calls"] += 1
        for (unit, key), value in self.counts.items():
            totals[unit][key] += value
        return totals

    def per_layer(self, agreement) -> dict[str, float]:
        """Every metric in METRICS except cli.startup_s and trace.overhead_s."""
        totals = self.unit_totals()
        items = [u for u in totals if u.startswith("i")]
        setups = [u for u in totals if u.startswith("s")]

        def per_unit(key: str) -> float:
            for units in (items, setups):
                values = [totals[u][key] for u in units if key in totals[u]]
                if values:
                    # units where the layer did not run count as zero
                    return statistics.median(values + [0.0] * (len(units) - len(values)))
            return 0.0

        def run_total(key: str) -> float:
            return sum(t.get(key, 0.0) for t in totals.values())

        def share(num: str, den: str) -> float:
            d = run_total(den)
            return run_total(num) / d if d else 0.0

        out = {}
        for name in METRICS:
            if name.endswith(".self_s") or name.endswith(".calls"):
                out[name] = per_unit(name)
        out["numerics.matmul.flops"] = per_unit("matmul.flops")
        out["numerics.matmul.bytes"] = per_unit("matmul.bytes")
        mm_s = run_total("numerics.matmul.self_s")
        out["numerics.matmul.gflops_per_s"] = run_total("matmul.flops") / mm_s / 1e9 if mm_s else 0.0
        out["numerics.matmul.flops_per_byte"] = share("matmul.flops", "matmul.bytes")
        out["numerics.init_matrix.draws"] = per_unit("init_matrix.draws")
        out["lexicon.project.repeat_share"] = share("project.repeats", "lexicon.project.calls")
        out["lexicon.lookup.oov_share"] = share("lookup.oov", "lookup.calls")
        for f in ("load_embeddings", "load_bundle", "save_bundle"):
            out[f"lexicon.{f}.bytes"] = per_unit(f"{f}.bytes")
        out["fusion.copied_bytes"] = per_unit("copied_bytes")
        out["fusion.single_char_share"] = share("mix_word.single", "mix_word.words")
        out["fusion.inject_word.uniform_fallbacks"] = per_unit("inject_word.uniform_fallbacks")
        out["attention.attend.plain_s"] = per_unit("attention.attend.plain.total_s")
        out["attention.attend.masked_s"] = per_unit("attention.attend.masked.total_s")
        out["attention.omega_share"] = share("omega", "omega_n")
        scores = [agreement(t).agreement for t in self.tokenizations if len(t) >= 2]
        out["segvote.agreement"] = statistics.fmean(scores) if scores else 0.0
        return out

    def item_coverage(self, walls: dict[str, float]) -> dict[str, float]:
        """Per item, summed self time over the item's wall time.

        The self times of an item add up to its root spans, which all lie
        inside the timed call, so the ratio is at most 1 by construction;
        1 minus it is the share of the item no wrapped layer accounts for.
        """
        summed: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            summed[s[4]] += own
        return {u: summed[u] / wall for u, wall in walls.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "item": s[4]}) + "\n")
