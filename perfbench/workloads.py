"""The four workloads: their inputs, their timed calls and their checks.

Input i of a workload comes from its own generator seeded with
(seed, workload, i), so a run makes inputs as it goes and a check rebuilds
exactly what an item was given.  Generating and checking are never inside
a timed region.

CLI workloads time one cold ``python3 -m wordfuse.cli`` child per item; the
pipeline workloads time calls inside one fresh worker process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle

SHARD_SENTENCES = 20000  # vote-corpus records per item: 3 to 5 s, start-up ~0.28 s of it
GOLDEN_RATIO = (5**0.5 - 1) / 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spans(words: list[str]) -> list[list[int]]:
    """[start, end] character spans, end inclusive, as the CLI writes them."""
    out, start = [], 0
    for w in words:
        out.append([start, start + len(w) - 1])
        start += len(w)
    return out


@dataclass
class Ctx:
    work: Path  # scratch directory of this run, removed at the end
    embeddings: Path
    bundle: Path  # in-process workloads' weights, from MODEL_SEED
    seed: int


@dataclass
class Item:
    index: int
    sentences: list  # inputs.Sentence, for the input-property summary
    chars: int
    argv: list[str] | None = None  # CLI workloads
    output: Path | None = None


class Model:
    """What the oracle needs to know about the model files."""

    def __init__(self):
        words, vectors = inputs.model_vectors()
        self.rows = dict(zip(words, vectors))
        self.unk = self.rows["<unk>"]
        self._weights: dict[int, dict[str, np.ndarray]] = {}

    def vector(self, word: str) -> np.ndarray:
        return self.rows.get(word, self.unk)

    def weights(self, seed: int) -> dict[str, np.ndarray]:
        if seed not in self._weights:
            self._weights[seed] = oracle.init_weights(seed, inputs.D_W, inputs.D_H)
        return self._weights[seed]


class Fused:
    """Workloads that fuse one sentence per item."""

    name = why = ""
    cold = False  # True: each item is a cold CLI child
    setup_reps = 2  # one repetition loads 176 MB of text, about 7 s
    zipf = False

    def n(self, i: int) -> int:
        raise NotImplementedError

    def weights_seed(self, ctx: Ctx) -> int:
        return inputs.MODEL_SEED

    def item_input(self, ctx: Ctx, i: int) -> tuple[inputs.Sentence, np.ndarray]:
        zipf_rng = inputs.seeded(ctx.seed, self.name) if self.zipf else None
        s = inputs.Sampler(inputs.seeded(ctx.seed, f"{self.name}/{i}"), zipf_rng)
        n = self.n(i)
        return s.sentence(n), s.hidden(n)

    def words(self, sent: inputs.Sentence) -> list[str]:
        """The segmentation the program fuses with."""
        return oracle.vote(sent.text, sent.tokenizations)

    def expected(self, ctx: Ctx, i: int, model: Model) -> tuple[list[str], np.ndarray]:
        sent, h = self.item_input(ctx, i)
        words = self.words(sent)
        return words, oracle.pipeline(h, words, model.vector, model.weights(self.weights_seed(ctx)))


class CliCold128(Fused):
    name = "cli-cold-128"
    why = "cold init-weights, then a cold fuse per n=128 sentence: loaders and the bundle round-trip dominate"
    cold = True
    setup_reps = 2  # one repetition is a 7 to 13 s cold process

    def n(self, i):
        return 128

    def weights_seed(self, ctx):
        return ctx.seed

    def words(self, sent):
        return list(sent.words)  # the segmentation file holds the gold words

    def setup_argv(self, ctx: Ctx, rep: int) -> list[str]:
        return ["init-weights", "--seed", str(ctx.seed), "--dw", str(inputs.D_W), "--dh", str(inputs.D_H),
                "--output", str(ctx.work / "bundle.json")]

    def item(self, ctx: Ctx, i: int) -> Item:
        sent, h = self.item_input(ctx, i)
        hid, seg, out = (ctx.work / f"{stem}{i}.txt" for stem in ("hidden", "seg", "fused"))
        inputs.write_matrix_text(h, hid)
        seg.write_text(json.dumps({"sentence": sent.text, "words": list(sent.words)}, ensure_ascii=False) + "\n",
                       encoding="utf-8")
        argv = ["fuse", "--embeddings", str(ctx.embeddings), "--weights", str(ctx.work / "bundle.json"),
                "--hidden", str(hid), "--segmentation", str(seg), "--output", str(out)]
        return Item(i, [sent], len(sent.text), argv, out)

    def check(self, ctx: Ctx, item: Item, model: Model) -> tuple[str, str | None]:
        data = item.output.read_bytes()
        _, want = self.expected(ctx, item.index, model)
        ok = oracle.close(oracle.parse_matrix(data.decode("utf-8")), want)
        return sha256(data), None if ok else "fused output differs from the oracle"


class Pipeline(Fused):
    """vote + pipeline_forward inside one worker process."""

    def item(self, ctx: Ctx, i: int) -> Item:
        sent, _ = self.item_input(ctx, i)
        return Item(i, [sent], len(sent.text), output=ctx.work / f"fused{i}.npy")

    def check(self, ctx: Ctx, item: Item, model: Model) -> tuple[str, str | None]:
        fused = np.load(item.output)
        got_spans = json.loads(item.output.with_suffix(".json").read_text(encoding="utf-8"))
        digest = sha256(np.ascontiguousarray(fused, dtype="<f8").tobytes() + json.dumps(got_spans).encode())
        words, want = self.expected(ctx, item.index, model)
        if got_spans != spans(words):
            return digest, "voted spans differ from the oracle vote"
        return digest, None if oracle.close(fused, want) else "fused output differs from the oracle"


class PipelineLong512(Pipeline):
    name = "pipeline-long-512"
    why = "vote + pipeline_forward at n=512 over a flat 20k vocabulary: attention n^2 terms and the masked branch dominate"

    def n(self, i):
        return 512


class PipelineShortZipf(Pipeline):
    name = "pipeline-short-zipf"
    why = "vote + pipeline_forward at n=16..64 over a small Zipf vocabulary: per-word projection and call overhead dominate"
    zipf = True

    def n(self, i):
        # a golden-ratio sequence spreads every run's first items evenly over
        # 16..64, so runs of any length see the same length mix
        return 16 + int((i * GOLDEN_RATIO) % 1.0 * 49)


class VoteCorpus:
    name = "vote-corpus"
    why = "cold vote over JSONL shards of 20000 sentences with 3 voters each: only segvote and record parsing work"
    cold = True
    setup_reps = 3

    def sentences(self, ctx: Ctx, i: int) -> list[inputs.Sentence]:
        s = inputs.Sampler(inputs.seeded(ctx.seed, f"{self.name}/{i}"))
        return [s.sentence(n) for n in s.lengths(8, 64, SHARD_SENTENCES)]

    def setup_argv(self, ctx: Ctx, rep: int) -> list[str]:
        """A one-record vote: the fixed cost every cold invocation pays."""
        warm = ctx.work / "warm.jsonl"
        if not warm.exists():
            s = inputs.Sampler(inputs.seeded(ctx.seed, f"{self.name}/setup"))
            warm.write_text(inputs.record(s.sentence(32)) + "\n", encoding="utf-8")
        return ["vote", "--input", str(warm), "--output", str(ctx.work / "warm.out")]

    def item(self, ctx: Ctx, i: int) -> Item:
        sents = self.sentences(ctx, i)
        src, out = ctx.work / f"shard{i}.jsonl", ctx.work / f"voted{i}.jsonl"
        src.write_text("".join(inputs.record(x) + "\n" for x in sents), encoding="utf-8")
        return Item(i, sents, sum(len(x.text) for x in sents), ["vote", "--input", str(src), "--output", str(out)], out)

    def check(self, ctx: Ctx, item: Item, model: Model) -> tuple[str, str | None]:
        data = item.output.read_bytes()
        lines = data.decode("utf-8").splitlines()
        if len(lines) != len(item.sentences):
            return sha256(data), f"{len(lines)} output records for {len(item.sentences)} inputs"
        for lineno, (line, sent) in enumerate(zip(lines, item.sentences), start=1):
            words = oracle.vote(sent.text, sent.tokenizations)
            want = {"sentence": sent.text, "words": words, "spans": spans(words)}
            if json.loads(line) != want:
                return sha256(data), f"record {lineno} differs from the oracle vote"
        return sha256(data), None


WORKLOADS = {w.name: w for w in (CliCold128(), PipelineLong512(), PipelineShortZipf(), VoteCorpus())}
