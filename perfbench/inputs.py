"""Seeded inputs for the benchmark workloads.

Two kinds of input exist.  The *model* (the word2vec table, and the weight
bundle of the in-process workloads) is fixed, like a pretrained model a
user downloads once: it comes from MODEL_SEED and is cached in the
checkout.  The *data* (sentences, voter tokenizations, hidden matrices)
comes from the run seed, so the same seed gives the same inputs.

Sentences are CJK text built from words whose lengths follow
WORD_LENGTH_P; a token is out of vocabulary with probability OOV_SHARE.
Each sentence has three voter tokenizations that split and merge the gold
words at VOTER_SPLIT and VOTER_MERGE.

The rates in ASSUMED are assumptions, not measured traffic: no corpus
statistic backs them.  Only two figures are tied to something stated: the
20k-word table, and the mean word length, picked so that |omega|/n is
about 0.5; the split of WORD_LENGTH_P over lengths 1..4 is assumed too.
Every run prints ASSUMED next to the input properties it measured.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

MODEL_SEED = 2022
MODEL_FORMAT = 1  # bump when the cached model files change
D_W, D_H = 200, 768
CJK_FIRST, CJK_COUNT = 0x4E00, 20902

# assumed (see the module docstring)
WORD_LENGTH_P = (0.30, 0.50, 0.12, 0.08)  # lengths 1..4; mean 1.98, so |omega|/n ~ 0.5
OUT_OF_VOCAB = (150, 500, 200, 150)  # words missing from the table
OOV_SHARE = 0.05
ZIPF_VOCAB = (40, 120, 40, 30)  # pipeline-short-zipf words per length class
ZIPF_EXPONENT = 1.0
VOTER_SPLIT = 0.06  # chance a voter splits a multi-character gold word
VOTER_MERGE = 0.04  # chance a voter merges a gold word with the next one
HIDDEN_SCALE = 0.5
ASSUMED = {"word_length_p": WORD_LENGTH_P, "out_of_vocab_words": OUT_OF_VOCAB, "oov_share": OOV_SHARE,
           "zipf_vocab": ZIPF_VOCAB, "zipf_exponent": ZIPF_EXPONENT, "voter_split": VOTER_SPLIT,
           "voter_merge": VOTER_MERGE, "hidden_scale": HIDDEN_SCALE}
IN_VOCAB = (3000, 10000, 4000, 3000)  # table words per length class, 20k in total
VOTERS = 3
LENGTH_CDF = np.cumsum(WORD_LENGTH_P)[:-1]


@dataclass(frozen=True)
class Sentence:
    words: tuple[str, ...]  # gold segmentation
    tokenizations: tuple[tuple[str, ...], ...]

    @property
    def text(self) -> str:
        return "".join(self.words)


@cache
def vocabulary() -> tuple[tuple[tuple[str, ...], ...], tuple[tuple[str, ...], ...]]:
    """Table words and out-of-vocabulary words, per length class 1..4."""
    rng = np.random.default_rng(MODEL_SEED)
    seen: set[str] = set()
    table, oov = [], []
    for length, (n_in, n_out) in enumerate(zip(IN_VOCAB, OUT_OF_VOCAB), start=1):
        words: list[str] = []
        while len(words) < n_in + n_out:
            for row in rng.integers(0, CJK_COUNT, size=(n_in + n_out, length)).tolist():
                w = "".join(chr(CJK_FIRST + c) for c in row)
                if w not in seen and len(words) < n_in + n_out:
                    seen.add(w)
                    words.append(w)
        table.append(tuple(words[:n_in]))
        oov.append(tuple(words[n_in:]))
    return tuple(table), tuple(oov)


@cache
def model_vectors() -> tuple[list[str], np.ndarray]:
    """Rows of the embeddings file in order, the last one ``<unk>``."""
    rng = np.random.default_rng(MODEL_SEED + 1)
    words = [w for cls in vocabulary()[0] for w in cls]
    words = [words[i] for i in rng.permutation(len(words))] + ["<unk>"]
    return words, rng.uniform(-0.5, 0.5, size=(len(words), D_W))


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def ensure_model(cache_dir: Path, src: Path, env: dict) -> tuple[Path, Path]:
    """Cached embeddings file and in-process weight bundle.

    The bundle is written by the program's own ``init-weights``, keyed by a
    digest of the package source, so a change to the bundle format cannot
    meet a stale file.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    emb = cache_dir / f"embeddings-v{MODEL_FORMAT}.txt"
    if not emb.exists():
        words, vectors = model_vectors()
        lines = [f"{len(words)} {D_W}"]
        lines += [w + " " + " ".join(map(repr, row)) for w, row in zip(words, vectors.tolist())]
        tmp = emb.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tmp.replace(emb)
    bundle = cache_dir / f"bundle-{source_digest(src)}.json"
    if not bundle.exists():
        tmp = bundle.with_suffix(f".{os.getpid()}.tmp")
        subprocess.run(
            [sys.executable, "-m", "wordfuse.cli", "init-weights", "--seed", str(MODEL_SEED),
             "--dw", str(D_W), "--dh", str(D_H), "--output", str(tmp)],
            env=env, check=True, stderr=subprocess.DEVNULL,
        )
        tmp.replace(bundle)
    return emb, bundle


def seeded(seed: int, key: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{key}:{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class Sampler:
    """Draws word tokens: length class first, then a word within the class.

    Within a class words are uniform over the table, or, given zipf_rng,
    Zipf-distributed over a small subset that zipf_rng picks.
    """

    def __init__(self, rng: np.random.Generator, zipf_rng: np.random.Generator | None = None):
        table, self.oov = vocabulary()
        self.rng = rng
        if zipf_rng is None:
            self.words, self.cdfs = table, [None] * len(table)
        else:
            self.words = [[cls[i] for i in zipf_rng.permutation(len(cls))[:k]] for cls, k in zip(table, ZIPF_VOCAB)]
            self.cdfs = []
            for cls in self.words:
                w = np.cumsum(1.0 / np.arange(1, len(cls) + 1) ** ZIPF_EXPONENT)
                self.cdfs.append((w / w[-1]).tolist())

    def sentence(self, n: int) -> Sentence:
        u = self.rng.random((3, n))
        lengths = (np.searchsorted(LENGTH_CDF, u[0], side="right") + 1).tolist()
        words, left = [], n
        for length, is_oov, x in zip(lengths, u[1].tolist(), u[2].tolist()):
            if left == 0:
                break
            c = min(length, left) - 1
            if is_oov < OOV_SHARE:
                pool, cdf = self.oov[c], None
            else:
                pool, cdf = self.words[c], self.cdfs[c]
            idx = int(x * len(pool)) if cdf is None else min(bisect.bisect_right(cdf, x), len(pool) - 1)
            words.append(pool[idx])
            left -= c + 1
        return Sentence(tuple(words), tuple(self._voter(words) for _ in range(VOTERS)))

    def _voter(self, gold: list[str]) -> tuple[str, ...]:
        r, cuts = self.rng.random((2, len(gold))).tolist()
        out: list[str] = []
        i = 0
        while i < len(gold):
            w = gold[i]
            if r[i] < VOTER_MERGE and i + 1 < len(gold):
                out.append(w + gold[i + 1])
                i += 2
                continue
            if r[i] < VOTER_MERGE + VOTER_SPLIT and len(w) > 1:
                cut = 1 + int(cuts[i] * (len(w) - 1))
                out += [w[:cut], w[cut:]]
            else:
                out.append(w)
            i += 1
        return tuple(out)

    def hidden(self, n: int) -> np.ndarray:
        return self.rng.standard_normal((n, D_H)) * HIDDEN_SCALE

    def lengths(self, lo: int, hi: int, count: int) -> list[int]:
        return self.rng.integers(lo, hi + 1, size=count).tolist()


def write_matrix_text(m: np.ndarray, path: Path) -> None:
    """The package's matrix text layout: a "rows cols" header, one row per line."""
    lines = [f"{m.shape[0]} {m.shape[1]}"] + [" ".join(map(repr, row)) for row in m.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record(s: Sentence) -> str:
    return json.dumps({"sentence": s.text, "tokenizations": [list(t) for t in s.tokenizations]}, ensure_ascii=False)


def properties(sentences: list[Sentence]) -> dict:
    """Input properties of the sentences a run consumed, in consumption order."""
    table = {w for cls in vocabulary()[0] for w in cls}
    ns = sorted(len(s.text) for s in sentences)
    tokens = [w for s in sentences for w in s.words]
    seen: set[str] = set()
    repeats = 0
    for w in tokens:
        repeats += w in seen
        seen.add(w)
    shared = union = 0
    for s in sentences:
        starts = []
        for t in s.tokenizations:
            cursor, st = 0, set()
            for w in t:
                st.add(cursor)
                cursor += len(w)
            starts.append(st)
        shared += len(set.intersection(*starts))
        union += len(set.union(*starts))
    return {
        "sentences": len(sentences),
        "n_min": ns[0],
        "n_median": ns[len(ns) // 2],
        "n_max": ns[-1],
        "words_per_sentence": round(len(tokens) / len(sentences), 3),
        "single_char_word_share": round(sum(len(w) == 1 for w in tokens) / len(tokens), 4),
        "word_repeat_share": round(repeats / len(tokens), 4),
        "oov_share": round(sum(w not in table for w in tokens) / len(tokens), 4),
        "voter_agreement": round(shared / union, 4),
        "omega_over_n_gold": round(len(tokens) / sum(ns), 4),
    }
