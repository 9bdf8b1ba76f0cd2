"""Randomized invariant suite behind the ``check`` command.

Each property draws its own deterministic RNG stream, runs a batch of
randomized cases, and either passes or reports the first violation.  The
numeric properties deliberately re-derive expectations with naive
pure-Python loops so the production kernels are checked against an
independent route, not against themselves.  Those loops, ``naive_matmul``
and ``naive_attend``, are the test suite's oracles too.  When the C matmul
kernel is loaded, the matmul property checks it and the NumPy loop alike.
The bundle property checks ``save_bundle``, with whichever printer runs,
against ``json.dumps`` of the bundle.
"""

from __future__ import annotations

import argparse
import copy
import decimal
import itertools
import json
import math
import sys
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import _kernel, attention, fusion, lexicon, numerics, segvote

DEFAULT_SEED = 2024
DEFAULT_CASES = 120


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


@dataclass
class CheckResult:
    name: str
    cases: int
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# naive re-derivations (kept independent of the numpy kernels on purpose);
# the tests import them as their oracles too


def naive_matmul(a, b) -> list[list[float]]:
    """The straight-line triple loop both ``matmul`` kernels must match bit for bit.

    ``a`` and ``b`` are nested sequences of floats; each entry starts at 0.0
    and adds ``a[i][k] * b[k][j]`` for ascending ``k``.
    """
    rows, inner, cols = len(a), len(b), len(b[0])
    if any(len(row) != inner for row in a):
        raise ValueError("naive_matmul: inner sizes differ")
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def naive_attend(h, wq, wk, wv, omega=None) -> list[list[float]]:
    """Single-head attention with loops, scaled by sqrt(full width).

    Arguments are nested sequences; ``omega``, when given, holds the only
    key positions a query may attend to.
    """
    n, d_h = len(h), len(h[0])
    q, k, v = naive_matmul(h, wq), naive_matmul(h, wk), naive_matmul(h, wv)
    scale = math.sqrt(d_h)
    out = []
    for i in range(n):
        scores = []
        for j in range(n):
            s = sum(q[i][c] * k[j][c] for c in range(d_h)) / scale
            if omega is not None and j not in omega:
                s = -math.inf
            scores.append(s)
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        z = sum(exps)
        probs = [e / z for e in exps]
        out.append([sum(probs[j] * v[j][c] for j in range(n)) for c in range(d_h)])
    return out


# ---------------------------------------------------------------------------
# random instance helpers

_ALPHABET = "abcdefgh"


def _random_sentence(rng, max_len=8) -> str:
    n = int(rng.integers(1, max_len + 1))
    return "".join(_ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), n))


def _random_segmentation(rng, sentence: str) -> segvote.Segmentation:
    starts = [0]  # words of 1 to 4 characters
    while starts[-1] < len(sentence):
        starts.append(starts[-1] + int(rng.integers(1, min(4, len(sentence) - starts[-1]) + 1)))
    return segvote.Segmentation(sentence, tuple(starts))


def _random_span_instance(rng, max_len=6, max_dim=32):
    length = int(rng.integers(1, max_len + 1))
    d_h = int(rng.integers(2, max_dim + 1))
    h = rng.standard_normal((length, d_h))
    v = rng.standard_normal(d_h)
    return h, v, segvote.WordSpan(0, length - 1)


def _exact_scale(rng, x: np.ndarray) -> int:
    """A k at which every entry of ``2**k * x``, and every product of two, stays finite and normal.

    The norm also stays above ``DEGENERATE_NORM``, so each step of a cosine scales exactly.
    """
    e_min, e_max = (int(np.frexp(m)[1]) for m in (np.abs(x).min(), np.abs(x).max()))
    # 2**(k + e_min - 1) >= 2**-511, 2**(k + e_max - 1) >= 2**-39 > DEGENERATE_NORM, and k + e_max <= 1024
    return int(rng.integers(max(-510 - e_min, -38 - e_max), 1024 - e_max, endpoint=True))


# ---------------------------------------------------------------------------
# properties


def _check_softmax_stochastic(rng, cases):
    for _ in range(cases):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        mat = rng.standard_normal((n, m)) * 10.0
        masked_cols = []
        if m > 1:
            masked_cols = sorted(rng.choice(m, size=int(rng.integers(0, m)), replace=False))
            mat[:, masked_cols] = -np.inf
        probs = numerics.softmax_rows(mat)
        sums = probs.sum(axis=1)
        _require(np.all(np.abs(sums - 1.0) <= 1e-12), f"row sums off by {np.abs(sums - 1).max():.3e}")
        _require(np.all(probs >= 0.0) and np.all(probs <= 1.0), "entries outside [0, 1]")
        for c in masked_cols:
            _require(np.all(probs[:, c] == 0.0), f"masked column {c} not exactly zero")


_MATMUL_EDGE_VALUES = np.array(_kernel.EDGE_VALUES)


def _matmul_operand(rng, shape) -> np.ndarray:
    values = rng.standard_normal(shape) * 10.0 ** rng.choice([-150, 0, 150], size=shape)
    pick = rng.uniform(size=shape) < 0.3
    values[pick] = rng.choice(_MATMUL_EDGE_VALUES, size=int(pick.sum()))
    return values


def _check_matmul_oracle(rng, cases):
    kernels = [("NumPy", numerics.matmul_numpy)]
    if numerics.matmul_kernel().matmul is not None:
        kernels.append(("C", numerics.matmul))
    for _ in range(cases):
        # up to 23 rows and 40 columns, every product over packed strips of b: one
        # row, fewer rows than a tile, two 8-row tiles of the C kernel and remainder
        # rows, one 24-column block and its tail (built for AVX-512; 4-row tiles,
        # 12- or 6-column blocks otherwise)
        r, inner, c = int(rng.integers(1, 24)), int(rng.integers(1, 41)), int(rng.integers(1, 41))
        a = _matmul_operand(rng, (r, inner))
        b = _matmul_operand(rng, (inner, c))
        # compare bit patterns: == would let -0.0 pass for +0.0
        want = np.array(naive_matmul(a.tolist(), b.tolist())).view(np.uint64)
        for name, kernel in kernels:
            wrong = np.argwhere(kernel(a, b).view(np.uint64) != want)
            _require(len(wrong) == 0, f"{name} kernel, {r}x{inner} @ {inner}x{c}: "
                     f"entry {tuple(int(x) for x in wrong[:1].ravel())} differs from the naive loop")


def _check_cosine_scale_invariant(rng, cases):
    for _ in range(cases):
        d = int(rng.integers(1, 33))
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        alpha = float(rng.uniform(0.01, 100.0))
        base = numerics.cosine(u, v)
        scaled = numerics.cosine(alpha * u, v)
        _require(abs(base - scaled) <= 1e-12, f"|delta| = {abs(base - scaled):.3e}")
        _require(math.copysign(1.0, base) == math.copysign(1.0, scaled) or base == scaled == 0.0,
                 "sign changed under scaling")
        # a power of two scales every step exactly, even where a squared norm would overflow
        j, k = _exact_scale(rng, u), _exact_scale(rng, v)
        exact = numerics.cosine(np.ldexp(u, j), np.ldexp(v, k))
        _require(exact.hex() == base.hex(), f"cosine(2**{j} u, 2**{k} v) = {exact!r}, cosine(u, v) = {base!r}")


def _check_init_matches_scalar_stream(rng, cases):
    for _ in range(cases):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        gen = numerics.SplitMix64(seed)
        got = numerics.init_matrix(gen, rows, cols)
        # the scalar generator, one draw at a time, is the reference stream
        ref = numerics.SplitMix64(seed)
        bound = 1.0 / math.sqrt(cols)
        want = np.array([(ref.next_unit() * 2.0 - 1.0) * bound for _ in range(rows * cols)])
        _require(np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64)),
                 f"seed {seed}, {rows}x{cols}: entries differ from the scalar stream")
        _require(gen.state == ref.state, f"seed {seed}, {rows}x{cols}: generator state not advanced")
        _require(np.all(np.abs(got) <= bound), "entry outside the init bound")


def _check_matrix_roundtrip(rng, cases):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        for _ in range(cases):
            m = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            m *= 10.0 ** rng.integers(-8, 9)
            numerics.write_matrix(m, path)
            first = path.read_bytes()
            back = numerics.read_matrix(path)
            _require(np.array_equal(back, m), "values changed in round-trip")
            numerics.write_matrix(back, path)
            _require(path.read_bytes() == first, "bytes changed in write-read-write")


# signed zeros, subnormals, and values json.dumps prints with an exponent
_BUNDLE_EDGE_VALUES = np.array(
    [0.0, -0.0, 1e-05, -1e-05, 1e16, -1e16, 5e-324, -2.5e-320, 1e-310, 1.7976931348623157e308, 0.1]
)


def _check_bundle_serial(rng, cases):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        for _ in range(cases):
            bundle = {}
            longer = int(rng.integers(8 * len(lexicon.BUNDLE_TENSORS)))  # the tensor longer than a piece, if any
            for i, name in enumerate(lexicon.BUNDLE_TENSORS):
                rows = int(rng.integers(1, 4))
                wide = numerics.WRITE_BLOCK // rows + 1 if i == longer else 0
                shape = (rows, wide + int(rng.integers(1, 8)))
                m = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, size=shape)
                pick = rng.uniform(size=shape) < 0.3
                m[pick] = rng.choice(_BUNDLE_EDGE_VALUES, size=int(pick.sum()))
                bundle[name] = m
            serial = {name: {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}
                      for name, m in bundle.items()}
            shapes = ", ".join(f"{m.shape[0]}x{m.shape[1]}" for m in bundle.values())
            lexicon.save_bundle(bundle, path)
            _require(path.read_bytes() == (json.dumps(serial) + "\n").encode("utf-8"),
                     f"tensor shapes {shapes}: file differs from json.dumps of the bundle")


def _check_vote_partition(rng, cases):
    for _ in range(cases):
        sentence = _random_sentence(rng)
        toks = [_random_segmentation(rng, sentence).words for _ in range(int(rng.integers(1, 5)))]
        seg = segvote.vote(sentence, toks)  # constructor enforces the partition
        _require(seg == segvote.vote(sentence, toks), "vote is not deterministic")
        tables = [dict(zip(itertools.accumulate(map(len, t), initial=0), t)) for t in toks]
        for start, word in zip(seg.starts, seg.words):
            here = [table[start] for table in tables if start in table]
            _require(word in here, f"voted word {word!r} at {start} was proposed by no voter")
            rank = (here.count(word), len(word))
            _require(all((here.count(w), len(w)) <= rank for w in here),
                     f"voted word {word!r} at {start} has a smaller (count, length) than another proposal")


def _check_vote_unanimity(rng, cases):
    for _ in range(cases):
        sentence = _random_sentence(rng)
        words = _random_segmentation(rng, sentence).words
        seg = segvote.vote(sentence, [words, list(words), list(words)])
        _require(seg.words == words, "unanimous tokenization was altered")


def _check_vote_single(rng, cases):
    for _ in range(cases):
        sentence = _random_sentence(rng)
        words = _random_segmentation(rng, sentence).words
        _require(segvote.vote(sentence, [words]).words == words, "single voter was altered")


def _check_injection_sum(rng, cases):
    cfg = fusion.FusionConfig()
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        wa = fusion.analyze_word(h, span, v)
        if abs(float(wa.scores.sum())) < cfg.eps_denom:
            continue
        out = fusion.inject_word(h, wa, cfg)
        delta = (out - h).sum(axis=0)
        _require(np.all(np.abs(delta - v) <= 1e-9), f"span gained {np.abs(delta - v).max():.3e} != v")


def _check_mixing_conservation(rng, cases):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        key = fusion.analyze_word(h, span, v).key
        lam = float(rng.uniform(0.0, 1.0))
        mixed = fusion.mix_word(h, span, key, lam)
        _require(np.all(np.abs(mixed.sum(axis=0) - h.sum(axis=0)) <= 1e-9), "row sum not preserved")
        identity = fusion.mix_word(h, span, key, 1.0)
        _require(np.array_equal(identity, h), "lam = 1 is not the identity")
        single = fusion.mix_word(h[:1], segvote.WordSpan(0, 0), 0, lam)
        _require(np.array_equal(single, h[:1]), "single-character span changed")


def _check_mixing_translation(rng, cases):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        if len(span) == 1:
            continue
        key = fusion.analyze_word(h, span, v).key
        lam = float(rng.uniform(0.0, 1.0))
        shift = rng.standard_normal(h.shape[1])
        base = fusion.mix_word(h, span, key, lam)
        moved = fusion.mix_word(h + shift, span, key, lam)
        _require(np.all(np.abs(moved - (base + shift)) <= 1e-9), "mixing is not translation equivariant")


def _check_score_scale_invariance(rng, cases):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        scale = np.exp(rng.uniform(-3, 3, size=(h.shape[0], 1)))
        base = fusion.analyze_word(h, span, v)
        scaled = fusion.analyze_word(h * scale, span, v)
        _require(np.all(np.abs(base.scores - scaled.scores) <= 1e-12), "scores changed under row scaling")
        _require(base.key == scaled.key, "key moved under row scaling")
        ks = [_exact_scale(rng, row) for row in h]
        exact = fusion.analyze_word(np.ldexp(h, np.array(ks)[:, None]), span, v)
        _require(np.array_equal(exact.scores.view(np.uint64), base.scores.view(np.uint64)),
                 f"scores changed bits under row scaling by 2**{ks}")
        _require(exact.key == base.key, f"key moved under row scaling by 2**{ks}")


def _check_lambda_monotone(rng, cases):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        if len(span) == 1:
            continue
        key = fusion.analyze_word(h, span, v).key
        dists = []
        for lam in np.linspace(0.0, 1.0, 11):
            mixed = fusion.mix_word(h, span, key, float(lam))
            dists.append(float(np.linalg.norm(mixed[key] - h[key])))
        for lo, hi in zip(dists, dists[1:]):
            _require(hi <= lo + 1e-12, "key-row distance is not monotone in lambda")


def _check_omega_keys(rng, cases):
    cfg = fusion.FusionConfig()
    table = lexicon.EmbeddingTable(dim=3, vectors={}, unk=np.zeros(3))
    for _ in range(cases):
        seg = _random_segmentation(rng, _random_sentence(rng))
        n, d_h = len(seg.sentence), int(rng.integers(2, 9))
        bundle = {
            "W1": rng.standard_normal((3, d_h)),
            "b1": rng.standard_normal((1, d_h)),
            "W2": rng.standard_normal((d_h, d_h)),
            "b2": rng.standard_normal((1, d_h)),
        }
        _, omega = fusion.fuse_sequence(rng.standard_normal((n, d_h)), seg, table, bundle, cfg)
        _require(len(omega) == len(seg.words), "omega size != word count")
        for key, start, end in zip(sorted(omega), seg.starts, seg.starts[1:]):
            _require(start <= key < end, f"the word at [{start}, {end}) holds no key, or more than one")


def _check_attention_stochastic(rng, cases):
    for _ in range(cases):
        n, heads = int(rng.integers(1, 9)), int(rng.choice([1, 2, 4]))
        d_h = heads * int(rng.integers(1, 5))
        h = rng.standard_normal((n, d_h))
        wq, wk = rng.standard_normal((2, d_h, d_h))
        omega = frozenset(int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        mask = attention.MaskSpec(n=n, omega=omega)
        for spec in (None, mask):
            probs = attention.masked_attention_weights(h, wq, wk, heads, spec)
            _require(np.all(np.abs(probs.sum(axis=2) - 1.0) <= 1e-12), "attention row sum off")
            _require(np.all(probs >= 0.0), "negative attention weight")


def _check_mask_exactness(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        d_h = int(rng.integers(2, 9))
        h = rng.standard_normal((n, d_h))
        wq, wk = rng.standard_normal((2, d_h, d_h))
        omega = frozenset(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        probs = attention.masked_attention_weights(h, wq, wk, 1, attention.MaskSpec(n=n, omega=omega))
        for j in range(n):
            if j in omega:
                continue
            _require(np.all(probs[:, :, j] == 0.0), f"masked column {j} has nonzero weight")


def _check_vacuous_mask(rng, cases):
    for _ in range(cases):
        n, heads = int(rng.integers(1, 9)), int(rng.choice([1, 2]))
        d_h = heads * int(rng.integers(1, 6))
        h = rng.standard_normal((n, d_h))
        wq, wk, wv = rng.standard_normal((3, d_h, d_h))
        full = attention.MaskSpec(n=n, omega=frozenset(range(n)))
        plain = attention.attend(h, wq, wk, wv, heads, mask=None)
        masked = attention.attend(h, wq, wk, wv, heads, mask=full)
        _require(np.array_equal(plain, masked), "full omega differs from the unmasked branch")


def _check_attention_oracle(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(1, 11))
        d_h = int(rng.integers(2, 17))
        h = rng.standard_normal((n, d_h))
        wq, wk, wv = rng.standard_normal((3, d_h, d_h))
        omega = None
        spec = None
        if n > 1 and rng.uniform() < 0.5:
            omega = {int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
            spec = attention.MaskSpec(n=n, omega=frozenset(omega))
        got = attention.attend(h, wq, wk, wv, 1, mask=spec)
        want = np.array(naive_attend(h.tolist(), wq.tolist(), wk.tolist(), wv.tolist(), omega))
        _require(np.all(np.abs(got - want) <= 1e-12), f"oracle gap {np.abs(got - want).max():.3e}")


def _check_fusion_linear(rng, cases):
    for _ in range(cases):
        n, d_h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h1 = rng.standard_normal((n, d_h))
        h2 = rng.standard_normal((n, d_h))
        mu = float(rng.uniform(0.0, 1.0))
        fused = attention.fuse_heads_output(h1, h2, mu)
        _require(np.all(np.abs(fused - (mu * h1 + (1 - mu) * h2)) <= 1e-15), "fusion not linear")
        _require(np.array_equal(attention.fuse_heads_output(h1, h2, 1.0), h1), "mu=1 != h1")
        _require(np.array_equal(attention.fuse_heads_output(h1, h2, 0.0), h2), "mu=0 != h2")


def _value_error(fn, *args) -> str:
    """The message of the ValueError ``fn(*args)`` raises, or "" when it returns."""
    try:
        fn(*args)
    except ValueError as err:
        return str(err)
    return ""


def _check_branches_together(rng, cases):
    for _ in range(cases):
        seg = _random_segmentation(rng, _random_sentence(rng))
        n, heads = len(seg.sentence), int(rng.choice([1, 2, 4]))
        d_w, d_h = int(rng.integers(1, 5)), heads * int(rng.integers(1, 5))
        vectors = {word: rng.standard_normal(d_w) for word in seg.words if rng.uniform() < 0.8}
        table = lexicon.EmbeddingTable(dim=d_w, vectors=vectors, unk=rng.standard_normal(d_w))
        bundle = lexicon.init_bundle(int(rng.integers(2**63)), d_w, d_h)
        cfg = fusion.FusionConfig(lam=float(rng.uniform()), mu=float(rng.uniform()), heads=heads)
        h = rng.standard_normal((n, d_h))
        got = attention.pipeline_forward(h, seg, table, bundle, cfg)
        plain = [bundle[name] for name in ("Wq1", "Wk1", "Wv1")]
        masked = [bundle[name] for name in ("Wq2", "Wk2", "Wv2")]
        h1 = attention.attend(got.mixed, *plain, heads)
        h2 = attention.attend(got.mixed, *masked, heads, attention.MaskSpec(n, frozenset(got.omega)))
        for name, want in (("h1", h1), ("h2", h2), ("fused", attention.fuse_heads_output(h1, h2, cfg.mu))):
            _require(getattr(got, name).tobytes() == want.tobytes(), f"{name} differs from the branches run in turn")
        # scores near 1e400 in both branches: the plain branch's overflow is the one named
        big = h * 1e200
        mixed, omega = fusion.fuse_sequence(big, seg, table, bundle, cfg)
        alone = _value_error(attention.attend, mixed, *masked, heads, attention.MaskSpec(n, frozenset(omega)))
        _require(alone.startswith("overflow in masked attention scores: "), f"masked branch alone: {alone!r}")
        both = _value_error(attention.pipeline_forward, big, seg, table, bundle, cfg)
        _require(both.startswith("overflow in plain attention scores: "), f"both branches overflow: {both!r}")


def _check_projection_finite(rng, cases):
    for _ in range(cases):
        d_w, d_h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        bundle = {
            "W1": rng.standard_normal((d_w, d_h)) * 10.0,
            "b1": rng.standard_normal((1, d_h)),
            "W2": rng.standard_normal((d_h, d_h)) * 10.0,
            "b2": rng.standard_normal((1, d_h)),
        }
        x = rng.standard_normal(d_w) * 1e6
        out = lexicon.project_rows(x[None, :], bundle)[0]
        _require(np.isfinite(out).all(), "projection produced non-finite output")
        inner = np.tanh(numerics.matmul(x[None, :], bundle["W1"]) + bundle["b1"])
        _require(np.all(np.abs(inner) <= 1.0), "tanh layer escaped [-1, 1]")


def _check_projection_memo(rng, cases):
    for _ in range(max(1, cases // 4)):
        d_w, d_h = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        vocab = sorted({_random_sentence(rng, 4) for _ in range(12)})
        rows = lexicon._frozen(rng.standard_normal((len(vocab), d_w)))
        vectors = {word: row for word, row in zip(vocab, rows) if rng.uniform() < 0.7}  # the rest are OOV
        unk = lexicon._frozen(rng.standard_normal(d_w))
        warm = lexicon.EmbeddingTable(dim=d_w, vectors=vectors, unk=unk)
        bundle = lexicon.init_bundle(int(rng.integers(2**63)), d_w, d_h)
        cfg = fusion.FusionConfig(lam=float(rng.uniform()), mu=float(rng.uniform()))
        calls = 8
        for call in range(calls):
            if call == calls // 2:  # a new object for one projection tensor: the memo must not serve its rows
                name = str(rng.choice(lexicon._PROJECTION_TENSORS))
                bundle = {**bundle, name: lexicon._frozen(rng.standard_normal(bundle[name].shape))}
            words = [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(1, 6)))]
            seg = segvote.Segmentation("".join(words), tuple(itertools.accumulate(map(len, words), initial=0)))
            h = rng.standard_normal((len(seg.sentence), d_h))
            got = attention.pipeline_forward(h, seg, warm, bundle, cfg)
            want = attention.pipeline_forward(h, seg, lexicon.EmbeddingTable(dim=d_w, vectors=vectors, unk=unk),
                                              bundle, cfg)
            _require(got.fused.tobytes() == want.fused.tobytes() and got.omega == want.omega,
                     f"call {call} of {words}: a warm table differs from a fresh one")


# field names of every record kind, so random objects often hit a real field
_RECORD_KEYS = ["sentence", "tokenizations", "spans", "words", "lambda", "mu", "heads",
                "debug_intermediates", "output", "rows", "cols", "data", *lexicon.BUNDLE_TENSORS, "x"]
_JSON_SCALARS = [None, True, False, 0, 1, -1, 2, 10**400, 0.5, -0.0, 2.7, 1e308, math.inf, math.nan,
                 "", "ab", "重庆", "w1.txt", "\x00"]


def _random_json(rng, depth=0):
    """A random JSON value of any kind, nested at most three deep."""
    kind = int(rng.integers(0, 3 if depth < 3 else 1))
    if kind == 0:
        return _JSON_SCALARS[int(rng.integers(len(_JSON_SCALARS)))]
    size = int(rng.integers(0, 4))
    if kind == 1:
        return [_random_json(rng, depth + 1) for _ in range(size)]
    return {_RECORD_KEYS[int(rng.integers(len(_RECORD_KEYS)))]: _random_json(rng, depth + 1) for _ in range(size)}


def _mutated(rng, record):
    """A copy of ``record`` with one member, at any depth, replaced, removed or added."""
    record = copy.deepcopy(record)
    node, key = record, None
    while node:  # pick a member; go into it, if it is a container, half the time
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = keys[int(rng.integers(len(keys)))]
        if not isinstance(node[key], (dict, list)) or rng.uniform() < 0.5:
            break
        node, key = node[key], None
    action = 0 if key is None else int(rng.integers(3))
    if action == 0 and isinstance(node, dict):
        node[_RECORD_KEYS[int(rng.integers(len(_RECORD_KEYS)))]] = _random_json(rng)
    elif action == 0:
        node.append(_random_json(rng))
    elif action == 1:
        node[key] = _random_json(rng)
    else:
        del node[key]
    return record


def _valid_records(rng) -> dict:
    """One valid record of each JSON input kind."""
    sentence = _random_sentence(rng)
    tokenizations = [_random_segmentation(rng, sentence).words for _ in range(int(rng.integers(1, 4)))]
    seg = segvote.vote(sentence, tokenizations)
    return {
        "vote": {"sentence": sentence, "tokenizations": tokenizations},
        "segmentation": {"sentence": sentence, "words": seg.words,
                         "spans": [[a, b - 1] for a, b in zip(seg.starts, seg.starts[1:])]},
        "config": {"lambda": 0.9, "mu": 0.5, "heads": 1, "debug_intermediates": False, "output": "fused.txt"},
        "bundle": {name: {"rows": 1, "cols": 2, "data": rng.standard_normal(2).tolist()}
                   for name in lexicon.BUNDLE_TENSORS},
    }


def _check_malformed_refused(rng, cases):
    from . import cli  # cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "record.json", Path(tmp) / "voted.jsonl"
        readers = {"vote": lambda p: cli.cmd_vote(argparse.Namespace(input=p, output=out)),
                   "segmentation": cli._read_segmentation, "config": cli._read_config,
                   "bundle": lexicon.load_bundle}
        for _ in range(cases):
            depth = int(rng.integers(1, 4)) * sys.getrecursionlimit()
            opener, closer = [("[", "]"), ('{"sentence": ', "}")][int(rng.integers(2))]
            for kind, record in _valid_records(rng).items():
                valid = json.dumps(record)
                for text in (valid, json.dumps(_random_json(rng)), json.dumps(_mutated(rng, record)),
                             opener * depth + "1" + closer * depth):
                    path.write_text(text, encoding="utf-8")
                    try:
                        readers[kind](path)
                    except ValueError as err:
                        _require(text != valid, f"a valid {kind} record was refused: {err}")
                        _require(str(err).startswith(f"{path}: "), f"{kind} refusal does not name its file: {err}")
                    except OSError:  # a bundle tensor's path names no readable file
                        _require(kind == "bundle", f"{kind} record raised an OSError")
                    except Exception as err:  # noqa: BLE001 - anything else would exit 2
                        raise CheckFailure(f"{kind} record {text[:80]!r} raised {err!r}") from None


def _random_decimal(rng) -> str:
    """A token of the number grammar: 1-40 digits, perhaps a fraction, perhaps an exponent in -400..400."""
    digits = "".join(str(d) for d in rng.integers(0, 10, int(rng.integers(1, 41))))
    point = int(rng.integers(0, len(digits) + 1))
    whole, fraction = digits[:point].lstrip("0") or "0", digits[point:]
    token = "-" * int(rng.integers(2)) + whole + (f".{fraction}" if fraction else "")
    if rng.uniform() < 0.7:
        token += str(rng.choice(["e", "E"])) + str(rng.choice(["", "+", "-"])) + str(int(rng.integers(0, 401)))
    return token


def _halfway_decimal(rng) -> str:
    """The exact decimal halfway between a random double and the next one up, or that rounded to 17-25 digits."""
    x = np.array(rng.integers(0, 0x7FEFFFFFFFFFFFFF, dtype=np.uint64)).view(np.float64)
    with decimal.localcontext() as context:
        context.prec = 1200  # the sum of two doubles is exact at 1200 digits
        mid = (decimal.Decimal(float(x)) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2
    token = f"{mid:e}" if rng.uniform() < 0.5 else f"{mid:.{int(rng.integers(16, 25))}e}"
    return "-" * int(rng.integers(2)) + token


def _fast_path_decimal(rng) -> str:
    """A token in Eisel-Lemire's domain or at its edge, either sign.

    ``repr()`` of a random finite double, or a mantissa times ``10**e`` for
    ``e`` in -27..27: of 1-19 random digits, or 10**19 - 1 or 2**64 - 1,
    which is one digit too long; perhaps with a point among its digits.
    """
    if rng.uniform() < 0.3:
        x = float(np.array(rng.integers(0, 0x7FF0000000000000, dtype=np.uint64)).view(np.float64))
        return repr(-x if rng.integers(2) else x)
    kind, e = int(rng.integers(21)), int(rng.integers(-27, 28))
    if kind < 19:
        digits = str(int(rng.integers(10**kind, 10 ** (kind + 1), dtype=np.uint64)))
    else:
        digits = str(10**19 - 1 if kind == 19 else 2**64 - 1)
    point = int(rng.integers(1, len(digits) + 1))
    if point < len(digits):  # the same value with a point: d.ddd e(e + digits after the point)
        digits, e = f"{digits[:point]}.{digits[point:]}", e + len(digits) - point
    return "-" * int(rng.integers(2)) + f"{digits}e{e}"


# ways to put a token outside the grammar, each given the token and a random integer
_DEFECTS = [
    lambda t, i: "+" + t.lstrip("-"),
    lambda t, i: t.replace(".", "_", 1) if "." in t else t + "_0",
    lambda t, i: "-" * t.startswith("-") + "0" + t.lstrip("-"),
    lambda t, i: t.split("e")[0].split("E")[0] + ".",
    lambda t, i: t[: i % len(t)] + "\u0661" + t[i % len(t) + 1 :],
    lambda t, i: t.replace(".", ",") if "." in t else t + ",5",
    lambda t, i: "." + t.lstrip("-").lstrip("0123456789"),
    lambda t, i: t.split("e")[0].split("E")[0] + "e",
    lambda t, i: ["inf", "-inf", "nan", "Infinity", "0x1p3", "1e+", "--1", ""][i % 8],
]


# the spaces a bundle's data list may hold around each "," and still take the compiled path
_LIST_SEPARATORS = (", ", ",", " ,", " , ")


def _check_number_parsing(rng, cases):
    kernel = numerics.matmul_kernel()

    def parsed(token: str) -> np.ndarray | None:
        out = np.empty((1, 1))
        return out if kernel.parse_rows(f"{token}\n".encode(), out) == 1 else None

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        for _ in range(cases):
            tokens = ([_random_decimal(rng) for _ in range(6)] + [_halfway_decimal(rng) for _ in range(2)]
                      + [_fast_path_decimal(rng) for _ in range(8)])
            finite = [t for t in tokens if math.isfinite(float(t))]
            want = np.array([float(t) for t in finite])
            if finite:  # the public reader, whichever parser runs
                path.write_text(f"1 {len(finite)}\n{' '.join(finite)}\n", encoding="utf-8")
                _require(numerics.read_matrix(path).tobytes() == want.tobytes(),
                         f"read_matrix of {' '.join(finite)!r} differs from float()")
            if kernel.parse_rows is None:
                continue
            # -0 in every case: JSON reads it as the integer 0, float() as -0.0, so the parser refuses it
            for token in tokens + ["-0"]:
                got = parsed(token)
                if token == "-0":
                    _require(got is None, "-0, which JSON reads as 0 and float() as -0.0, was not refused")
                elif token not in finite:
                    _require(got is None, f"non-finite {token!r} was not refused")
                else:
                    _require(got is not None and got.tobytes() == np.float64(float(token)).tobytes(),
                             f"{token!r} parsed to {None if got is None else got[0, 0]!r}, "
                             f"float() gives {float(token)!r}")
            listed = [t for t in finite if t != "-0"]
            if listed:  # with any spaces around each ",", in pieces cut after a "," as the bundle loader cuts
                seps = rng.choice(_LIST_SEPARATORS, len(listed) - 1).tolist()
                text = listed[0] + "".join(sep + t for sep, t in zip(seps, listed[1:]))
                commas = [i + 1 for i, c in enumerate(text) if c == ","]
                cuts = rng.choice(commas, min(len(commas), int(rng.integers(4))), replace=False) if commas else []
                bounds = [0, *sorted(map(int, cuts)), len(text)]
                out, done = np.empty((len(listed), 1)), 0
                for start, end in zip(bounds, bounds[1:]):
                    read = kernel.parse_rows(text[start:end].encode(), out[done:], None, ",")
                    _require(read is not None, f"the list piece {text[start:end]!r} was refused")
                    done += read
                _require(done == len(listed) and out.tobytes() == np.array([float(t) for t in listed]).tobytes(),
                         f"the list [{text}] differs from float()")
                at = int(rng.integers(len(listed) + 1))
                # -0 among the numbers, or a "," after the last one owed
                for bad, count in ((", ".join([*listed[:at], "-0", *listed[at:]]), len(listed) + 1),
                                   (text + ",", len(listed))):
                    _require(kernel.parse_rows(bad.encode(), np.empty((count, 1)), None, ",") is None,
                             f"the list [{bad}] was not refused")
            for token in tokens[:4] + tokens[8:10]:
                bad = _DEFECTS[int(rng.integers(len(_DEFECTS)))](token, int(rng.integers(1 << 30)))
                _require(parsed(bad) is None, f"{bad!r}, outside the grammar, was not refused")


def _hard_double(rng) -> float:
    """A finite double of a kind printers get wrong, either sign.

    Any bit pattern, a subnormal, a power of two or of ten or a neighbour
    of one, one of the 64 doubles on either side of a switch of
    ``repr()``'s layout (0.0001 and 1e16), a decimal of 1 to 17 significant
    digits whose point lies next to a switch of layout, or a value drawn as
    a bundle's weights are, uniform in +-1/sqrt(768).
    """
    kind = int(rng.integers(7))
    if kind < 2:  # any finite bit pattern, or a subnormal one
        bits = rng.integers(1, 0x7FF0000000000000 if kind == 0 else 1 << 52, dtype=np.uint64)
        x = float(np.array(bits).view(np.float64))
    elif kind < 4:
        x = math.ldexp(1.0, int(rng.integers(-1074, 1024))) if kind == 2 else float(f"1e{rng.integers(-323, 309)}")
        x = math.nextafter(x, (0.0, x, math.inf)[int(rng.integers(3))])
    elif kind == 4:
        bits = np.array([0.0001, 1e16][int(rng.integers(2))]).view(np.int64) + int(rng.integers(-64, 65))
        x = float(bits.view(np.float64))
    elif kind == 5:  # 0.<digits> * 10**point: each side of the exponent form, 0.ddd, d.ddd and an integer
        n = int(rng.integers(1, 18))
        point = int(rng.choice([-5, -4, -3, 0, 1, n - 1, n, n + 1, 16, 17]))
        x = float(f"{rng.integers(10 ** (n - 1), 10 ** n)}e{point - n}")
    else:
        x = rng.uniform(-1.0, 1.0) / math.sqrt(768)
    return -x if rng.integers(2) else x


def _misprinted(values: list[float], printed: str) -> str:
    """Names the first value whose text in ``printed`` is not its ``repr()``, or says the separators differ."""
    for x, text in itertools.zip_longest(values, printed.replace(",", " ").split()):
        if text != repr(x):
            return f"{x!r} printed as {text!r}"
    return "separators differ from repr()'s layout"


def _check_number_printing(rng, cases):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        for _ in range(cases):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            m = np.array([_hard_double(rng) for _ in range(rows * cols)]).reshape(rows, cols)
            values = m.ravel().tolist()
            lines = "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist())
            numerics.write_matrix(m, path)  # the public writer, whichever printer runs
            written = path.read_text(encoding="utf-8")
            _require(written == f"{rows} {cols}\n{lines}",
                     f"write_matrix: {_misprinted([rows, cols, *values], written)}")
            listed = b"".join(map(bytes, numerics.print_rows(m.reshape(1, -1), ", ", ""))).decode("ascii")
            _require(listed == ", ".join(map(repr, values)), f"list: {_misprinted(values, listed)}")


PROPERTIES: list[tuple[str, Callable]] = [
    ("softmax rows sum to one and respect masks", _check_softmax_stochastic),
    ("matmul matches the naive triple loop bit-for-bit", _check_matmul_oracle),
    ("cosine is scale invariant", _check_cosine_scale_invariant),
    ("seeded init matches the scalar SplitMix64 stream", _check_init_matches_scalar_stream),
    ("matrix text format round-trips exactly", _check_matrix_roundtrip),
    ("saved bundle equals the serial JSON encoding", _check_bundle_serial),
    ("vote always yields a valid deterministic partition", _check_vote_partition),
    ("unanimous voters keep their segmentation", _check_vote_unanimity),
    ("a single voter is returned unchanged", _check_vote_single),
    ("injection adds exactly one word vector per span", _check_injection_sum),
    ("mixing preserves per-word row sums", _check_mixing_conservation),
    ("mixing is translation equivariant", _check_mixing_translation),
    ("scores and key survive row scaling", _check_score_scale_invariance),
    ("key row converges to its input as lambda rises", _check_lambda_monotone),
    ("omega holds one key character per word", _check_omega_keys),
    ("attention rows are stochastic", _check_attention_stochastic),
    ("masked columns get exactly zero weight", _check_mask_exactness),
    ("full omega reproduces the unmasked branch", _check_vacuous_mask),
    ("single-head attention matches the naive oracle", _check_attention_oracle),
    ("branch fusion is linear in mu with exact endpoints", _check_fusion_linear),
    ("branches run together equal branches run in turn", _check_branches_together),
    ("projection output stays finite", _check_projection_finite),
    ("a warm projection memo gives a fresh table's bytes", _check_projection_memo),
    ("malformed input is refused with a located message", _check_malformed_refused),
    ("number text parses to float()'s bits", _check_number_parsing),
    ("numbers print as repr()", _check_number_printing),
]


def run_checks(seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES) -> list[CheckResult]:
    """Run every property; returns one result per property, in listed order.

    Any other exception the code under test raises is that property's
    failure too, recorded as ``TypeName: message``; the next property runs.
    """
    results = []
    for name, fn in PROPERTIES:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            fn(rng, cases)
            results.append(CheckResult(name, cases))
        except CheckFailure as failure:
            results.append(CheckResult(name, cases, str(failure)))
        except Exception as err:  # noqa: BLE001 - one broken property must not hide the others
            results.append(CheckResult(name, cases, f"{type(err).__name__}: {err}"))
    return results
