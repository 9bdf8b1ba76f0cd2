"""Randomized invariant suite behind the ``check`` command.

Each property draws its own deterministic RNG stream, runs a batch of
randomized cases, and either passes or reports the first violation.  The
numeric properties deliberately re-derive expectations with naive
pure-Python loops so the production kernels are checked against an
independent route, not against themselves.
"""

from __future__ import annotations

import json
import math
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import attention, fusion, lexicon, numerics, segvote

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


@dataclass
class Context:
    """Injection points for the suite; tests swap in corrupted kernels."""

    softmax: Callable[[np.ndarray], np.ndarray] = numerics.softmax_rows


# ---------------------------------------------------------------------------
# naive re-derivations (kept independent of the numpy kernels on purpose)


def _naive_matmul(a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i][j] = acc
    return out


def _naive_attend(h, wq, wk, wv, omega=None):
    n, d_h = h.shape
    q = [_dotrow(h[i], wq) for i in range(n)]
    k = [_dotrow(h[i], wk) for i in range(n)]
    v = [_dotrow(h[i], wv) for i in range(n)]
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
    return np.array(out)


def _dotrow(x, w):
    return [sum(x[r] * w[r, c] for r in range(w.shape[0])) for c in range(w.shape[1])]


# ---------------------------------------------------------------------------
# random instance helpers

_ALPHABET = "abcdefgh"


def _random_sentence(rng, max_len=8) -> str:
    n = int(rng.integers(1, max_len + 1))
    return "".join(_ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), n))


def _random_tokenization(rng, sentence: str) -> list[str]:
    words, cursor = [], 0
    while cursor < len(sentence):
        length = int(rng.integers(1, min(4, len(sentence) - cursor) + 1))
        words.append(sentence[cursor : cursor + length])
        cursor += length
    return words


def _random_segmentation(rng, n: int) -> segvote.Segmentation:
    sentence = "".join(_ALPHABET[i] for i in rng.integers(0, len(_ALPHABET), n))
    return segvote.validate_tokenization(sentence, _random_tokenization(rng, sentence))


def _random_span_instance(rng, max_len=6, max_dim=32):
    length = int(rng.integers(1, max_len + 1))
    d_h = int(rng.integers(2, max_dim + 1))
    h = rng.standard_normal((length, d_h))
    v = rng.standard_normal(d_h)
    return h, v, segvote.WordSpan(0, length - 1)


# ---------------------------------------------------------------------------
# properties


def _check_softmax_stochastic(rng, cases, ctx: Context):
    for _ in range(cases):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        mat = rng.standard_normal((n, m)) * 10.0
        masked_cols = []
        if m > 1:
            masked_cols = sorted(rng.choice(m, size=int(rng.integers(0, m)), replace=False))
            mat[:, masked_cols] = -np.inf
        probs = ctx.softmax(mat)
        sums = probs.sum(axis=1)
        _require(np.all(np.abs(sums - 1.0) <= 1e-12), f"row sums off by {np.abs(sums - 1).max():.3e}")
        _require(np.all(probs >= 0.0) and np.all(probs <= 1.0), "entries outside [0, 1]")
        for c in masked_cols:
            _require(np.all(probs[:, c] == 0.0), f"masked column {c} not exactly zero")


# signed zeros, subnormals and magnitudes whose products stay finite
_MATMUL_EDGE_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-150, -1e-150, 1e150, -1e150]
)


def _matmul_operand(rng, shape) -> np.ndarray:
    values = rng.standard_normal(shape) * 10.0 ** rng.choice([-150, 0, 150], size=shape)
    pick = rng.uniform(size=shape) < 0.3
    values[pick] = rng.choice(_MATMUL_EDGE_VALUES, size=int(pick.sum()))
    return values


def _check_matmul_oracle(rng, cases, ctx):
    for _ in range(cases):
        r, inner, c = (int(x) for x in rng.integers(1, 8, 3))
        a = _matmul_operand(rng, (r, inner))
        b = _matmul_operand(rng, (inner, c))
        # compare bit patterns: == would let -0.0 pass for +0.0
        got = numerics.matmul(a, b).view(np.uint64)
        want = np.array(_naive_matmul(a, b)).view(np.uint64)
        for i in range(r):
            for j in range(c):
                _require(got[i, j] == want[i, j], f"entry ({i},{j}) differs from naive loop")


def _check_cosine_scale_invariant(rng, cases, ctx):
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


def _check_init_matches_scalar_stream(rng, cases, ctx):
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


def _check_matrix_roundtrip(rng, cases, ctx):
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


def _check_bundle_serial(rng, cases, ctx):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        for _ in range(cases):
            bundle = {}
            for name in lexicon.BUNDLE_TENSORS:
                shape = (int(rng.integers(1, 4)), int(rng.integers(1, 8)))
                m = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, size=shape)
                pick = rng.uniform(size=shape) < 0.3
                m[pick] = rng.choice(_BUNDLE_EDGE_VALUES, size=int(pick.sum()))
                bundle[name] = m
            lexicon.save_bundle(bundle, path)
            serial = {name: {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}
                      for name, m in bundle.items()}
            shapes = ", ".join(f"{m.shape[0]}x{m.shape[1]}" for m in bundle.values())
            _require(path.read_bytes() == (json.dumps(serial) + "\n").encode("utf-8"),
                     f"tensor shapes {shapes}: file differs from json.dumps of the bundle")


def _check_vote_partition(rng, cases, ctx):
    for _ in range(cases):
        sentence = _random_sentence(rng)
        toks = [_random_tokenization(rng, sentence) for _ in range(int(rng.integers(1, 5)))]
        seg = segvote.vote(sentence, toks)  # constructor enforces the partition
        again = segvote.vote(sentence, toks)
        _require(seg == again, "vote is not deterministic")


def _check_vote_unanimity(rng, cases, ctx):
    for _ in range(cases):
        sentence = _random_sentence(rng)
        words = _random_tokenization(rng, sentence)
        seg = segvote.vote(sentence, [words, list(words), list(words)])
        _require(seg.words == words, "unanimous tokenization was altered")


def _check_vote_single(rng, cases, ctx):
    for _ in range(cases):
        sentence = _random_sentence(rng)
        words = _random_tokenization(rng, sentence)
        _require(segvote.vote(sentence, [words]).words == words, "single voter was altered")


def _check_injection_sum(rng, cases, ctx):
    cfg = fusion.FusionConfig()
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        wa = fusion.analyze_word(h, span, v)
        if abs(float(wa.scores.sum())) < cfg.eps_denom:
            continue
        out = fusion.inject_word(h, wa, cfg)
        delta = (out - h)[span.start : span.end + 1].sum(axis=0)
        _require(np.all(np.abs(delta - v) <= 1e-9), f"span gained {np.abs(delta - v).max():.3e} != v")


def _check_mixing_conservation(rng, cases, ctx):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        key = span.start + fusion.select_key(fusion.score_word(h, v))
        lam = float(rng.uniform(0.0, 1.0))
        mixed = fusion.mix_word(h, span, key, lam)
        before = h[span.start : span.end + 1].sum(axis=0)
        after = mixed[span.start : span.end + 1].sum(axis=0)
        _require(np.all(np.abs(after - before) <= 1e-9), "row sum not preserved")
        identity = fusion.mix_word(h, span, key, 1.0)
        _require(np.array_equal(identity, h), "lam = 1 is not the identity")
        single = fusion.mix_word(h, segvote.WordSpan(0, 0), 0, lam)
        _require(np.array_equal(single, h), "single-character span changed")


def _check_mixing_translation(rng, cases, ctx):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        if len(span) == 1:
            continue
        key = span.start + fusion.select_key(fusion.score_word(h, v))
        lam = float(rng.uniform(0.0, 1.0))
        shift = rng.standard_normal(h.shape[1])
        base = fusion.mix_word(h, span, key, lam)
        moved = fusion.mix_word(h + shift, span, key, lam)
        _require(np.all(np.abs(moved - (base + shift)) <= 1e-9), "mixing is not translation equivariant")


def _check_score_scale_invariance(rng, cases, ctx):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        scale = np.exp(rng.uniform(-3, 3, size=(h.shape[0], 1)))
        base = fusion.score_word(h, v)
        scaled = fusion.score_word(h * scale, v)
        _require(np.all(np.abs(base - scaled) <= 1e-12), "scores changed under row scaling")
        _require(fusion.select_key(base) == fusion.select_key(scaled), "key moved under row scaling")


def _check_lambda_monotone(rng, cases, ctx):
    for _ in range(cases):
        h, v, span = _random_span_instance(rng)
        if len(span) == 1:
            continue
        key = span.start + fusion.select_key(fusion.score_word(h, v))
        dists = []
        for lam in np.linspace(0.0, 1.0, 11):
            mixed = fusion.mix_word(h, span, key, float(lam))
            dists.append(float(np.linalg.norm(mixed[key] - h[key])))
        for lo, hi in zip(dists, dists[1:]):
            _require(hi <= lo + 1e-12, "key-row distance is not monotone in lambda")


def _check_omega_keys(rng, cases, ctx):
    cfg = fusion.FusionConfig()
    table = lexicon.EmbeddingTable(dim=3, vectors={}, unk=np.zeros(3))
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        d_h = int(rng.integers(2, 9))
        seg = _random_segmentation(rng, n)
        weights = lexicon.ProjectionWeights(
            w1=rng.standard_normal((3, d_h)),
            b1=rng.standard_normal(d_h),
            w2=rng.standard_normal((d_h, d_h)),
            b2=rng.standard_normal(d_h),
        )
        _, omega = fusion.fuse_sequence(rng.standard_normal((n, d_h)), seg, table, weights, cfg)
        _require(len(omega) == len(seg.spans), "omega size != word count")
        _require(all(any(s.start <= i <= s.end for s in seg.spans) for i in omega),
                 "omega index outside every span")


def _check_attention_stochastic(rng, cases, ctx):
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


def _check_mask_exactness(rng, cases, ctx):
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


def _check_vacuous_mask(rng, cases, ctx):
    for _ in range(cases):
        n, heads = int(rng.integers(1, 9)), int(rng.choice([1, 2]))
        d_h = heads * int(rng.integers(1, 6))
        h = rng.standard_normal((n, d_h))
        wq, wk, wv = rng.standard_normal((3, d_h, d_h))
        full = attention.MaskSpec(n=n, omega=frozenset(range(n)))
        plain = attention.attend(h, wq, wk, wv, heads, mask=None)
        masked = attention.attend(h, wq, wk, wv, heads, mask=full)
        _require(np.array_equal(plain, masked), "full omega differs from the unmasked branch")


def _check_attention_oracle(rng, cases, ctx):
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
        want = _naive_attend(h, wq, wk, wv, omega)
        _require(np.all(np.abs(got - want) <= 1e-12), f"oracle gap {np.abs(got - want).max():.3e}")


def _check_fusion_linear(rng, cases, ctx):
    for _ in range(cases):
        n, d_h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h1 = rng.standard_normal((n, d_h))
        h2 = rng.standard_normal((n, d_h))
        mu = float(rng.uniform(0.0, 1.0))
        fused = attention.fuse_heads_output(h1, h2, mu)
        _require(np.all(np.abs(fused - (mu * h1 + (1 - mu) * h2)) <= 1e-15), "fusion not linear")
        _require(np.array_equal(attention.fuse_heads_output(h1, h2, 1.0), h1), "mu=1 != h1")
        _require(np.array_equal(attention.fuse_heads_output(h1, h2, 0.0), h2), "mu=0 != h2")


def _check_projection_finite(rng, cases, ctx):
    for _ in range(cases):
        d_w, d_h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        weights = lexicon.ProjectionWeights(
            w1=rng.standard_normal((d_w, d_h)) * 10.0,
            b1=rng.standard_normal(d_h),
            w2=rng.standard_normal((d_h, d_h)) * 10.0,
            b2=rng.standard_normal(d_h),
        )
        x = rng.standard_normal(d_w) * 1e6
        out = lexicon.project(x, weights)
        _require(np.isfinite(out).all(), "projection produced non-finite output")
        inner = np.tanh(numerics.matmul(x[None, :], weights.w1)[0] + weights.b1)
        _require(np.all(np.abs(inner) <= 1.0), "tanh layer escaped [-1, 1]")


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
    ("projection output stays finite", _check_projection_finite),
]


def run_checks(
    seed: int = DEFAULT_SEED,
    cases: int = DEFAULT_CASES,
    softmax_impl: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[CheckResult]:
    """Run every property; returns one result per property, in listed order."""
    ctx = Context()
    if softmax_impl is not None:
        ctx.softmax = softmax_impl
    results = []
    for name, fn in PROPERTIES:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            fn(rng, cases, ctx)
            results.append(CheckResult(name, cases))
        except CheckFailure as failure:
            results.append(CheckResult(name, cases, str(failure)))
    return results
