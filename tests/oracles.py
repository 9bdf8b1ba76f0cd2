"""Independent straight-line re-implementations used as test oracles.

Everything in here is written with plain Python loops and the math module,
on purpose: these functions re-derive expected values through a different
route than the package's numpy kernels.  Keep them dumb.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from pathlib import Path


def matmul_triple_loop(a, b):
    rows, inner, cols = len(a), len(a[0]), len(b[0])
    assert len(b) == inner
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def load_embeddings_whole_file(path):
    """Reference for ``lexicon.load_embeddings`` that reads the whole text, then splits it.

    Returns ``(dim, {word: [floats]}, duplicates)`` or raises ValueError with
    the loader's message; the streamed loader must agree on both.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected 'count dim' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}, expected 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{path}: line 1: non-integer header {lines[0]!r}") from None
    if count < 0 or dim < 1:
        raise ValueError(f"{path}: line 1: bad header values {count} {dim}")
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: expected {count} entries, found {len(lines) - 1}")
    vectors = {}
    duplicates = 0
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ValueError(
                f"{path}: line {i}: expected a word and {dim} values, got {len(parts)} fields"
            )
        try:
            vec = [float(tok) for tok in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {i}: invalid number in vector") from None
        if not all(math.isfinite(v) for v in vec):
            raise ValueError(f"{path}: line {i}: non-finite value in vector")
        word = unicodedata.normalize("NFC", parts[0])
        duplicates += word in vectors
        vectors[word] = vec
    return dim, vectors, duplicates


def bundle_json_serial(tensors, names):
    """The bundle file ``save_bundle`` must write: one ``json.dumps`` of the whole object.

    ``tensors`` maps each name in ``names`` to a matrix given as nested rows.
    """
    obj = {}
    for name in names:
        rows = [[float(v) for v in row] for row in tensors[name]]
        obj[name] = {"rows": len(rows), "cols": len(rows[0]), "data": [v for row in rows for v in row]}
    return (json.dumps(obj) + "\n").encode("utf-8")


def cosine_direct(u, v):
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return dot / (nu * nv)


def vote_brute_force(sentence, tokenizations):
    """Majority-then-granularity voting, re-derived from scratch."""
    span_lists = []
    for words in tokenizations:
        assert "".join(words) == sentence
        spans, cursor = [], 0
        for w in words:
            assert w
            spans.append((cursor, cursor + len(w)))
            cursor += len(w)
        span_lists.append(spans)

    result = []
    cursor = 0
    while cursor < len(sentence):
        candidates = []
        for spans in span_lists:
            for start, stop in spans:
                if start == cursor:
                    candidates.append(sentence[start:stop])
        if candidates:
            counted = Counter(candidates)
            ranked = sorted(counted.items(), key=lambda kv: (-kv[1], -len(kv[0])))
            # a full (count, length) tie would mean two different words with
            # the same start and length, which is impossible
            if len(ranked) > 1:
                assert (ranked[0][1], len(ranked[0][0])) != (ranked[1][1], len(ranked[1][0]))
            word = ranked[0][0]
        else:
            word = sentence[cursor]
        result.append(word)
        cursor += len(word)
    return result


def project_straight_line(x, w1, b1, w2, b2):
    """tanh(x W1 + b1) W2 + b2 evaluated with explicit loops."""
    d_w, d_h = len(w1), len(w1[0])
    hidden = []
    for c in range(d_h):
        acc = b1[c]
        for r in range(d_w):
            acc += x[r] * w1[r][c]
        hidden.append(math.tanh(acc))
    out = []
    for c in range(d_h):
        acc = b2[c]
        for r in range(d_h):
            acc += hidden[r] * w2[r][c]
        out.append(acc)
    return out


def inject_straight_line(rows, scores, v, eps=1e-6):
    total = sum(scores)
    if abs(total) < eps:
        shares = [1.0 / len(scores)] * len(scores)
    else:
        shares = [s / total for s in scores]
    return [
        [rows[k][c] + shares[k] * v[c] for c in range(len(v))]
        for k in range(len(rows))
    ]


def mix_straight_line(rows, key_rel, lam):
    """The intra-word exchange evaluated row by row."""
    length = len(rows)
    if length == 1:
        return [list(rows[0])]
    f = math.exp(lam - 1.0)
    g = (1.0 - f) / (length - 1)
    width = len(rows[0])
    out = []
    for k in range(length):
        if k == key_rel:
            row = []
            for c in range(width):
                others = sum(rows[m][c] for m in range(length) if m != key_rel)
                row.append(f * rows[k][c] + g * others)
        else:
            row = [g * rows[key_rel][c] + (1.0 - g) * rows[k][c] for c in range(width)]
        out.append(row)
    return out


def softmax_row(scores):
    top = max(s for s in scores if s != -math.inf)
    exps = [0.0 if s == -math.inf else math.exp(s - top) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def attend_naive(h, wq, wk, wv, omega=None):
    """Single-head attention: loops, scaled by sqrt(full width)."""
    n, d_h = len(h), len(h[0])
    q = matmul_triple_loop(h, wq)
    k = matmul_triple_loop(h, wk)
    v = matmul_triple_loop(h, wv)
    scale = math.sqrt(d_h)
    out = []
    for i in range(n):
        scores = []
        for j in range(n):
            s = sum(q[i][c] * k[j][c] for c in range(d_h)) / scale
            if omega is not None and j not in omega:
                s = -math.inf
            scores.append(s)
        probs = softmax_row(scores)
        out.append([sum(probs[j] * v[j][c] for j in range(n)) for c in range(d_h)])
    return out


def pipeline_naive(sentence, spans, embeddings, unk, bundle, lam, mu):
    """Whole pipeline re-derived with the straight-line pieces above.

    ``spans`` holds (start, end) pairs with end inclusive; ``embeddings``
    maps words to vectors; ``bundle`` maps the canonical tensor names to
    nested lists.  Single head only.
    """
    h = [list(map(float, row)) for row in bundle["H"]]
    b1, b2 = bundle["b1"][0], bundle["b2"][0]
    omega = set()
    for start, end in spans:
        word = sentence[start : end + 1]
        x = embeddings.get(word, unk)
        v = project_straight_line(x, bundle["W1"], b1, bundle["W2"], b2)
        rows = [h[k] for k in range(start, end + 1)]
        scores = [cosine_direct(r, v) for r in rows]
        best = scores.index(max(scores))
        injected = inject_straight_line(rows, scores, v)
        mixed = mix_straight_line(injected, best, lam)
        for offset, row in enumerate(mixed):
            h[start + offset] = row
        omega.add(start + best)
    h1 = attend_naive(h, bundle["Wq1"], bundle["Wk1"], bundle["Wv1"])
    h2 = attend_naive(h, bundle["Wq2"], bundle["Wk2"], bundle["Wv2"], omega)
    fused = [
        [mu * h1[i][c] + (1.0 - mu) * h2[i][c] for c in range(len(h1[0]))]
        for i in range(len(h1))
    ]
    return fused, sorted(omega), h, h1, h2
