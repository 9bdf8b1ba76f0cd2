"""Independent reference for checking the program's outputs.

Nothing here imports wordfuse.  The vote is the majority/granularity scan
written out again; the pipeline uses NumPy's BLAS products instead of the
package's pinned-order kernels, so its results agree with the program's to
rounding (see FUSED_TOL), not bit for bit.  The weights are re-derived
from the SplitMix64 stream that ``wordfuse init-weights`` documents.
"""

from __future__ import annotations

import math

import numpy as np

# Fused values must agree to FUSED_TOL times the output's largest magnitude
# (at least 1).  A word whose cosine scores sum to near zero (|total| just
# above EPS_DENOM) gets injection shares up to ~1e6 times its scores, which
# scales both the values and their rounding: two correct evaluation orders
# then differ by ~1e-11 of the largest value, far above 1e-16 but far below
# the error of any wrong step.
FUSED_TOL = 1e-9
LAM, MU = 0.9, 0.5
EPS_DENOM = 1e-6
DEGENERATE_NORM = 1e-12
TENSORS = ("W1", "W2", "Wq1", "Wk1", "Wv1", "Wq2", "Wk2", "Wv2")

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def splitmix_units(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start+1 .. start+count of SplitMix64(seed), as doubles in [0, 1)."""
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed % 2**64) + k * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def init_weights(seed: int, d_w: int, d_h: int) -> dict[str, np.ndarray]:
    """The bundle ``init-weights --seed seed`` writes; biases are zero."""
    out, drawn = {}, 0
    for name in TENSORS:
        rows = d_w if name == "W1" else d_h
        units = splitmix_units(seed, drawn, rows * d_h)
        drawn += rows * d_h
        out[name] = ((units * 2.0 - 1.0) * (1.0 / math.sqrt(d_h))).reshape(rows, d_h)
    return out


def vote(sentence: str, tokenizations) -> list[str]:
    proposals = []
    for t in tokenizations:
        starts, cursor = {}, 0
        for w in t:
            starts[cursor] = w
            cursor += len(w)
        proposals.append(starts)
    words, cursor = [], 0
    while cursor < len(sentence):
        counts: dict[str, int] = {}
        for p in proposals:
            if cursor in p:
                counts[p[cursor]] = counts.get(p[cursor], 0) + 1
        best = max(counts, key=lambda w: (counts[w], len(w))) if counts else sentence[cursor]
        words.append(best)
        cursor += len(best)
    return words


def _softmax(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _attend(x, wq, wk, wv, keep_cols=None):
    scores = (x @ wq) @ (x @ wk).T / math.sqrt(x.shape[1])
    if keep_cols is not None:
        masked = np.full(scores.shape, -np.inf)
        masked[:, keep_cols] = scores[:, keep_cols]
        scores = masked
    return _softmax(scores) @ (x @ wv)


def pipeline(h: np.ndarray, words, vector, w: dict[str, np.ndarray]) -> np.ndarray:
    """Fused output for hidden states h and a segmentation given as words."""
    out = np.array(h, dtype=np.float64)
    omega, start = [], 0
    for word in words:
        end = start + len(word)
        v = np.tanh(vector(word) @ w["W1"]) @ w["W2"]
        rows = out[start:end]
        norms = np.sqrt((rows * rows).sum(axis=1))
        nv = math.sqrt(float(v @ v))
        ok = (norms >= DEGENERATE_NORM) & (nv >= DEGENERATE_NORM)
        scores = np.where(ok, rows @ v / np.where(ok, norms * nv, 1.0), 0.0)
        total = scores.sum()
        shares = np.full(len(word), 1.0 / len(word)) if abs(total) < EPS_DENOM else scores / total
        rows = rows + shares[:, None] * v
        key = int(np.argmax(scores))
        if len(word) > 1:
            keep = math.exp(LAM - 1.0)
            share = (1.0 - keep) / (len(word) - 1)
            mixed = share * rows[key] + (1.0 - share) * rows
            mixed[key] = keep * rows[key] + share * (rows.sum(axis=0) - rows[key])
            rows = mixed
        out[start:end] = rows
        omega.append(start + key)
        start = end
    h1 = _attend(out, w["Wq1"], w["Wk1"], w["Wv1"])
    h2 = _attend(out, w["Wq2"], w["Wk2"], w["Wv2"], keep_cols=sorted(omega))
    return MU * h1 + (1.0 - MU) * h2


def parse_matrix(text: str) -> np.ndarray:
    lines = text.split("\n")
    rows, cols = map(int, lines[0].split())
    return np.array([float(t) for line in lines[1 : rows + 1] for t in line.split()]).reshape(rows, cols)


def close(got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return bool(np.all(np.abs(got - want) <= FUSED_TOL * scale))
