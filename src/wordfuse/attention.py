"""Plain and masked self-attention over the fused hidden states.

Both branches follow the written equations literally: scores are scaled by
the square root of the FULL hidden width (not the per-head width), and head
outputs are concatenated with no output projection.  Future extensions that
add either of those change the semantics and must say so loudly.

The masked branch adds, before the softmax, a matrix that is 0 in columns
whose index is in omega (the key-character positions) and -inf elsewhere,
so masked columns get an attention weight of exactly zero.  It computes
keys, values and scores only at the omega positions: the softmax still sees
the full n x n matrix (-inf outside omega), and the value product skips the
masked columns, whose products with a zero weight are exact zeros that
cannot change a pinned-order sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fusion import FusionConfig, fuse_sequence
from .lexicon import EmbeddingTable, projection_from_bundle
from .numerics import as_matrix, matmul, require_finite, require_finite_result, softmax_rows
from .segvote import Segmentation


@dataclass(frozen=True)
class MaskSpec:
    """Which column indices stay visible to the masked attention branch."""

    n: int
    omega: frozenset[int]

    def __post_init__(self):
        if not self.omega:
            raise ValueError("omega must not be empty")
        if not all(0 <= i < self.n for i in self.omega):
            raise ValueError(f"omega indices must lie in [0, {self.n})")


def mask_matrix(spec: MaskSpec) -> np.ndarray:
    """n x n additive mask: 0 in omega columns, -inf everywhere else."""
    row = np.full(spec.n, -np.inf)
    row[sorted(spec.omega)] = 0.0
    return np.tile(row, (spec.n, 1))


@dataclass(frozen=True)
class AttentionWeights:
    """The six projection matrices of the two attention branches."""

    wq1: np.ndarray = field(compare=False)
    wk1: np.ndarray = field(compare=False)
    wv1: np.ndarray = field(compare=False)
    wq2: np.ndarray = field(compare=False)
    wk2: np.ndarray = field(compare=False)
    wv2: np.ndarray = field(compare=False)

    def __post_init__(self):
        names = ("wq1", "wk1", "wv1", "wq2", "wk2", "wv2")
        d_h = self.wq1.shape[0]
        for name in names:
            m = getattr(self, name)
            if m.shape != (d_h, d_h):
                raise ValueError(f"{name} must be {d_h}x{d_h}, got {m.shape[0]}x{m.shape[1]}")
            require_finite(m, name)

    @classmethod
    def from_bundle(cls, bundle: Mapping[str, np.ndarray]) -> "AttentionWeights":
        return cls(
            wq1=bundle["Wq1"], wk1=bundle["Wk1"], wv1=bundle["Wv1"],
            wq2=bundle["Wq2"], wk2=bundle["Wk2"], wv2=bundle["Wv2"],
        )

    @property
    def d_h(self) -> int:
        return self.wq1.shape[0]


def _head_probabilities(h, wq, wk, heads, mask):
    """Per-head n x n probabilities and the visible columns (None: all of them).

    Keys and scores are computed only at the visible columns.  Masked scores
    are ``score / scale + 0.0``, as if the 0 / -inf mask had been added, so
    the softmax input is the same matrix either way.  Scores that overflow
    are a ValueError naming the branch, raised before the softmax sees them.
    """
    n, d_h = h.shape
    if d_h % heads:
        raise ValueError(f"d_h={d_h} is not divisible by heads={heads}")
    visible = None
    if mask is not None:
        if mask.n != n:
            raise ValueError(f"mask is for n={mask.n}, hidden matrix has n={n}")
        visible = np.array(sorted(mask.omega))
    q = matmul(h, wq)
    k = matmul(h if visible is None else h[visible], wk)
    scale = math.sqrt(d_h)  # full width by definition, independent of heads
    width = d_h // heads
    probs = []
    for i in range(heads):
        cols = slice(i * width, (i + 1) * width)
        scores = matmul(q[:, cols], k[:, cols].T) / scale
        require_finite_result(scores, f"{_branch(mask)} attention scores")
        if visible is not None:
            full = np.full((n, n), -np.inf)
            full[:, visible] = scores + 0.0
            scores = full
        probs.append(softmax_rows(scores))
    return probs, visible


def _branch(mask: MaskSpec | None) -> str:
    return "plain" if mask is None else "masked"


def attend(h, wq, wk, wv, heads: int = 1, mask: MaskSpec | None = None) -> np.ndarray:
    """Self-attention with column-sliced heads, concatenated back in order.

    An overflow in the scores or in the output is a ValueError naming the
    branch and the step.
    """
    h = as_matrix(h, "h")
    probs, visible = _head_probabilities(h, wq, wk, heads, mask)
    if visible is not None:
        h = h[visible]
        probs = [p[:, visible] for p in probs]
    v = matmul(h, wv)
    width = h.shape[1] // heads
    outs = [
        matmul(p, v[:, i * width : (i + 1) * width]) for i, p in enumerate(probs)
    ]
    return require_finite_result(np.concatenate(outs, axis=1), f"{_branch(mask)} attention output")


def masked_attention_weights(h, wq, wk, heads: int = 1, mask: MaskSpec | None = None) -> np.ndarray:
    """Post-softmax attention probabilities, shaped (heads, n, n)."""
    return np.stack(_head_probabilities(as_matrix(h, "h"), wq, wk, heads, mask)[0])


def fuse_heads_output(h1, h2, mu: float) -> np.ndarray:
    """Convex combination mu*h1 + (1-mu)*h2 of the two branch outputs."""
    h1 = as_matrix(h1, "h1")
    h2 = as_matrix(h2, "h2")
    if h1.shape != h2.shape:
        raise ValueError(
            f"fuse shape mismatch: {h1.shape[0]}x{h1.shape[1]} vs {h2.shape[0]}x{h2.shape[1]}"
        )
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return mu * h1 + (1.0 - mu) * h2


@dataclass(frozen=True)
class PipelineResult:
    """Final output plus the intermediates worth dumping for debugging."""

    mixed: np.ndarray  # hidden states after injection and mixing
    omega: tuple[int, ...]  # sorted key-character indices
    h1: np.ndarray  # plain attention branch
    h2: np.ndarray  # masked attention branch
    fused: np.ndarray  # mu * h1 + (1 - mu) * h2


def pipeline_forward(
    h,
    seg: Segmentation,
    table: EmbeddingTable,
    bundle: Mapping[str, np.ndarray],
    cfg: FusionConfig,
) -> PipelineResult:
    """The whole pipeline: fuse words in, then both attention branches.

    An overflow is a ValueError naming the first stage whose result holds
    inf or NaN.  NumPy's overflow warnings are silenced meanwhile: the stages
    check their own results.  The branch fusion is a convex combination of
    finite values and needs no check.
    """
    cfg.validate()
    projection = projection_from_bundle(bundle)
    attn = AttentionWeights.from_bundle(bundle)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed, omega = fuse_sequence(h, seg, table, projection, cfg)
        mask = MaskSpec(n=mixed.shape[0], omega=frozenset(omega))
        h1 = attend(mixed, attn.wq1, attn.wk1, attn.wv1, cfg.heads, mask=None)
        h2 = attend(mixed, attn.wq2, attn.wk2, attn.wv2, cfg.heads, mask=mask)
    fused = fuse_heads_output(h1, h2, cfg.mu)
    return PipelineResult(
        mixed=mixed, omega=tuple(sorted(omega)), h1=h1, h2=h2, fused=fused
    )
