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
cannot change a pinned-order sum.  The plain branch takes the same path
with every column in omega.

``pipeline_forward`` takes the six attention matrices from the weight
bundle by name: ``Wq1``, ``Wk1``, ``Wv1`` for the plain branch and ``Wq2``,
``Wk2``, ``Wv2`` for the masked one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fusion import FusionConfig, fuse_sequence
from .lexicon import EmbeddingTable, check_bundle, check_bundle_shapes, project_words
from .numerics import as_matrix, matmul, require_finite, require_finite_result, softmax_rows
from .segvote import Segmentation


@dataclass(frozen=True)
class MaskSpec:
    """Which column indices stay visible to the masked attention branch.

    ``omega`` is non-empty and each index lies in ``[0, n)``, as the key
    characters ``pipeline_forward`` passes always are; nothing checks it.
    """

    n: int
    omega: frozenset[int]


def _head_probabilities(h, wq, wk, heads, mask):
    """Per-head n x n probabilities and the visible columns (all of them when ``mask`` is None).

    Keys and scores are computed only at the visible columns.  Scores that
    overflow are a ValueError naming the branch, raised before the softmax
    sees them, so it gets what it assumes: finite visible columns, -inf
    elsewhere.
    """
    n, d_h = h.shape
    visible = np.arange(n) if mask is None else np.array(sorted(mask.omega))
    q = matmul(h, wq)
    k = matmul(h[visible], wk)
    scale = math.sqrt(d_h)  # full width by definition, independent of heads
    width = d_h // heads
    probs = []
    for i in range(heads):
        cols = slice(i * width, (i + 1) * width)
        scores = matmul(q[:, cols], k[:, cols].T) / scale
        require_finite_result(scores, f"{_branch(mask)} attention scores")
        full = np.full((n, n), -np.inf)
        full[:, visible] = scores
        probs.append(softmax_rows(full))
    return probs, visible


def _branch(mask: MaskSpec | None) -> str:
    return "plain" if mask is None else "masked"


def attend(h, wq, wk, wv, heads: int = 1, mask: MaskSpec | None = None) -> np.ndarray:
    """Self-attention with column-sliced heads, concatenated back in order.

    ``h`` is a 2-D float64 array, ``heads`` must divide its width and
    ``mask`` must be for its rows: ``pipeline_forward`` checks these and
    builds the mask.  No mask is the mask that leaves every column visible.
    An overflow in the scores or in the output is a ValueError naming the
    branch and the step; NumPy's overflow warnings are silenced meanwhile,
    on whichever thread this runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        probs, visible = _head_probabilities(h, wq, wk, heads, mask)
        v = matmul(h[visible], wv)
        width = h.shape[1] // heads
        outs = [matmul(p[:, visible], v[:, i * width : (i + 1) * width]) for i, p in enumerate(probs)]
        return require_finite_result(np.concatenate(outs, axis=1), f"{_branch(mask)} attention output")


def masked_attention_weights(h, wq, wk, heads: int = 1, mask: MaskSpec | None = None) -> np.ndarray:
    """Post-softmax attention probabilities, shaped (heads, n, n); arguments as for ``attend``."""
    return np.stack(_head_probabilities(h, wq, wk, heads, mask)[0])


def fuse_heads_output(h1, h2, mu: float) -> np.ndarray:
    """Convex combination mu*h1 + (1-mu)*h2 of the two branch outputs."""
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
    """The whole pipeline: ``project_words``, ``fuse_sequence``, then both attention branches.

    Before any stage, ``h`` must be real, have rows, one per character of
    the sentence, and be finite; every bundle tensor must be present and shaped
    for the table's width and the width of ``h``, ``W1`` and ``b1`` must be
    finite, and ``cfg`` is validated against the width of ``h``.  The stages
    check none of this again.  An overflow is a ValueError naming the first
    stage whose result holds inf or NaN.  The other tensors are not scanned
    on each call: an inf or NaN in one reaches every row of its stage's
    result, and when any stage fails ``check_bundle`` names such a tensor
    instead of the stage.  ``tanh`` would turn an inf in ``x W1 + b1`` into
    +-1, which no stage check sees, so those two are scanned first.  Each
    stage silences NumPy's overflow warnings and checks its own result.  The
    branch fusion is a convex combination of finite values and needs no
    check.

    The two branches run side by side: the masked one on a second thread
    while this one computes the plain one.  The compiled matmul runs
    outside Python's interpreter lock and each branch reads its own three
    weights, so on two cores they overlap; every entry is computed as when
    they ran in turn, so the bytes do not change.  The call waits for both
    branches and leaves no thread behind.  When both fail, the plain
    branch's error is the one raised, as when they ran in turn.  Both
    branches' temporaries are live at once, so peak memory rises a little.
    """
    if np.iscomplexobj(h):
        raise ValueError("hidden matrix must be real, got complex entries")
    h = as_matrix(h, "h")
    if h.shape[0] == 0:
        raise ValueError("hidden matrix has no rows")
    if h.shape[0] != len(seg.sentence):
        raise ValueError(
            f"hidden matrix has {h.shape[0]} rows, sentence has {len(seg.sentence)} characters"
        )
    require_finite(h, "hidden matrix")
    check_bundle_shapes(bundle, table.dim, h.shape[1])
    require_finite(bundle["W1"], "weight bundle: W1")
    require_finite(bundle["b1"], "weight bundle: b1")
    cfg.validate(h.shape[1])
    try:
        mixed, omega = fuse_sequence(h, seg, project_words(table, seg.words, bundle), cfg)
        mask = MaskSpec(n=mixed.shape[0], omega=frozenset(omega))
        # leaving the pool waits for the masked branch, so a plain branch's error is raised first
        with ThreadPoolExecutor(1) as pool:
            masked = pool.submit(attend, mixed, bundle["Wq2"], bundle["Wk2"], bundle["Wv2"], cfg.heads, mask=mask)
            h1 = attend(mixed, bundle["Wq1"], bundle["Wk1"], bundle["Wv1"], cfg.heads, mask=None)
            h2 = masked.result()
    except ValueError:
        check_bundle(bundle, table.dim, h.shape[1])
        raise
    fused = fuse_heads_output(h1, h2, cfg.mu)
    return PipelineResult(
        mixed=mixed, omega=tuple(sorted(omega)), h1=h1, h2=h2, fused=fused
    )
