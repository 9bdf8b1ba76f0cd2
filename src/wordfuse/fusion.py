"""Word-to-character fusion: similarity scores, injection, intra-word mixing.

Per word span the steps are, in order: embed the word, project it into the
hidden space, score each member character by cosine similarity against the
projected vector, add each character its share of the word vector (shares
are the scores normalized by their sum), pick the key character (highest
score, first on ties), then mix the span so the key character trades a
small amount of information with the others.

Mixing keeps ``exp(lam - 1)`` of the key character's own state and spreads
the remainder evenly over the other characters, symmetrically pulling the
same share of each of them back into the key row.  Every output row is an
affine combination with coefficients summing to one, so per-span row sums
are preserved.  Single-character words are never mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lexicon import EmbeddingTable, ProjectionWeights, _nfc, lookup, project_rows
from .numerics import as_matrix, cosine, require_finite_result
from .segvote import Segmentation, WordSpan


@dataclass
class FusionConfig:
    """Pipeline knobs; lam and mu defaults follow the reference setting."""

    lam: float = 0.9  # key-information retention in [0, 1]
    mu: float = 0.5  # attention fusion coefficient in [0, 1]
    heads: int = 1
    d_w: int | None = None
    d_h: int | None = None
    eps_denom: float = 1e-6  # score sums below this trigger uniform shares

    def validate(self) -> "FusionConfig":
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.d_w is not None and self.d_w < 1:
            raise ValueError(f"d_w must be positive, got {self.d_w}")
        if self.d_h is not None:
            if self.d_h < 1:
                raise ValueError(f"d_h must be positive, got {self.d_h}")
            if self.d_h % self.heads:
                raise ValueError(f"d_h={self.d_h} is not divisible by heads={self.heads}")
        if self.eps_denom <= 0.0:
            raise ValueError(f"eps_denom must be positive, got {self.eps_denom}")
        return self


@dataclass(frozen=True)
class WordAnalysis:
    """One word's projected vector, per-character scores, and key index."""

    span: WordSpan
    v: np.ndarray = field(compare=False)
    scores: np.ndarray = field(compare=False)
    key: int  # absolute character index of the key character

    def __post_init__(self):
        if len(self.scores) != len(self.span):
            raise ValueError(
                f"scores length {len(self.scores)} != span length {len(self.span)}"
            )
        if not self.span.start <= self.key <= self.span.end:
            raise ValueError(f"key {self.key} outside span {self.span}")


def score_word(rows, v) -> np.ndarray:
    """Cosine similarity of each character row against the word vector."""
    rows = as_matrix(rows, "rows")
    if rows.shape[0] < 1:
        raise ValueError("score_word needs a non-empty span")
    return np.array([cosine(r, v) for r in rows])


def select_key(scores) -> int:
    """Index of the highest score; the first one on exact ties."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] < 1:
        raise ValueError("select_key needs a non-empty 1-D score array")
    return int(np.argmax(scores))


def analyze_word(h: np.ndarray, span: WordSpan, v: np.ndarray) -> WordAnalysis:
    scores = score_word(h[span.start : span.end + 1], v)
    return WordAnalysis(span=span, v=v, scores=scores, key=span.start + select_key(scores))


def inject_word(h, wa: WordAnalysis, cfg: FusionConfig) -> np.ndarray:
    """Add each span character its score-weighted share of the word vector.

    Shares are score_k / sum(scores).  A near-zero sum (|sum| < eps_denom)
    would blow the ratio up, so it falls back to uniform shares; either way
    the shares sum to one and the whole span gains exactly one word vector.
    """
    h = as_matrix(h, "h")
    total = float(wa.scores.sum())
    length = len(wa.span)
    if abs(total) < cfg.eps_denom:
        shares = np.full(length, 1.0 / length)
    else:
        shares = wa.scores / total
    out = h.copy()
    rows = slice(wa.span.start, wa.span.end + 1)
    out[rows] = h[rows] + shares[:, None] * wa.v
    return out


def mix_word(h_w, span: WordSpan, key: int, lam: float) -> np.ndarray:
    """Exchange information between the key character and the rest of a word.

    Single-character spans come back unchanged.  Otherwise, with
    keep = exp(lam - 1) and share = (1 - keep) / (span length - 1):

    * key row      -> keep * own + share * sum(other rows)
    * every other  -> share * key row + (1 - share) * own

    All inputs are the pre-mix rows; updates never feed each other.
    """
    h_w = as_matrix(h_w, "h_w")
    if not span.start <= key <= span.end:
        raise ValueError(f"key {key} outside span {span}")
    if len(span) == 1:
        return h_w.copy()
    keep = math.exp(lam - 1.0)
    share = (1.0 - keep) / (len(span) - 1)
    rows = h_w[span.start : span.end + 1]
    key_rel = key - span.start
    key_row = rows[key_rel]

    out = h_w.copy()
    out[span.start : span.end + 1] = share * key_row + (1.0 - share) * rows
    out[key] = keep * key_row + share * (rows.sum(axis=0) - key_row)
    return out


def fuse_sequence(
    h,
    seg: Segmentation,
    table: EmbeddingTable,
    weights: ProjectionWeights,
    cfg: FusionConfig,
) -> tuple[np.ndarray, set[int]]:
    """Run the per-word fusion over a whole sentence.

    Returns the fused hidden matrix and the set of key-character indices
    (one per word; a single-character word contributes its sole index).
    Words cover disjoint rows, so processing order cannot change the result.
    The sentence's distinct words (after NFC normalization) are projected in
    one batched call; rows are independent, so each word vector is the same
    bytes as a single-word ``project``.  An overflow in the projection or in
    injection and mixing is a ValueError naming that stage.
    """
    h = as_matrix(h, "h")
    cfg.validate()
    if h.shape[0] != len(seg.sentence):
        raise ValueError(
            f"hidden matrix has {h.shape[0]} rows, sentence has {len(seg.sentence)} characters"
        )
    words = [_nfc(word) for word in seg.words]
    distinct = list(dict.fromkeys(words))
    embedded = np.array([lookup(table, word) for word in distinct]).reshape(len(distinct), table.dim)
    projected = require_finite_result(project_rows(embedded, weights), "word projection")
    vectors = dict(zip(distinct, projected))
    out = h
    omega: set[int] = set()
    for span, word in zip(seg.spans, words):
        wa = analyze_word(out, span, vectors[word])
        out = inject_word(out, wa, cfg)
        out = mix_word(out, span, wa.key, cfg.lam)
        omega.add(wa.key)
    return require_finite_result(out, "word injection and mixing"), omega
