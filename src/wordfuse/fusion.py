"""Word-to-character fusion: similarity scores, injection, intra-word mixing.

Each word comes with its vector, already projected into the hidden space.
Per word span the steps are, in order: score each member character by
cosine similarity against the word vector, add each character its share of
the word vector (shares are the scores normalized by their sum), pick the
key character (highest score, first on ties), then mix the span so the key
character trades a small amount of information with the others.  Scoring,
injection and mixing take only the word's own k x d_h rows, and return new
ones.

Mixing keeps ``exp(lam - 1)`` of the key character's own state and spreads
the remainder evenly over the other characters, symmetrically pulling the
same share of each of them back into the key row.  Every output row is an
affine combination with coefficients summing to one, so per-span row sums
are preserved.  Single-character words are never mixed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .numerics import cosine, require_finite_result
from .segvote import Segmentation, WordSpan


@dataclass
class FusionConfig:
    """Pipeline knobs; lam and mu defaults follow the reference setting."""

    lam: float = 0.9  # key-information retention in [0, 1]
    mu: float = 0.5  # attention fusion coefficient in [0, 1]
    heads: int = 1
    eps_denom: ClassVar[float] = 1e-6  # score sums below this trigger uniform shares

    def validate(self, d_h: int) -> "FusionConfig":
        """Refuse settings of the wrong type or out of range, or heads that do not divide the hidden width d_h.

        ``lam`` and ``mu`` must be real numbers and ``heads`` an integer,
        NumPy scalars included; a ``bool`` is neither.
        """
        for name, value in (("lambda", self.lam), ("mu", self.mu)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if isinstance(self.heads, bool) or not isinstance(self.heads, numbers.Integral):
            raise ValueError(f"heads must be an integer, got {self.heads!r}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if d_h % self.heads:
            raise ValueError(f"d_h={d_h} is not divisible by heads={self.heads}")
        return self


@dataclass(frozen=True)
class WordAnalysis:
    """One word's projected vector, per-character scores, and key index."""

    span: WordSpan
    v: np.ndarray = field(compare=False)
    scores: np.ndarray = field(compare=False)
    key: int  # absolute character index of the key character


def analyze_word(rows: np.ndarray, span: WordSpan, v: np.ndarray) -> WordAnalysis:
    """Cosine of each of the word's k x d_h character ``rows`` against ``v``, and the key: the first maximum."""
    scores = np.array([cosine(r, v) for r in rows])
    return WordAnalysis(span=span, v=v, scores=scores, key=span.start + int(np.argmax(scores)))


def inject_word(rows: np.ndarray, wa: WordAnalysis, cfg: FusionConfig) -> np.ndarray:
    """The word's k x d_h rows, each plus its score-weighted share of the word vector.

    Shares are score_k / sum(scores).  A near-zero sum (|sum| < eps_denom)
    would blow the ratio up, so it falls back to uniform shares; either way
    the shares sum to one and the span gains exactly one word vector.
    """
    total = float(wa.scores.sum())
    if abs(total) < cfg.eps_denom:
        shares = np.full(len(wa.span), 1.0 / len(wa.span))
    else:
        shares = wa.scores / total
    return rows + shares[:, None] * wa.v


def mix_word(rows: np.ndarray, span: WordSpan, key: int, lam: float) -> np.ndarray:
    """Exchange information between the key character and the rest of a word.

    ``rows`` are the word's k x d_h rows and ``key`` the key character's
    absolute index.  Single-character words come back unchanged.  Otherwise,
    with keep = exp(lam - 1) and share = (1 - keep) / (k - 1):

    * key row      -> keep * own + share * sum(other rows)
    * every other  -> share * key row + (1 - share) * own

    All inputs are the pre-mix rows; updates never feed each other.
    """
    if len(span) == 1:
        return rows.copy()
    keep = math.exp(lam - 1.0)
    share = (1.0 - keep) / (len(span) - 1)
    key_row = rows[key - span.start]
    out = share * key_row + (1.0 - share) * rows
    out[key - span.start] = keep * key_row + share * (rows.sum(axis=0) - key_row)
    return out


def fuse_sequence(h, seg: Segmentation, vectors: Sequence[np.ndarray], cfg: FusionConfig
                  ) -> tuple[np.ndarray, set[int]]:
    """Run the per-word fusion over a whole sentence, word i with ``vectors[i]``.

    Returns the fused hidden matrix and the set of key-character indices
    (one per word; a single-character word contributes its sole index).
    ``h`` is copied once; each word's steps then read and write only its own
    rows of the copy.  Words cover disjoint rows, so processing order cannot
    change the result.  An overflow in injection and mixing is a ValueError
    naming that stage; NumPy's overflow warnings are silenced meanwhile.
    ``h`` (one row per character of the sentence), ``vectors`` (one d_h
    vector per word) and ``cfg`` are used as given: ``pipeline_forward``
    checks and makes them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(h, dtype=np.float64)  # the one copy
        omega: set[int] = set()
        for span, v in zip(seg.spans, vectors):
            at = slice(span.start, span.end + 1)
            wa = analyze_word(out[at], span, v)
            out[at] = mix_word(inject_word(out[at], wa, cfg), span, wa.key, cfg.lam)
            omega.add(wa.key)
        return require_finite_result(out, "word injection and mixing"), omega
