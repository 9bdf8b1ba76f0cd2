"""Ensemble word segmentation by voting.

Several tokenizers segment the same sentence; this module merges their
outputs into a single segmentation with a greedy left-to-right scan:

* majority rule — at the current cursor, each tokenization that starts a
  word exactly there proposes that word; the proposal made by the most
  tokenizations wins.  Tokenizations whose cursor position falls in the
  middle of one of their words stay silent at that position.
* granularity rule — when two proposals are equally frequent, the longer
  word wins.

Two distinct proposals can never tie on both count and length (same start
plus same length means the same substring), so the scan is deterministic.

All indices are Unicode scalar positions, never bytes — byte offsets are
wrong for CJK text.  Word spans are (start, end) with end inclusive.

Tokenizations arrive as plain word lists (data, not tokenizer calls); the
expected JSON-lines record shape is
``{"sentence": "...", "tokenizations": [["w1", "w2", ...], ...]}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence


class WordSpan(NamedTuple):
    start: int
    end: int  # inclusive

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Segmentation:
    """A partition of a sentence into word spans, in order."""

    sentence: str
    spans: tuple[WordSpan, ...]

    def __post_init__(self):
        cursor = 0
        for span in self.spans:
            if span.start != cursor or span.end < span.start:
                raise ValueError(f"spans are not a contiguous partition at index {cursor}")
            cursor = span.end + 1
        if cursor != len(self.sentence):
            raise ValueError(
                f"spans cover {cursor} characters, sentence has {len(self.sentence)}"
            )

    @property
    def words(self) -> list[str]:
        return [self.sentence[s.start : s.end + 1] for s in self.spans]


def validate_tokenization(sentence: str, words: Sequence[str]) -> Segmentation:
    """Convert a word list into spans, checking it partitions the sentence."""
    spans = []
    cursor = 0
    for word in words:
        if not word:
            raise ValueError(f"empty word at character index {cursor}")
        end = cursor + len(word)
        if sentence[cursor:end] != word:
            # report the first character where the word and sentence diverge
            for offset, ch in enumerate(word):
                idx = cursor + offset
                if idx >= len(sentence) or sentence[idx] != ch:
                    raise ValueError(
                        f"tokenization diverges from sentence at character index {idx}"
                    )
        spans.append(WordSpan(cursor, end - 1))
        cursor = end
    if cursor != len(sentence):
        raise ValueError(
            f"tokenization diverges from sentence at character index {cursor}"
        )
    return Segmentation(sentence, tuple(spans))


def vote(sentence: str, tokenizations: Sequence[Sequence[str]]) -> Segmentation:
    """Merge tokenizations with the majority and granularity rules.

    Works for any number of voters >= 1 (the ensemble was designed around
    three).  With a single voter the input segmentation is returned as is.
    """
    if not tokenizations:
        raise ValueError("vote needs at least one tokenization")
    proposals = []  # per tokenization: word-start index -> word
    for t in tokenizations:
        seg = validate_tokenization(sentence, t)
        proposals.append({span.start: sentence[span.start : span.end + 1] for span in seg.spans})

    spans = []
    cursor = 0
    n = len(sentence)
    while cursor < n:
        counts: dict[str, int] = {}
        for table in proposals:
            word = table.get(cursor)
            if word is not None:
                counts[word] = counts.get(word, 0) + 1
        # never empty: each voter partitions the sentence, so the cursor lands
        # where the last winner's voter starts its next word (0 at first)
        best, _ = max(counts.items(), key=lambda kv: (kv[1], len(kv[0])))
        spans.append(WordSpan(cursor, cursor + len(best) - 1))
        cursor += len(best)
    return Segmentation(sentence, tuple(spans))


@dataclass(frozen=True)
class AgreementReport:
    """Boundary-agreement diagnostics over one sentence's tokenizations."""

    num_tokenizations: int
    start_counts: dict[int, int] = field(compare=False)
    shared_starts: tuple[int, ...] = ()
    all_starts: tuple[int, ...] = ()

    @property
    def agreement(self) -> float:
        """Fraction of proposed word starts shared by every tokenization."""
        if not self.all_starts:
            return 1.0
        return len(self.shared_starts) / len(self.all_starts)


def agreement_stats(tokenizations: Sequence[Sequence[str]]) -> AgreementReport:
    """Count shared word-start positions across tokenizations of one sentence."""
    if len(tokenizations) < 2:
        raise ValueError("agreement_stats needs at least two tokenizations")
    totals = {sum(len(w) for w in t) for t in tokenizations}
    if len(totals) != 1:
        raise ValueError(f"tokenizations cover different lengths: {sorted(totals)}")

    start_sets = []
    for t in tokenizations:
        starts, cursor = set(), 0
        for word in t:
            if not word:
                raise ValueError("empty word in tokenization")
            starts.add(cursor)
            cursor += len(word)
        start_sets.append(starts)

    counts: dict[int, int] = {}
    for starts in start_sets:
        for s in starts:
            counts[s] = counts.get(s, 0) + 1
    shared = set.intersection(*start_sets)
    union = set.union(*start_sets)
    return AgreementReport(
        num_tokenizations=len(tokenizations),
        start_counts=dict(sorted(counts.items())),
        shared_starts=tuple(sorted(shared)),
        all_starts=tuple(sorted(union)),
    )
