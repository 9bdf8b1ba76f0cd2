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
wrong for CJK text.  A segmentation stores each word's start, then the sentence's
length; its words and its spans, (start, end) with end inclusive, are views.

Tokenizations arrive as plain word lists (data, not tokenizer calls); the
expected JSON-lines record shape is
``{"sentence": "...", "tokenizations": [["w1", "w2", ...], ...]}``.

Each voter's partition is checked once, by one test, ``_starts``: its words
are non-empty and join to the sentence (a voter that fails is walked word by
word to name the index).  Starts from outside are checked by ``Segmentation.__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence


class WordSpan(NamedTuple):
    start: int
    end: int  # inclusive

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Segmentation:
    """A partition of a sentence into words: each word's start, then the sentence's length."""

    sentence: str
    starts: tuple[int, ...]

    def __post_init__(self):
        s = self.starts
        if not (s and s[0] == 0 and s[-1] == len(self.sentence) and all(a < b for a, b in zip(s, s[1:]))):
            raise ValueError(f"word starts must rise strictly from 0 to the sentence's length {len(self.sentence)}")

    @property
    def words(self) -> list[str]:
        s = self.starts
        return [self.sentence[a:b] for a, b in zip(s, s[1:])]

    @property
    def spans(self) -> list[WordSpan]:
        s = self.starts
        return [WordSpan(a, b - 1) for a, b in zip(s, s[1:])]


def _starts(sentence: str, words: Sequence[str]) -> Iterator[int]:
    """The start of each word (then the sentence's length), once the words partition the sentence."""
    if not (all(words) and "".join(words) == sentence):
        cursor = 0
        for word in words:
            if not word:
                raise ValueError(f"empty word at character index {cursor}")
            # report the first character where the word and sentence diverge
            for idx, ch in enumerate(word, start=cursor):
                if idx >= len(sentence) or sentence[idx] != ch:
                    raise ValueError(f"tokenization diverges from sentence at character index {idx}")
            cursor += len(word)
        raise ValueError(f"tokenization diverges from sentence at character index {cursor}")
    return accumulate(map(len, words), initial=0)


def vote(sentence: str, tokenizations: Sequence[Sequence[str]]) -> Segmentation:
    """Merge tokenizations with the majority and granularity rules.

    Works for any number of voters >= 1 (the ensemble was designed around
    three).  With a single voter the input segmentation is returned as is.
    """
    if not tokenizations:
        raise ValueError("vote needs at least one tokenization")
    tables = [dict(zip(_starts(sentence, t), t)) for t in tokenizations]  # word start -> word

    starts = [0]
    cursor = 0
    while cursor < len(sentence):
        # never empty: each voter partitions the sentence, so the cursor lands
        # where the last winner's voter starts its next word (0 at first)
        words = [table[cursor] for table in tables if cursor in table]
        best = max(words, key=lambda w: (words.count(w), len(w)))
        cursor += len(best)
        starts.append(cursor)
    return Segmentation(sentence, tuple(starts))


class AgreementReport(NamedTuple):
    """Boundary agreement over one sentence's tokenizations."""

    agreement: float  # share of proposed word starts that every tokenization proposes; 1.0 when none is


def agreement_stats(tokenizations: Sequence[Sequence[str]]) -> AgreementReport:
    """The share of word starts that every tokenization of one sentence proposes.

    The sentence is the first tokenization's words joined; each is checked
    against it by ``_starts``, as ``vote`` checks its voters.
    """
    if len(tokenizations) < 2:
        raise ValueError("agreement_stats needs at least two tokenizations")
    sentence = "".join(tokenizations[0])
    # each tokenization's starts end at the sentence's length, which starts no word
    start_sets = [set(_starts(sentence, t)) - {len(sentence)} for t in tokenizations]
    proposed = set.union(*start_sets)
    return AgreementReport(len(set.intersection(*start_sets)) / len(proposed) if proposed else 1.0)
