"""Word embedding table and the word-to-hidden projection.

The embedding file is the word2vec text layout: a ``"V dim"`` header, then
one ``word f1 ... f_dim`` line per entry.  Words are matched by exact string
equality after NFC normalization (applied both at load and at lookup).

Out-of-vocabulary words fall back to the vector stored under ``<unk>`` when
the file provides one, else to all zeros.  Embeddings are frozen: nothing in
this package trains or updates them.

The weight bundle is a JSON object carrying every trainable tensor of the
pipeline as ``{"rows": r, "cols": c, "data": [...]}`` (or a string path to a
matrix text file, resolved relative to the bundle).  Bias vectors are stored
as 1 x d_h matrices so the same tensor codec covers everything.
"""

from __future__ import annotations

import json
import logging
import os
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import numerics
from ._child import _in_child
from .numerics import as_matrix, as_vector, matmul, require_finite

log = logging.getLogger(__name__)

# every tensor a complete bundle must carry, in serialization order
BUNDLE_TENSORS = ("W1", "b1", "W2", "b2", "Wq1", "Wk1", "Wv1", "Wq2", "Wk2", "Wv2")

UNK_TOKEN = "<unk>"

# JSON names of the types json.loads produces, for error messages
_JSON_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "list", dict: "object"}


def _nfc(word: str) -> str:
    return unicodedata.normalize("NFC", word)


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    unk: np.ndarray
    duplicates: int = 0

    def __contains__(self, word: str) -> bool:
        return _nfc(word) in self.vectors


def _logical_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` for each line of a UTF-8 text file, one at a time.

    Lines split exactly where ``str.splitlines()`` splits the decoded text:
    the file is read one ``\\n``-terminated piece at a time (UTF-8 never has
    that byte inside a character) and each piece is split again, so CR, CRLF
    and the other Unicode line boundaries (U+2028, ``\\x85``, ...) count as
    they do for the whole text.
    """
    lineno = 0
    with open(path, "rb") as f:
        for piece in f:
            try:
                text = piece.decode("utf-8")
            except UnicodeDecodeError as err:
                raise numerics.not_utf8(path, err, lineno + 1) from None
            for line in text.splitlines():
                lineno += 1
                yield lineno, line


def load_embeddings(path: str | os.PathLike) -> EmbeddingTable:
    """Load a word2vec-style text file; duplicate words keep the last vector.

    The file is read line by line into one ``(count, dim)`` array, and each
    table vector is a row of it.  Trailing whitespace-only lines are ignored;
    a blank line before the last entry is an entry with no fields.  A wrong
    header comes first, then a wrong number of entries, then the first bad
    entry line, as if every line had been checked in order.
    """
    count = dim = None
    words: list[str] = []
    entries = 0  # entry lines so far, blank ones before a later entry included
    blanks = 0  # blank lines not yet known to be inner or trailing
    error = None  # first bad entry line; reported once the entry count is known to be right
    for lineno, line in _logical_lines(path):
        parts = line.split()
        if lineno == 1:
            header = line
        if not parts:
            blanks += 1
            continue
        if count is None:
            # the first non-blank line; it is the header only when it is line 1
            fields = header.split()
            if len(fields) != 2:
                raise ValueError(f"{path}: line 1: malformed header {header!r}, expected 'count dim'")
            try:
                count, dim = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"{path}: line 1: non-integer header {header!r}") from None
            if count < 0 or dim < 1:
                raise ValueError(f"{path}: line 1: bad header values {count} {dim}")
            # grown as entries arrive: the header alone must not size an allocation
            rows = np.empty((0, dim))
            continue
        if blanks and error is None:
            error = f"line {lineno - blanks}: expected a word and {dim} values, got 0 fields"
        entries += blanks + 1
        blanks = 0
        if error is not None or entries > count:
            continue
        if len(parts) != dim + 1:
            error = f"line {lineno}: expected a word and {dim} values, got {len(parts)} fields"
            continue
        try:
            values = list(map(float, parts[1:]))
        except ValueError:
            error = f"line {lineno}: invalid number in vector"
            continue
        if len(words) == len(rows):
            grown = np.empty((min(count, 2 * len(rows) + 1), dim))
            grown[: len(rows)] = rows
            rows = grown
        rows[len(words)] = values
        words.append(_nfc(parts[0]))
    if count is None:
        raise ValueError(f"{path}: line 1: empty file, expected 'count dim' header")
    if entries != count:
        raise ValueError(f"{path}: expected {count} entries, found {entries}")
    # the rows read all precede the first bad line, and row i sits on line i + 2
    bad = np.flatnonzero(~np.isfinite(rows[: len(words)]).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {bad[0] + 2}: non-finite value in vector")
    if error is not None:
        raise ValueError(f"{path}: {error}")

    vectors = dict(zip(words, rows))
    duplicates = len(words) - len(vectors)
    if duplicates:
        log.warning("%s: %d duplicate words, last occurrence kept", path, duplicates)

    unk = vectors.get(UNK_TOKEN)
    if unk is None:
        unk = np.zeros(dim)
    return EmbeddingTable(dim=dim, vectors=vectors, unk=unk, duplicates=duplicates)


def lookup(table: EmbeddingTable, word: str) -> np.ndarray:
    """Stored vector for the word, or the table's fallback vector.

    Returns a copy so callers cannot corrupt the table in place.
    """
    return table.vectors.get(_nfc(word), table.unk).copy()


@dataclass(frozen=True)
class ProjectionWeights:
    """Two-layer map from word-embedding space into the hidden space."""

    w1: np.ndarray  # d_w x d_h
    b1: np.ndarray  # d_h
    w2: np.ndarray  # d_h x d_h
    b2: np.ndarray  # d_h

    def __post_init__(self):
        d_w, d_h = self.w1.shape
        if self.b1.shape != (d_h,) or self.w2.shape != (d_h, d_h) or self.b2.shape != (d_h,):
            raise ValueError(
                "projection shapes inconsistent: "
                f"W1 {self.w1.shape}, b1 {self.b1.shape}, W2 {self.w2.shape}, b2 {self.b2.shape}"
            )
        for name in ("w1", "b1", "w2", "b2"):
            require_finite(getattr(self, name), name)

    @property
    def d_w(self) -> int:
        return self.w1.shape[0]

    @property
    def d_h(self) -> int:
        return self.w1.shape[1]


def project_rows(x, weights: ProjectionWeights) -> np.ndarray:
    """tanh(X W1 + b1) W2 + b2 for a stack of word vectors, one per row.

    Rows never mix under the pinned matmul order and tanh acts per element,
    so row i equals ``project(x[i])`` byte for byte.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != weights.d_w:
        raise ValueError(f"project expected length-{weights.d_w} vectors, got {x.shape[1]}")
    hidden = np.tanh(matmul(x, weights.w1) + weights.b1)
    return matmul(hidden, weights.w2) + weights.b2


def project(x, weights: ProjectionWeights) -> np.ndarray:
    """tanh(x W1 + b1) W2 + b2 for a single word vector."""
    return project_rows(as_vector(x, "x")[None, :], weights)[0]


def _decode_tensor(name: str, obj, base_dir: Path) -> np.ndarray:
    if isinstance(obj, str):
        return numerics.read_matrix(base_dir / obj)
    where = f"bundle tensor {name!r}"
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object or a path string, got {_JSON_KINDS[type(obj)]}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"{where}: {key}: missing")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    for key, dim in (("rows", rows), ("cols", cols)):
        # type(), not isinstance(): JSON true is not an integer, and 8.9 is not 8
        if type(dim) is not int or dim < 1:
            raise ValueError(f"{where}: {key}: expected a positive JSON integer, got {json.dumps(dim)}")
    if not isinstance(data, list):
        raise ValueError(f"{where}: data: expected a list of numbers, got {_JSON_KINDS[type(data)]}")
    if len(data) != rows * cols:
        raise ValueError(f"{where}: data: length {len(data)} != {rows}*{cols}")
    if not set(map(type, data)) <= {int, float}:
        i, bad = next((i, v) for i, v in enumerate(data) if type(v) not in (int, float))
        raise ValueError(f"{where}: data: element {i}: expected a number, got {_JSON_KINDS[type(bad)]}")
    try:
        m = np.array(data, dtype=np.float64).reshape(rows, cols)
    except OverflowError:
        raise ValueError(f"{where}: data: integer too large for a float") from None
    if not np.isfinite(m).all():
        raise ValueError(f"{where}: data: contains non-finite entries")
    return m


def load_bundle(path: str | os.PathLike, matrix_files: list[Path] | None = None) -> dict[str, np.ndarray]:
    """Read a weight bundle; every tensor in BUNDLE_TENSORS must be present.

    When ``matrix_files`` is given, the resolved path of every tensor stored
    as a matrix file is appended to it, so callers can treat those files as
    inputs too without parsing the bundle again.
    """
    p = Path(path)
    try:
        raw = json.loads(numerics.read_text(p))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: bundle must be a JSON object")
    missing = [name for name in BUNDLE_TENSORS if name not in raw]
    if missing:
        raise ValueError(f"{path}: bundle is missing tensors {missing}")
    tensors = {name: _decode_tensor(name, raw[name], p.parent) for name in BUNDLE_TENSORS}
    if matrix_files is not None:
        matrix_files += [p.parent / raw[name] for name in BUNDLE_TENSORS if isinstance(raw[name], str)]
    return tensors


def _format_halves(flat: list[np.ndarray], second: bool) -> list[str]:
    """The JSON numbers of each array's first or second half, without the brackets.

    Arrays split at their midpoint, ``size // 2``.
    """
    parts = []
    for data in flat:
        half = data[data.size // 2 :] if second else data[: data.size // 2]
        parts.append(json.dumps(half.tolist())[1:-1])
    return parts


def save_bundle(tensors: Mapping[str, np.ndarray], path: str | os.PathLike) -> None:
    """Write a bundle with inline tensors, in canonical order.

    The file holds ``json.dumps(bundle) + "\\n"`` byte for byte, where
    ``bundle`` maps each name to ``{"rows": r, "cols": c, "data": [...]}``.
    Printing the numbers is nearly all the work, so a forked child formats
    the second half of every tensor's data while this process formats the
    first halves (``_child._in_child``; inline where ``os.fork`` is
    missing).  Every tensor is checked before the child starts.  The pieces
    are then written one at a time with ``numerics.write_atomic``.
    """
    missing = [name for name in BUNDLE_TENSORS if name not in tensors]
    if missing:
        raise ValueError(f"bundle is missing tensors {missing}")
    matrices = [require_finite(as_matrix(tensors[name], name), name) for name in BUNDLE_TENSORS]
    flat = [m.ravel() for m in matrices]
    with _in_child(_format_halves, flat, True) as second_halves:
        firsts = _format_halves(flat, False)
        seconds = second_halves()

    def pieces():
        opening = "{"
        for name, m, first, second in zip(BUNDLE_TENSORS, matrices, firsts, seconds):
            yield f'{opening}{json.dumps(name)}: {{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "data": ['
            yield first
            if first and second:  # a one-element tensor has an empty first half
                yield ", "
            yield second
            yield "]}"
            opening = ", "
        yield "}\n"

    numerics.write_atomic(path, pieces())


def projection_from_bundle(bundle: Mapping[str, np.ndarray]) -> ProjectionWeights:
    """Assemble ProjectionWeights, flattening the 1 x d_h bias rows."""
    b1, b2 = bundle["b1"], bundle["b2"]
    for name, b in (("b1", b1), ("b2", b2)):
        if b.shape[0] != 1:
            raise ValueError(f"bundle tensor {name!r} must have one row, got {b.shape[0]}")
    return ProjectionWeights(
        w1=bundle["W1"], b1=b1[0], w2=bundle["W2"], b2=b2[0]
    )


def init_bundle(seed: int, d_w: int, d_h: int) -> dict[str, np.ndarray]:
    """Fresh deterministic bundle: seeded uniform weights, zero biases.

    Matrices are drawn from one SplitMix64 stream in canonical order
    (W1, W2, then the six attention matrices); biases consume no draws.
    """
    if d_w < 1 or d_h < 1:
        raise ValueError(f"dimensions must be positive, got d_w={d_w} d_h={d_h}")
    rng = numerics.SplitMix64(seed)
    bundle = {
        "W1": numerics.init_matrix(rng, d_w, d_h),
        "b1": np.zeros((1, d_h)),
        "W2": numerics.init_matrix(rng, d_h, d_h),
        "b2": np.zeros((1, d_h)),
    }
    for name in ("Wq1", "Wk1", "Wv1", "Wq2", "Wk2", "Wv2"):
        bundle[name] = numerics.init_matrix(rng, d_h, d_h)
    return bundle
