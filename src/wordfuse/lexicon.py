"""Word embedding table and the word-to-hidden projection.

The embedding file is the word2vec text layout: a ``"V dim"`` header, then
one ``word f1 ... f_dim`` line per entry.  Words are matched by exact string
equality after NFC normalization (applied both at load and at lookup).

Out-of-vocabulary words fall back to the vector stored under ``<unk>`` when
the file provides one, else to all zeros.  Embeddings are frozen: nothing in
this package trains or updates them (``lookup`` gives a copy).  A table may
hold only the words a caller names and ``<unk>``, as ``fuse`` loads it for
one sentence; every entry of the file is still read and checked.

The weight bundle is a JSON object carrying every trainable tensor of the
pipeline as ``{"rows": r, "cols": c, "data": [...]}`` (or a string path to a
matrix text file, resolved relative to the bundle).  Bias vectors are stored
as 1 x d_h matrices so the same tensor codec covers everything.  In memory a
bundle is a dict from tensor name to 2-D array, as ``load_bundle`` and
``init_bundle`` return it, every tensor read-only; ``project_rows`` and the
pipeline read the tensors from it by name, and ``check_bundle_shapes`` is the
one check of their shapes.

A table remembers the projections of at most ``d_h`` rows by their float64
bytes, under the last read-only ``W1``, ``b1``, ``W2`` and ``b2`` it met, so
``project_words``, the word projection, projects a row once; see there.

The compiled loaders read a file in blocks (see ``numerics``): a table in
pieces of whole lines, a bundle in pieces of each tensor's data list, read
as lines of one number ended by ``,``.  For any other file, the Python
bundle reader reads it whole, and the embeddings reader line by line.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import unicodedata
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import numerics
from .numerics import matmul, require_finite, require_finite_result

log = logging.getLogger(__name__)

# every tensor a complete bundle must carry, in serialization order, with its
# shape in terms of the embedding width d_w and the hidden width d_h
BUNDLE_SHAPES = {
    "W1": ("d_w", "d_h"),
    "b1": (1, "d_h"),
    "W2": ("d_h", "d_h"),
    "b2": (1, "d_h"),
    **{name: ("d_h", "d_h") for name in ("Wq1", "Wk1", "Wv1", "Wq2", "Wk2", "Wv2")},
}
BUNDLE_TENSORS = tuple(BUNDLE_SHAPES)

UNK_TOKEN = "<unk>"

def _nfc(word: str) -> str:
    return unicodedata.normalize("NFC", word)


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    unk: np.ndarray
    duplicates: int = 0
    # project_words' memo, replaced whole and never changed in place: (weak references to the
    # W1, b1, W2, b2 it holds for, {float64 bytes of a row: its projection})
    _projected: tuple[tuple, dict] | None = field(default=None, init=False, repr=False, compare=False)

    def __contains__(self, word: str) -> bool:
        return _nfc(word) in self.vectors


def _read_only(m) -> bool:
    """Whether ``m`` is an array nothing can write: neither it nor any array it views is writeable,
    and the last of them owns its memory (a buffer of any other kind may be written through)."""
    while isinstance(m, np.ndarray) and not m.flags.writeable:
        if m.base is None:
            return True
        m = m.base
    return False


def _frozen(m: np.ndarray) -> np.ndarray:
    """A view of ``m`` that cannot be made writeable again, all it views made read-only: ``_read_only`` then
    holds when the last of them owns its memory, as every tensor ``load_bundle`` and ``init_bundle`` make does."""
    a = m
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base
    return m.view()


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
                raise numerics.not_utf8(path, err, lineno + 1, splitlines=True) from None
            for line in text.splitlines():
                lineno += 1
                yield lineno, line


# a header the compiled parser takes: ASCII counts, one space, a newline
_EMBEDDING_HEADER = re.compile(rb"([0-9]+) ([1-9][0-9]*)\n")


def _normalized(words: list[str]) -> list[str] | None:
    """The NFC forms of words the compiled parser read, or None when one would not split as ``_read_rows`` splits it."""
    if any(word.split() != [word] for word in words):
        return None
    return list(map(_nfc, words))


def _compiled_rows(path: str | os.PathLike, keep: set[str] | None = None
                   ) -> tuple[int, list[str], np.ndarray, int] | None:
    """``(dim, words, rows, duplicates)`` of an embeddings file by the compiled parser, or None; see ``_read_rows``.

    It takes only files whose entries follow the header at once, each a word
    and its numbers separated by spaces and ended by ``\\n``, with nothing
    but whitespace after the last entry.  A word must be UTF-8 that
    ``str.split()`` keeps whole, so every line splits as ``_read_rows``
    splits it.  With ``keep``, every entry is parsed and checked as without
    it, but only the rows of its words are copied out of each block.
    """
    if keep is None:
        parsed = numerics.parse_rows(path, _EMBEDDING_HEADER, words=True)
        words = None if parsed is None else _normalized(parsed[1])
        return None if words is None else (parsed[0].shape[1], words, parsed[0], len(words) - len(set(words)))
    entries, seen = 0, set()

    def chosen(piece: list[str]) -> list[int] | None:
        nonlocal entries
        piece = _normalized(piece)
        if piece is None:
            return None
        entries += len(piece)
        seen.update(piece)
        return [i for i, word in enumerate(piece) if word in keep]

    parsed = numerics.parse_rows(path, _EMBEDDING_HEADER, words=True, keep=chosen)
    if parsed is None:
        return None
    rows, words = parsed
    return rows.shape[1], list(map(_nfc, words)), rows, entries - len(seen)


def _read_rows(path: str | os.PathLike, keep: set[str] | None) -> tuple[int, list[str], np.ndarray, int]:
    """``(dim, words, rows, duplicates)`` of an embeddings file, read line by line in Python.

    Row i of ``rows`` belongs to ``words[i]``.  Every entry is checked, but
    only those whose words are in ``keep`` (all with None) are kept, their
    rows grown into one array as they arrive; ``duplicates`` counts the
    entries whose word an earlier one has, over every entry.  Trailing
    whitespace-only lines are ignored; a blank line before the last entry is
    an entry with no fields.  A wrong header comes first, then a wrong number
    of entries, then the first bad entry line, as if every line had been
    checked in order.
    """
    count = dim = None
    words: list[str] = []
    seen: set[str] = set()  # the word of every entry read
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
        if not all(map(math.isfinite, values)):
            error = f"line {lineno}: non-finite value in vector"
            continue
        word = _nfc(parts[0])
        seen.add(word)
        if keep is not None and word not in keep:
            continue
        if len(words) == len(rows):
            grown = np.empty((min(count, 2 * len(rows) + 1), dim))
            grown[: len(rows)] = rows
            rows = grown
        rows[len(words)] = values
        words.append(word)
    if count is None:
        raise ValueError(f"{path}: line 1: empty file, expected 'count dim' header")
    if entries != count:
        raise ValueError(f"{path}: expected {count} entries, found {entries}")
    if error is not None:
        raise ValueError(f"{path}: {error}")
    return dim, words, rows[: len(words)], entries - len(seen)


def load_embeddings(path: str | os.PathLike, words: Iterable[str] | None = None) -> EmbeddingTable:
    """Load a word2vec-style text file; duplicate words keep the last vector.

    With ``words``, the table keeps the vectors of those words (after NFC)
    and of ``<unk>`` alone, as ``fuse`` needs for one sentence; every entry
    is still read and checked, so the same file gives the same error, and
    ``duplicates`` still counts over every entry.  The compiled parser
    reads a file in its layout (``_compiled_rows``), keeping only those
    rows of each block; any other file, or every file when no library
    loaded, is read line by line by ``_read_rows``, which keeps the same
    rows and gives the same table or the same error.  The table vectors are
    rows of one array.
    """
    keep = None if words is None else {_nfc(word) for word in words} | {UNK_TOKEN}
    dim, found, rows, duplicates = _compiled_rows(path, keep) or _read_rows(path, keep)
    vectors = dict(zip(found, rows))
    if duplicates:
        log.warning("%s: %d duplicate words, last occurrence kept", path, duplicates)

    unk = vectors.get(UNK_TOKEN, np.zeros(dim))
    return EmbeddingTable(dim=dim, vectors=vectors, unk=unk, duplicates=duplicates)


def lookup(table: EmbeddingTable, word: str) -> np.ndarray:
    """Stored vector for the word, or the table's fallback vector.

    Returns a writeable copy, so callers cannot corrupt the table in place.
    """
    return table.vectors.get(_nfc(word), table.unk).copy()


def project_rows(x, bundle: Mapping[str, np.ndarray]) -> np.ndarray:
    """tanh(X W1 + b1) W2 + b2 for a stack of word vectors, one per row.

    ``bundle`` is a weight bundle, as ``check_bundle`` accepts it; the 1 x d_h
    bias rows broadcast over the rows of ``x``.  Rows never mix under the
    pinned matmul order and tanh acts per element, so row i equals
    ``project_rows(x[i:i + 1])`` byte for byte.
    """
    hidden = np.tanh(matmul(x, bundle["W1"]) + bundle["b1"])
    return matmul(hidden, bundle["W2"]) + bundle["b2"]


# the tensors project_rows reads
_PROJECTION_TENSORS = ("W1", "b1", "W2", "b2")


def project_words(table: EmbeddingTable, words: Sequence[str], bundle: Mapping[str, np.ndarray]
                  ) -> list[np.ndarray]:
    """The projection by ``project_rows`` of each word's ``lookup`` row: one read-only vector per word, in order.

    Each distinct word's row is taken by ``lookup`` once.  The rows the
    table's memo lacks are projected in one batched call, NumPy's overflow
    warnings silenced; ``project_rows`` is row-independent, so each vector
    is the same bytes as projecting its row alone, memo or not.  A
    projection that overflows is a ValueError naming the word projection,
    and nothing of it is remembered.

    The memo maps the float64 bytes of a row to its projection, whatever
    word, array or dtype the row came from.  It holds only while ``W1``,
    ``b1``, ``W2`` and ``b2`` are the objects it was made for and none of
    them can be written (see ``_read_only``); another bundle starts a new
    one.  It remembers at most ``d_h`` rows, views of the read-only batch that
    projected them: ``8 * d_h * (d_h + d_w)`` bytes with their keys, plus the
    other rows of the one call that filled it.  It is replaced whole, never
    changed in place, so threads that share a table each read a memo of
    their own call's bundle.  A caller's tensor changed under its read-only
    flag, through an older writeable view or made writeable again, keeps its
    old projections in a table that met it: replace a tensor, never change it.
    """
    tensors = [bundle[name] for name in _PROJECTION_TENSORS]
    keep = all(map(_read_only, tensors))
    memo = table._projected
    if not keep:
        memo = None, {}
    elif memo is None or any(ref() is not t for ref, t in zip(memo[0], tensors)):
        memo = tuple(map(weakref.ref, tensors)), {}
    keys = {word: lookup(table, word).astype(np.float64, copy=False).tobytes() for word in dict.fromkeys(words)}
    found = {key: memo[1].get(key) for key in keys.values()}
    missing = [key for key, projection in found.items() if projection is None]
    if missing:
        embedded = np.array([np.frombuffer(key) for key in missing]).reshape(len(missing), table.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            projected = require_finite_result(project_rows(embedded, bundle), "word projection")
        projected.flags.writeable = False
        found.update(zip(missing, projected))
        if keep and len(memo[1]) < len(tensors[2]):
            table._projected = memo[0], {**memo[1], **dict(zip(missing[: len(tensors[2]) - len(memo[1])], projected))}
    return [found[keys[word]] for word in words]


# the fields of a bundle and of a tensor stored inline, by numerics.JSON_FIELD_KINDS
_BUNDLE_FIELDS = dict.fromkeys(BUNDLE_TENSORS, "object or path string")
_TENSOR_FIELDS = {"rows": "positive integer", "cols": "positive integer", "data": "list"}


def _tensor(obj, base_dir: Path) -> np.ndarray:
    """One bundle tensor, inline or a matrix file path; a ValueError reads ``field: problem``."""
    if type(obj) is str:
        return numerics.read_matrix(base_dir / obj)
    numerics.check_record(obj, _TENSOR_FIELDS, required=_TENSOR_FIELDS)
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data: length {len(data)} != {rows}*{cols}")
    if not set(map(type, data)) <= {int, float}:
        i, bad = next((i, v) for i, v in enumerate(data) if type(v) not in (int, float))
        raise ValueError(f"data: element {i}: expected a JSON number, got {numerics.json_shown(bad)}")
    try:
        m = np.array(data, dtype=np.float64).reshape(rows, cols)
    except OverflowError:
        raise ValueError("data: integer too large for a float") from None
    if not np.isfinite(m).all():
        raise ValueError("data: contains non-finite entries")
    return m


# the start of each tensor as save_bundle writes it, after the "{" or the "]}, " that ends the
# tensor before it, through the "[" of its data list
_TENSOR_HEAD = re.compile(rb'(\{|\]\}, )"(\w+)": \{"rows": ([1-9][0-9]*), "cols": ([1-9][0-9]*), "data": \[')


def _through_bracket(buf: bytearray, length: int) -> int:
    """The length of ``buf[:length]`` through its first ``[``, or -1 when it has none."""
    bracket = buf.find(b"[", 0, length)
    return bracket + 1 if bracket >= 0 else -1


def _list_piece(buf: bytearray, length: int) -> int:
    """The length of the list numbers that start ``buf[:length]``: to its first ``]``, or else through its last ``,``.

    -1 when it has neither.
    """
    close = buf.find(b"]", 0, length)
    if close >= 0:
        return close
    comma = buf.rfind(b",", 0, length)
    return comma + 1 if comma >= 0 else -1


def _compiled_bundle(path: str | os.PathLike) -> dict[str, np.ndarray] | None:
    """The tensors of a bundle in the layout ``save_bundle`` writes, by the compiled parser, or None.

    That layout is ``json.dumps`` of the ``BUNDLE_TENSORS`` in order, each
    inline and no other key, with a newline after it; inside a data list
    any spaces may stand around the ``,``.  Any other bundle, an equal JSON
    value included, gets None and goes through ``read_json``.  A data list
    is read by ``Blocks.numbers`` as lines of one number ended by ``,``,
    each block cut at its ``]``, or else after its last ``,``.
    """
    f = numerics.compiled_file(path)
    if f is None:
        return None
    tensors = {}
    with f:
        blocks, at = numerics.Blocks(f), 0
        for name in BUNDLE_TENSORS:
            blocks.cut(at, _through_bracket)
            head = _TENSOR_HEAD.match(blocks.buf, 0, blocks.length)
            if head is None or head[1] != (b"]}, " if tensors else b"{") or head[2] != name.encode():
                return None
            rows, cols = int(head[3]), int(head[4])
            parsed = blocks.numbers(at + head.end(), rows * cols, 1, _list_piece, ",")
            if parsed is None:
                return None
            values, _, at = parsed
            tensors[name] = _frozen(values.reshape(rows, cols))
        f.seek(at)
        return tensors if f.read(5) == b"]}}\n" else None


def load_bundle(path: str | os.PathLike, matrix_files: list[Path] | None = None) -> dict[str, np.ndarray]:
    """Read a weight bundle; every tensor in BUNDLE_TENSORS must be present.

    A ValueError reads ``path: NAME: field: problem``.  When ``matrix_files``
    is given, the path of each tensor stored as a matrix file is appended to
    it, so callers can treat those files as inputs too without parsing again.
    A bundle as ``save_bundle`` writes it, all inline, is read by
    ``_compiled_bundle`` when the library loaded; any other by ``read_json``,
    with the same tensors or the same error.  Every tensor is read-only.
    """
    tensors = _compiled_bundle(path)
    if tensors is not None:
        return tensors
    p = Path(path)
    raw = numerics.read_json(p)
    tensors = {}
    with numerics.located(path):
        numerics.check_record(raw, _BUNDLE_FIELDS, required=BUNDLE_TENSORS)
        for name in BUNDLE_TENSORS:
            with numerics.located(name):
                tensors[name] = _frozen(_tensor(raw[name], p.parent))
    if matrix_files is not None:
        matrix_files += [p.parent / raw[name] for name in BUNDLE_TENSORS if isinstance(raw[name], str)]
    return tensors


def check_bundle_shapes(bundle: Mapping[str, np.ndarray], d_w: int, d_h: int) -> None:
    """Refuse a bundle unless every tensor is present and shaped as BUNDLE_SHAPES says.

    The tensors are checked in BUNDLE_TENSORS order: a ValueError reads
    ``weight bundle: NAME is RxC, expected R'xC'``, or names the missing
    tensor.
    """
    dims = {"d_w": d_w, "d_h": d_h, 1: 1}
    for name, shape in BUNDLE_SHAPES.items():
        if name not in bundle:
            raise ValueError(f"weight bundle: {name} is missing")
        got, expected = np.shape(bundle[name]), tuple(dims[d] for d in shape)
        if got != expected:
            raise ValueError(f"weight bundle: {name} is {_dims(got)}, expected {_dims(expected)}")


def check_bundle(bundle: Mapping[str, np.ndarray], d_w: int, d_h: int) -> None:
    """Refuse a bundle unless every tensor is present, finite and shaped as BUNDLE_SHAPES says.

    ``check_bundle_shapes`` runs first; then the first non-finite tensor in
    BUNDLE_TENSORS order is a ValueError reading
    ``weight bundle: NAME contains non-finite entries``.  The loaders and
    ``init_bundle`` never return a non-finite tensor, so ``pipeline_forward``
    checks the finiteness of most tensors only when a stage fails; see there.
    """
    check_bundle_shapes(bundle, d_w, d_h)
    for name in BUNDLE_TENSORS:
        require_finite(bundle[name], f"weight bundle: {name}")


def _dims(shape: tuple[int, ...]) -> str:
    return "x".join(map(str, shape))


def _bundle_pieces(matrices: list[np.ndarray]) -> Iterator[bytes | memoryview]:
    """The bytes of a bundle, one piece at a time: each tensor's numbers are printed as they are written."""
    opening = "{"
    for name, m in zip(BUNDLE_TENSORS, matrices):
        yield f'{opening}{json.dumps(name)}: {{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "data": ['.encode("ascii")
        yield from numerics.print_rows(m.reshape(1, -1), ", ", "")
        yield b"]}"
        opening = ", "
    yield b"}\n"


def save_bundle(tensors: Mapping[str, np.ndarray], path: str | os.PathLike) -> None:
    """Write a bundle with inline tensors, in canonical order.

    The file holds ``json.dumps(bundle) + "\\n"`` byte for byte, where
    ``bundle`` maps each name to ``{"rows": r, "cols": c, "data": [...]}``:
    ``numerics.print_rows`` prints each tensor's data as one row of
    ``repr()`` texts joined by ``", "``, as ``json.dumps`` prints a list of
    floats.  Printing the numbers is nearly all the work; the pieces, a
    few thousand numbers each, are written one at a time with
    ``numerics.write_atomic``, so no tensor's whole text is held.  Every
    tensor is checked before anything is printed: one ``load_bundle``
    would refuse, without rows or columns or with non-finite entries, is a
    ValueError naming it.
    """
    missing = [name for name in BUNDLE_TENSORS if name not in tensors]
    if missing:
        raise ValueError(f"bundle is missing tensors {missing}")
    matrices = [numerics.as_stored_matrix(tensors[name], name) for name in BUNDLE_TENSORS]
    numerics.write_atomic(path, _bundle_pieces(matrices))


def init_bundle(seed: int, d_w: int, d_h: int) -> dict[str, np.ndarray]:
    """Fresh deterministic bundle: seeded uniform weights, zero biases.

    Matrices are drawn from one SplitMix64 stream in BUNDLE_SHAPES order
    (W1, W2, then the six attention matrices); biases consume no draws.
    Every tensor is read-only.  A bundle that would not fit in physical
    memory is refused before anything is allocated.
    """
    if d_w < 1 or d_h < 1:
        raise ValueError(f"dimensions must be positive, got d_w={d_w} d_h={d_h}")
    # the tensors, plus init_matrix's uint64 draws and their float64 copy for the largest
    need = 8 * (d_w * d_h + 7 * d_h * d_h + 2 * d_h) + 16 * max(d_w, d_h) * d_h
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform: no bound known
        have = need
    if need > have:
        raise ValueError(
            f"a bundle with d_w={d_w} d_h={d_h} takes {need / 1e9:.3g} GB, "
            f"more than the {have / 1e9:.3g} GB of physical memory"
        )
    rng = numerics.SplitMix64(seed)
    dims = {"d_w": d_w, "d_h": d_h}
    return {
        name: _frozen(np.zeros((1, dims[cols])) if rows == 1 else numerics.init_matrix(rng, dims[rows], dims[cols]))
        for name, (rows, cols) in BUNDLE_SHAPES.items()
    }
