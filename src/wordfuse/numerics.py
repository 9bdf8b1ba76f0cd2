"""Dense float64 kernels shared by every other module.

Everything here is deliberately boring: row-major float64 matrices,
a portable PRNG, a text matrix format, and the text-file reader and
atomic writer every input and output goes through (JSON ones through
``read_json`` or ``parse_json``, and ``check_record``).  Every result is
reproducible bit for bit across runs on one machine.  Across CPUs it is
not: ``cosine``'s ``np.dot`` runs the OpenBLAS kernel the CPU picks, and
``np.exp`` in ``softmax_rows`` and ``np.tanh`` in ``lexicon.project_rows``
give different last bits on NumPy's AVX-512, AVX2 and baseline paths.

``matmul`` pins its accumulation order: output entries sum their products
over the inner index in ascending order, one rounded multiply and one
rounded add per step, exactly like a naive triple loop.  Rows of ``a`` and
columns of ``b`` are independent under this order, so a product of stacked
operands equals the stacked products byte for byte.  Two kernels keep that
order.  The C kernel of ``_kernel`` is compiled with the system ``cc`` at
the first product of a process (or loaded from its cache) and used only
after a known-answer check against the NumPy loop; ``matmul_kernel`` says
which kernel runs and, for NumPy, why.  The NumPy loop, ``matmul_numpy``,
is the fallback without a compiler and the second reference.  Each of its
steps forms the outer product of one column of ``a`` and one row of ``b``
with ``np.einsum("i,j->ij", ..., out=step)``.  With no summed index einsum
forms each product with a single rounding, as the loop does; at most the
sign of a zero product can differ (einsum may add the product to a zeroed
output, which turns -0.0 into +0.0).  That sign never reaches the result:
the accumulator starts at +0.0, and an IEEE sum is -0.0 only when both
addends are -0.0, so the accumulator is never -0.0 and adding either zero
leaves it unchanged.

The same library parses number text for ``read_matrix`` and the loaders
of ``lexicon``.  They read a file ``READ_BLOCK`` bytes (1 MiB) at a time
into one buffer per load and parse each block's piece in place
(``Blocks.numbers``): whole lines of a table (``parse_rows``), or numbers of
a bundle's data list, read as lines ended by ``,``.  So they hold one block
of text, never the whole file; a table's words may also choose which of its
rows to keep.  A file the parser does not take, or any file without it,
goes through ``float()`` and ``json``.  It also prints numbers as
``repr()`` prints them for ``print_rows``, the one printer behind
``write_matrix`` and ``lexicon.save_bundle``, ``WRITE_BLOCK`` numbers at a
time into one reused buffer whose bytes go straight to the file; without it
``repr()`` itself does.

``init_matrix`` draws a block of the SplitMix64 stream at once from the
closed form of its states; it yields the same bits as the scalar
``SplitMix64`` loop (see its docstring).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import threading
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import _kernel

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT_SCALE = 1.0 / (1 << 53)

# norms below this are treated as zero vectors
DEGENERATE_NORM = 1e-12
# cosine scales a vector whose squared norm reaches this (a norm of 2**500): its square may have overflowed
_SCALED_SQUARED_NORM = 2.0**1000


class SplitMix64:
    """SplitMix64 generator; identical seeds give identical streams everywhere.

    The state transition is plain 64-bit integer arithmetic, so streams can be
    reproduced exactly in any language. Doubles come from the top 53 bits.

    The state only ever advances by the constant ``GAMMA``, so the k-th state
    after ``s`` has the closed form ``s + k*GAMMA mod 2**64``.  ``init_matrix``
    uses it to draw a whole matrix with array arithmetic; this class, one
    draw at a time, is the reference stream that it is tested against.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _UNIT_SCALE


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    return out


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_stored_matrix(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a finite 2-D float64 array with rows and columns, as the text readers take it back.

    A ValueError names the shape of a matrix without rows or columns, or
    the matrix with non-finite entries.
    """
    m = as_matrix(m, name)
    if 0 in m.shape:
        raise ValueError(f"{name} is {m.shape[0]}x{m.shape[1]}: dimensions must be positive")
    return require_finite(m, name)


def require_finite_result(m: np.ndarray, stage: str) -> np.ndarray:
    """``m`` itself, or a ValueError naming the stage whose result overflowed."""
    if not np.isfinite(m).all():
        raise ValueError(f"overflow in {stage}: result has inf or NaN entries")
    return m


def _matmul_operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.require(as_matrix(a, "a"), requirements="CA")
    b = np.require(as_matrix(b, "b"), requirements="CA")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.shape[0]}x{a.shape[1]} @ {b.shape[0]}x{b.shape[1]}"
        )
    return a, b


def matmul(a, b) -> np.ndarray:
    """Matrix product with a pinned accumulation order.

    Each output entry accumulates products over the inner index in ascending
    order, one rounded multiply plus one rounded add per step.  That makes the
    result bit-identical to a naive triple loop with the inner index innermost,
    which is what the self-check suite compares against.  The C kernel
    computes it when ``matmul_kernel`` has one, ``matmul_numpy`` otherwise.
    """
    kernel = matmul_kernel().matmul
    if kernel is None:
        return matmul_numpy(a, b)
    return kernel(*_matmul_operands(a, b))


def matmul_numpy(a, b) -> np.ndarray:
    """``matmul`` by the NumPy loop: the fallback and the second reference.

    Step k writes the products ``a[:, k] * b[k, :]`` into one reused buffer
    with a product-only einsum (no summed index, so no reassociation) and then
    adds the buffer into the accumulator.  A zero product whose sign differs
    from the loop's cannot change the sum; see the module docstring.
    """
    a, b = _matmul_operands(a, b)
    a_t = np.ascontiguousarray(a.T)
    out = np.zeros((a.shape[0], b.shape[1]))
    step = np.empty_like(out)
    for k in range(a.shape[1]):
        np.einsum("i,j->ij", a_t[k], b[k], out=step)
        out += step
    return out


_library_lock = threading.Lock()


@functools.cache
def _library() -> _kernel.Kernel:
    return _kernel.load(matmul_numpy)


def matmul_kernel() -> _kernel.Kernel:
    """The compiled library of this process, its matmul and number parser, built or loaded once, on the first call."""
    with _library_lock:  # so threads whose first calls meet load it once
        return _library()


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; -inf entries map to exactly 0.

    ``m`` is a 2-D float64 array with no NaN or +inf, and every row keeps at
    least one finite entry: the -inf entries are the masked positions.  The
    attention scores ``pipeline_forward`` passes always are; nothing checks it.
    """
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)  # exp(-inf) == 0.0 exactly
    return e / e.sum(axis=1, keepdims=True)


def _unit_scaled(u: np.ndarray) -> np.ndarray:
    """``u`` times the power of two that brings its largest magnitude into [0.5, 1)."""
    return np.ldexp(u, -np.frexp(np.abs(u).max())[1])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two 1-D float64 arrays of one length (unchecked); 0.0 when either is degenerately small.

    ``DEGENERATE_NORM`` is compared with the norms as computed.  A vector whose squared norm reaches
    ``_SCALED_SQUARED_NORM`` (it may have overflowed) is then scaled by a power of two before the last dot:
    exact while its entries and their products stay normal, so the bits stay.  No NumPy warning escapes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        uu, vv = float(np.dot(u, u)), float(np.dot(v, v))
        nu, nv = math.sqrt(uu), math.sqrt(vv)
        if nu < DEGENERATE_NORM or nv < DEGENERATE_NORM:
            return 0.0
        if uu >= _SCALED_SQUARED_NORM:
            u = _unit_scaled(u)
            nu = math.sqrt(float(np.dot(u, u)))
        if vv >= _SCALED_SQUARED_NORM:
            v = _unit_scaled(v)
            nv = math.sqrt(float(np.dot(v, v)))
        return float(np.dot(u, v)) / (nu * nv)


def init_matrix(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """Uniform entries in [-1/sqrt(cols), +1/sqrt(cols)], consumed row-major.

    Draws the whole block at once from the closed form of the stream: the
    k-th state after ``rng.state`` is ``state + k*GAMMA mod 2**64``, so the
    states, the three mixing steps and the ``>> 11`` are wrapping ``uint64``
    array operations, which compute exactly what ``SplitMix64.next_u64``
    computes with masked Python ints.  The top 53 bits convert to float64
    exactly, and each entry then goes through the same float64 operations,
    in the same order, as ``(next_unit() * 2.0 - 1.0) * bound``, so every
    entry matches the scalar generator bit for bit.  ``rng.state`` then advances by ``rows * cols``
    draws, leaving ``rng`` where the scalar loop would.  ``rows`` and
    ``cols`` are positive, as ``lexicon.init_bundle`` checks.
    """
    count = rows * cols
    # array (not scalar) uint64 arithmetic: it wraps mod 2**64 without a warning
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(rng.state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    rng.state = (rng.state + count * _GAMMA) & _MASK64
    bound = 1.0 / math.sqrt(cols)
    return ((z.astype(np.float64) * _UNIT_SCALE * 2.0 - 1.0) * bound).reshape(rows, cols)


def _open_stream(path: str | os.PathLike) -> bool:
    """Whether ``path`` names something already open rather than a file to replace.

    That is anything that exists and is not a regular file (``/dev/null``,
    a FIFO), and any path resolved through ``/proc`` or ``/dev/fd``:
    ``/dev/stdout``, ``/dev/fd/N`` and ``/proc/self/fd/N`` stand for the
    pipe or the file the shell opened, perhaps for appending.  Those links
    are followed one at a time, because ``os.path.realpath`` turns a link to
    a pipe into a path that does not exist and a link to a file into that
    file, which would then be replaced.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return True
    except FileNotFoundError:
        pass
    link = os.path.abspath(path)
    for _ in range(40):  # the kernel follows at most 40 links
        directory = os.path.realpath(os.path.dirname(link))
        if directory == "/dev/fd" or (directory + "/").startswith("/proc/"):
            return True
        if not os.path.islink(link):
            return False
        link = os.path.join(directory, os.readlink(link))
    return False


def write_atomic(path: str | os.PathLike, pieces: Iterable[bytes | memoryview]) -> None:
    """Write byte pieces to ``path`` so that it ends up complete or as it was.

    The pieces go, one at a time, into a new file in the directory of the
    resolved path (a symlink's target is replaced, the link kept), which
    ``os.replace`` then puts in place.  The new file gets the mode a plain
    create gives, ``0o666`` less the umask.  On any failure it is removed,
    ``path`` is left untouched and an OS error names ``path``.  Nothing is
    synced to disk, so this holds when the process fails (a file size
    limit, a full disk, Ctrl-C), not when the machine does.  What is
    already open (``/dev/null``, a FIFO, ``/dev/stdout``; see
    ``_open_stream``) is appended to in place and never truncated.  Each
    piece is written before the next is asked for, so a piece may be a view
    of a buffer that the next one reuses.
    """
    tmp = None
    try:
        if _open_stream(path):
            with open(path, "ab") as f:
                f.writelines(pieces)
            return
        directory, name = os.path.split(os.path.realpath(path))
        while tmp is None:
            candidate = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
            try:
                fd = os.open(candidate, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            tmp = candidate
        with open(fd, "wb") as f:
            f.writelines(pieces)
        os.replace(tmp, os.path.join(directory, name))
    except BaseException as err:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(err, OSError) and err.errno is not None:
            raise OSError(err.errno, err.strerror, os.fspath(path)) from None
        raise


# the numbers a writer prints at a time into one reused buffer
WRITE_BLOCK = 1 << 14


def print_rows(m: np.ndarray, sep: str = " ", end: str = "\n") -> Iterator[bytes | memoryview]:
    """The text of ``sep.join(map(repr, row)) + end`` for each row of a finite 2-D float64 array, in pieces.

    Each piece holds the ASCII text of the next ``WRITE_BLOCK`` numbers, so
    a row may span pieces.  The compiled printer prints them when the
    library loaded, into one buffer that every piece reuses: a piece is
    valid until the next is asked for, as ``write_atomic`` takes them.
    Otherwise ``repr()`` does.  ``sep`` and ``end`` are ASCII of at most 8
    bytes.
    """
    x = np.require(m, np.float64, "CA")
    cols, flat = x.shape[1], x.reshape(-1)
    printer, out = matmul_kernel().format_rows, None
    for start in range(0, flat.size, WRITE_BLOCK):
        values, col = flat[start : start + WRITE_BLOCK], start % cols
        if printer is None:
            yield _repr_rows(values.tolist(), col, cols, sep, end)
        else:
            text, out = printer(values, col, cols, sep, end, out)
            yield text


def _repr_rows(values: list[float], col: int, cols: int, sep: str, end: str) -> bytes:
    """The piece of ``print_rows`` that holds ``values``, the first at column ``col``, by ``repr()``."""
    texts, parts, at = list(map(repr, values)), [], 0
    while at < len(texts):
        stop = min(len(texts), at + cols - col)  # the end of this row, or of the piece
        parts.append(sep * (col > 0) + sep.join(texts[at:stop]) + end * (col + stop - at == cols))
        at, col = stop, 0
    return "".join(parts).encode("ascii")


def write_matrix(m, path: str | os.PathLike) -> None:
    """Write the text format: header "rows cols", then one line per row.

    Floats are serialized with the shortest decimal representation that
    round-trips, ``repr()``'s (see ``print_rows``), so write -> read ->
    write is byte-stable.  The file is written with ``write_atomic``; a
    matrix ``read_matrix`` would refuse, without rows or columns or with
    non-finite entries, is a ValueError before anything is written.
    """
    m = as_stored_matrix(m)
    write_atomic(path, itertools.chain([f"{m.shape[0]} {m.shape[1]}\n".encode("ascii")], print_rows(m)))


def not_utf8(path: str | os.PathLike, err: UnicodeDecodeError, first_line: int = 1,
             splitlines: bool = False) -> ValueError:
    """The error for invalid UTF-8 in ``err.object``, text whose first line is ``first_line``.

    Lines are counted in the valid text before the bad byte as its caller
    numbers them: ended by LF, CRLF or CR, the breaks ``Path.read_text``
    turns into ``\\n`` for JSON and ``vote`` records; with ``splitlines``,
    as ``str.splitlines()`` counts them, which also breaks at U+2028, U+2029,
    U+0085 and a few control characters.
    """
    before = err.object[: err.start].decode("utf-8")
    if splitlines:
        line = first_line - 1 + len((before + "x").splitlines())
    else:
        line = first_line + before.replace("\r\n", "\n").replace("\r", "\n").count("\n")
    return ValueError(f"{path}: line {line}: not valid UTF-8: {err.reason}")


def read_text(path: str | os.PathLike, splitlines: bool = False) -> str:
    """The text of a UTF-8 file, as ``Path.read_text`` returns it.

    Invalid UTF-8 is a ValueError naming the path and the line, counted as
    ``not_utf8`` counts it: for a caller that splits the text at ``\\n``, or
    with ``splitlines`` for one that calls ``str.splitlines()``.  The whole
    file is decoded in one call, so the decode error holds all its bytes
    and the bad byte's offset; the file is not read twice.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise not_utf8(path, err, splitlines=splitlines) from None


@contextlib.contextmanager
def located(where: str | os.PathLike):
    """Prefix ``where: `` to the message of a ValueError or an OSError raised in the block.

    An OSError keeps its class; its message, which names the file, becomes
    its only argument.
    """
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    except OSError as err:
        raise type(err)(f"{where}: {err}") from None


def parse_json(text: str):
    """The value of a JSON text; a ValueError reads ``not valid JSON: <msg>`` or ``JSON nested too deeply``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except ValueError as err:  # a JSONDecodeError, or an integer longer than int() takes
        raise ValueError(f"not valid JSON: {err}") from None


def read_json(path: str | os.PathLike):
    """The value of a UTF-8 JSON file; a ValueError names the path."""
    text = read_text(path)  # freed on return, before a caller builds on the value: a bundle's is 95 MB
    with located(path):
        return parse_json(text)


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _no_surrogate(value, text: str) -> bool:
    """True, or a ValueError naming the first lone surrogate in ``value``.

    ``value`` is a str or a list (of lists) of str, and ``text`` all its
    strings joined, searched in one pass.  JSON's ``\\ud800`` decodes to a
    lone surrogate: no Unicode scalar value, which no UTF-8 writer takes.
    """
    if _SURROGATE.search(text):
        _name_surrogate(value)
    return True


def _name_surrogate(value) -> None:
    """A ValueError such as ``element 2: lone surrogate U+D800 at character 1``, if ``value`` holds one."""
    if type(value) is str:
        found = _SURROGATE.search(value)
        if found:
            raise ValueError(f"lone surrogate U+{ord(found.group()):04X} at character {found.start()}")
        return
    for i, element in enumerate(value):
        with located(f"element {i}"):
            _name_surrogate(element)


def _strings(value) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


# each kind of JSON value a record field may hold, by its name in messages, and
# its test; type(), not isinstance(): JSON true is not a number, 2.7 not an integer.
# The string kinds refuse a lone surrogate with a ValueError
JSON_FIELD_KINDS = {
    "list": lambda v: type(v) is list,
    "string": lambda v: type(v) is str and _no_surrogate(v, v),
    "boolean": lambda v: type(v) is bool,
    "positive integer": lambda v: type(v) is int and v > 0,
    "number in [0, 1]": lambda v: type(v) in (int, float) and 0 <= v <= 1,
    "list of strings": lambda v: _strings(v) and _no_surrogate(v, "".join(v)),
    "list of word lists": lambda v: type(v) is list and all(map(_strings, v))
    and _no_surrogate(v, "".join(map("".join, v))),
    "list of [start, end] integer pairs": lambda v: type(v) is list and all(
        type(pair) is list and len(pair) == 2 and all(type(i) is int for i in pair) for pair in v
    ),
    "object or path string": lambda v: type(v) is dict or type(v) is str and _no_surrogate(v, v),
}


def json_shown(value) -> str:
    """A decoded JSON value as a message shows it: ``list`` or ``object``, else its JSON text."""
    return {list: "list", dict: "object"}.get(type(value)) or json.dumps(value)


def check_record(record, fields: Mapping[str, str], required: Iterable[str] = (), closed: str | None = None) -> dict:
    """``record``, a JSON object whose ``fields`` hold their ``JSON_FIELD_KINDS``; else a ValueError.

    Only ``required`` fields must be present; a record named by ``closed``
    has no other keys.  The ValueError reads ``field: problem``.
    """
    if type(record) is not dict:
        raise ValueError(f"expected a JSON object, got {json_shown(record)}")
    unknown = sorted(set(record) - set(fields)) if closed else []
    if unknown:
        raise ValueError(f"unknown {closed} keys: {', '.join(unknown)}")
    for field in required:
        if field not in record:
            raise ValueError(f"{field}: missing")
    for field, kind in fields.items():
        if field not in record:
            continue
        try:  # not located(): a context manager costs more than most tests
            fits = JSON_FIELD_KINDS[kind](record[field])
        except ValueError as err:  # a lone surrogate
            raise ValueError(f"{field}: {err}") from None
        if not fits:
            raise ValueError(f"{field}: expected a JSON {kind}, got {json_shown(record[field])}")
    return record


# the bytes a compiled loader reads at a time; a header, line or number longer
# than this grows the buffer that holds it
READ_BLOCK = 1 << 20


def compiled_file(path: str | os.PathLike) -> BinaryIO | None:
    """``path`` opened for the compiled parser, or None to read it with Python alone.

    None when no library loaded, and for anything but a regular file: a FIFO
    or ``/dev/stdin`` can be read only once, and the Python reader must see
    it whole.  An OS error is left for that reader to raise.
    """
    if matmul_kernel().parse_rows is None:
        return None
    try:
        return open(path, "rb") if stat.S_ISREG(os.stat(path).st_mode) else None
    except OSError:
        return None


class Blocks:
    """A file read a block at a time into one buffer, reused for every block.

    ``cut(at, find)`` reads the block that starts at file offset ``at`` into
    ``buf[:length]`` and returns ``find(buf, length)``, the length of the
    piece the caller parses from it; while that is negative and the block
    fills the buffer, the buffer is doubled and the block read on, and at the
    end of the file the piece is all that is left.  The buffer starts at
    ``READ_BLOCK + 1`` bytes, so a block ends with a NUL byte that stops the
    parser's ``strtod``.  The caller reads the bytes after its piece again
    with the next block.  Each load makes its own, as ``fuse`` runs two at
    once.
    """

    def __init__(self, f: BinaryIO):
        self.f, self.buf, self.length = f, bytearray(READ_BLOCK + 1), 0

    def cut(self, at: int, find: Callable[[bytearray, int], int]) -> int:
        self.f.seek(at)
        self.length = self.f.readinto(memoryview(self.buf)[:-1])
        while (found := find(self.buf, self.length)) < 0 and self.length == len(self.buf) - 1:
            grown = bytearray(2 * len(self.buf) - 1)
            grown[: self.length] = memoryview(self.buf)[: self.length]
            self.buf = grown
            self.length += self.f.readinto(memoryview(grown)[self.length : -1])
        self.buf[self.length] = 0
        return self.length if found < 0 else found

    def numbers(self, at: int, rows: int, cols: int, find: Callable[[bytearray, int], int], eol: str,
                words: bool = False, keep: Callable[[list[str]], list[int] | None] | None = None
                ) -> tuple[np.ndarray, list[str] | None, int] | None:
        """``rows`` lines of ``cols`` numbers from file offset ``at``, their words and the offset after them, or None.

        Each piece that ``cut(at, find)`` gives fills the next rows through
        ``Kernel.parse_rows``, each line ended by ``eol`` and, with
        ``words``, started by a word; an empty piece ends them.  None when
        a piece, or a word (not UTF-8), does not fit, or the pieces hold
        other than ``rows`` lines.

        With ``words``, ``keep`` may choose rows: it gets each piece's words
        and gives the indexes of the rows to keep, or None to refuse the
        file.  Each piece is then parsed into one reused array, sized from
        the buffer's length and never from ``rows``, and only the rows kept,
        and their words, are returned, in file order.
        """
        # a number and the byte that ends it take at least two bytes, the last line may lack its end:
        # a header that promises more than the file holds sizes no allocation
        if 2 * rows * cols > os.fstat(self.f.fileno()).st_size - at + 1:
            return None
        parse = matmul_kernel().parse_rows
        size = 0 if keep else rows
        values, found = np.empty((size, cols)), [] if words else None
        spans = np.empty((size, 2), np.int64) if words else None
        kept = [np.empty((0, cols))]
        done = 0
        while length := self.cut(at, find):
            if keep:
                # a line of a word and cols numbers takes at least 2 * cols + 1 bytes, so a piece holds
                # fewer lines than this; the array grows only with the buffer
                most = len(self.buf) // (2 * cols + 1) + 1
                if most > len(values):
                    values, spans = np.empty((most, cols)), np.empty((most, 2), np.int64)
                into, into_spans = values[: rows - done], spans[: rows - done]
            else:
                into, into_spans = values[done:], None if spans is None else spans[done:]
            read = parse(memoryview(self.buf)[:length], into, into_spans, eol)
            if read is None:
                return None
            if words:
                try:
                    piece = [self.buf[s:e].decode("utf-8") for s, e in into_spans[:read].tolist()]
                except UnicodeDecodeError:
                    return None
                if keep:
                    chosen = keep(piece)
                    if chosen is None:
                        return None
                    kept.append(into[chosen])
                    piece = [piece[i] for i in chosen]
                found += piece
            done, at = done + read, at + length
        if done != rows:
            return None
        return (np.concatenate(kept) if keep else values), found, at


def _whole_lines(buf: bytearray, length: int) -> int:
    """The length of ``buf[:length]`` through its last ``\\n``, or -1 when it has none."""
    last = buf.rfind(b"\n", 0, length)
    return last + 1 if last >= 0 else -1


def parse_rows(path: str | os.PathLike, header: re.Pattern, words: bool = False,
               keep: Callable[[list[str]], list[int] | None] | None = None
               ) -> tuple[np.ndarray, list[str] | None] | None:
    """The numbers, and with ``words`` the words, of a headed table file by the compiled parser, or None.

    ``header`` matches the first line, ``\\n`` included, with the row and
    column counts as its groups.  ``Blocks.numbers`` reads the lines after
    it, each block cut after its last ``\\n`` (at the end of the file, after
    its last byte), and with ``keep`` returns only the rows it chooses.
    None when ``compiled_file`` gives no file, or the header or a line does
    not fit.
    """
    f = compiled_file(path)
    if f is None:
        return None
    with f:
        blocks = Blocks(f)
        blocks.cut(0, _whole_lines)
        head = header.match(blocks.buf, 0, blocks.length)
        parsed = head and blocks.numbers(head.end(), int(head[1]), int(head[2]), _whole_lines, "\n", words, keep)
    return parsed and parsed[:2]


# a header the compiled parser takes: positive ASCII counts, one space, a newline
_MATRIX_HEADER = re.compile(rb"([1-9][0-9]*) ([1-9][0-9]*)\n")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Parse the text matrix format; errors carry 1-based line numbers.

    A file whose rows follow a plain header, numbers separated by spaces and
    each row ended by ``\\n``, as ``write_matrix`` writes them, goes to the
    compiled parser when it is loaded; any other file is parsed below, with
    the same values and errors.
    """
    parsed = parse_rows(path, _MATRIX_HEADER)
    if parsed is not None:
        return parsed[0]
    text = read_text(path, splitlines=True)
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected 'rows cols' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}, expected 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{path}: line 1: non-integer header {lines[0]!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: line 1: dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    values = []  # not sized from the header: it may promise more than the file holds
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise ValueError(f"{path}: line {i}: expected {cols} values, got {len(tokens)}")
        for tok in tokens:
            try:
                val = float(tok)
            except ValueError:
                raise ValueError(f"{path}: line {i}: invalid number {tok!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"{path}: line {i}: non-finite value {tok!r}")
            values.append(val)
    return np.array(values).reshape(rows, cols)
