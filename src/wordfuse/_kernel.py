"""The compiled library behind ``numerics.matmul``, the text loaders and writers, built at first use.

``SOURCE`` is the C of ``_kernel.c``, whose header comment says how it
works, with the table that ``_powers_of_ten`` generates appended: the
exact-order ``wordfuse_matmul`` behind ``numerics.matmul``, a number parser
for ``numerics.read_matrix`` and the loaders of ``lexicon``, and a printer
of ``repr()``'s text for ``numerics.write_matrix`` and ``lexicon.save_bundle``.

``load`` compiles the source with the system ``cc`` into a shared library
cached in the ``__pycache__`` directory next to this file.  The file name
carries a SHA-256 over the source, the flags, ``cc --version`` and the
CPU's feature flags, because a ``-march=native`` build made on another CPU
may use instructions this one lacks.  The compiler writes a temporary
file that ``os.replace`` puts in place, so processes building at once
each end with a whole library.  The file ends with a SHA-256 of the bytes
before it, checked before the library is opened: opening a truncated
library can kill the process with SIGBUS, so a file that fails the check
is built again.  A library is accepted only when its products of
``known_operands`` equal the reference's bit for bit, ``HARD_DECIMALS``
parse to ``float()``'s bits, every one of ``REFUSED_TOKENS`` is refused and
``HARD_DOUBLES`` print as ``repr()`` prints them in every layout; without
a compiler, or when the build or a check fails, ``load`` returns no kernel
and says why.
A library built and accepted here removes the cached libraries of other
keys, left by an earlier source, compiler or CPU.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# what the parsers read: bytes, or a view of a block that a loader reuses
Buffer = bytes | bytearray | memoryview | np.ndarray


def _powers_of_ten() -> str:
    """The C table ``G`` of Schubfach's 617 constants, from exact Python integers.

    ``G[j + 292]`` holds ``floor(10**j * 2**(127 - floor(j * log2(10)))) + 1``
    for ``j`` in [-292, 324], a 128-bit number, high half first.
    """
    rows = []
    for j in range(-292, 325):
        power = 10 ** abs(j)
        if j >= 0:  # 10**j has bit_length() - 1 as floor(log2)
            shift = 128 - power.bit_length()
            g = power << shift if shift >= 0 else power >> -shift
        else:  # 10**-j is no power of two, so floor(log2(10**j)) is -bit_length()
            g = (1 << (127 + power.bit_length())) // power
        g += 1
        rows.append(f"{{{g >> 64:#018x}, {g & (1 << 64) - 1:#018x}}}")
    return "static const uint64_t G[617][2] = {\n" + ",\n".join(rows) + "};\n"


SOURCE = Path(__file__).with_name("_kernel.c").read_text(encoding="utf-8") + _powers_of_ten()

FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
_DIGEST = 32  # bytes of the SHA-256 that ends each cached library

# signed zeros, subnormals and magnitudes whose products stay finite
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-150, -1e-150, 1e150, -1e150)


def _ties_to_even() -> tuple[str, ...]:
    """Decimals ``m * 10**e``, ``m`` below 10**19, exactly halfway between two doubles.

    Such a value is ``h * 2**k`` with ``h`` odd and of 54 bits, and it rounds
    to the neighbour whose last bit is even: down when ``h % 4 == 1``, up when
    it is 3.  ``m`` exists only for ``e`` in -4..23; for each, one decimal
    rounds down and one up (at ``e = 23`` only ``1e23`` and its doubles, which
    round down).
    """
    ties = []
    for e in range(-4, 24):
        five = 5 ** abs(e)
        for rest in (1, 3):
            if e < 0:  # m = h * 5**-e
                m = ((1 << 53) + rest) * five
            else:  # m = h / 5**e, odd
                m = next((t for t in range((1 << 53) // five + 1 | 1, ((1 << 54) - 1) // five + 1, 2)
                          if t * five % 4 == rest), None)
            if m is not None:
                ties.append(f"{m}e{e}")
    return tuple(ties)


# decimals a parser gets wrong unless it rounds correctly, each as float() reads it:
# halfway cases between adjacent doubles (ties to even, and just off a tie;
# 2**60 + 128 is one that the fast path must leave to strtod), 17-20 digit
# mantissas, 2**53 - 1 and 2**53 + 1, the smallest normal double and its
# neighbours, subnormals, underflow to zero, -0.0 and the largest finite value;
# then Eisel-Lemire's edges: the exponents +-27 at the end of its domain and
# +-28 just outside, 19 and 20 digits, products that the second word of G
# changes, values that round up to a power of two, and a tie to even at
# every exponent that has one
HARD_DECIMALS = (
    "0", "-0.0", "0.1", "1e23", "8.98846567431158e307", "9007199254740991", "9007199254740993",
    "9007199254740995", "9007199254740993.0000000001", "1152921504606847104", "1.152921504606847105e18",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.30000000000000004", "12345678901234567890", "-0.12345678901234567891", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-320", "1e-400", "-1e-400", "0e999",
    "1.7976931348623157e308", "1.7976931348623158E+308", "123456.789e-3", "1e-22", "9007199254740992e22",
    "1e27", "-1e-27", "1e28", "1e-28", "0.000000000000000000000000001", "9999999999999999999e27",
    "-9.999999999999999999e-9", "18446744073709551615e-27", "3.350674348601666386e-9", "59657.8779432673",
    "6520.538730767988", "7767649247336353.5", "0.99999999999999999", "-9007199254740991.5",
    *_ties_to_even(),
)
# tokens outside the grammar, whose value is not finite, or -0, which JSON reads
# as the integer 0 and float() as -0.0: each must be refused
REFUSED_TOKENS = (
    "-0", "+1", "1_0", "\u0661", "01", "-01", "1.", ".5", "-", "1e", "1e+", "1.e5", "--1", "1..2", "1,5", "0x10",
    "inf", "-inf", "nan", "Infinity", "1e400", "-1e400", "1.7976931348623159e308", "1\t", "1a", "",
)


def _digit_layouts() -> tuple[float, ...]:
    """For each count of significant digits from 1 to 17, a double ``repr()`` prints with that many in each layout.

    The layouts are the exponent form (``d.ddde-05``), ``0.000ddd``,
    ``d.ddd`` (from 2 digits) and an integer with trailing zeros (up to 16
    digits).  The digits are 1 to 9 repeated, with the last one chosen so
    that the text is ``repr()``'s; every other double is negative.
    """
    layouts = (lambda s: f"{s[0]}.{s[1:]}e-05".replace(".e", "e"), lambda s: f"0.000{s}",
               lambda s: f"{s[0]}.{s[1:]}", lambda s: f"{s:0<16}.0")
    doubles = []
    for n in range(1, 18):
        for layout in layouts[:2] + layouts[2:3] * (n > 1) + layouts[3:] * (n < 17):
            texts = (layout(("123456789" * 2)[: n - 1] + last) for last in "987654321")
            doubles.append(float(next(t for t in texts if repr(float(t)) == t)) * (-1) ** len(doubles))
    return tuple(doubles)


# doubles a printer gets wrong unless it finds repr()'s digits and layout: powers of
# two with their neighbours (the interval below a power of two is half as wide),
# the smallest normal and its neighbours, the smallest subnormal and the largest
# double, 2**53 - 2 and 2**53 + 2, the switches to and from the exponent form
# (9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e+16), 17-digit values,
# three-digit exponents, integers and both zeros; then every digit count in every layout
HARD_DOUBLES = (
    1.0, 0.5, 2.0, 0.9999999999999999, 1.0000000000000002, 2.2250738585072014e-308, 2.225073858507201e-308,
    2.225073858507202e-308, 5e-324, -1e-323, 2.5e-320, 1.7976931348623157e308, 8.98846567431158e307,
    1.8014398509481984e16, 9007199254740990.0, 9007199254740994.0, 9.999999999999999e-05, 0.0001, 0.001,
    9999999999999998.0, 1e16, 0.30000000000000004, -0.3333333333333333, 1.2345678901234568e17, 1e23,
    1e-100, -1e100, 1e-05, 4.35, 0.1, 100.0, -1.5, 123456.789, -0.0, 0.0, *_digit_layouts(),
)


@dataclass(frozen=True)
class Kernel:
    """What ``load`` found: the C library's functions, or None and why NumPy and Python run.

    ``parse_rows(data, out, spans, eol)`` parses a piece of whole lines, the
    bytes of ``data``, by ``wordfuse_parse_rows`` into the rows of ``out``
    and, when ``spans`` is given, each line's word span into the rows of
    ``spans``.  A line ends with the ASCII character ``eol``: ``"\\n"`` for
    a table, ``","`` for a piece of a JSON list, one number to a line; the
    last line owed ends with ``"\\n"`` or the piece, so a list's last number
    takes no ``","``.  It returns how many rows it read, at most
    ``len(out)``, or None when anything does not fit.  ``out`` is a
    C-contiguous float64 array, ``spans`` an ``(len(out), 2)`` C-contiguous
    int64 array, and the byte after ``data`` must be readable and end any
    number, as the NUL after a ``bytes`` object's own buffer does.
    ``format_rows(values, col, cols, sep, end, out)`` prints a piece of rows
    of ``cols`` numbers: the finite float64 ``values``, the first at column
    ``col``, each as ``repr()`` prints it, ``sep`` before every number not
    at column 0 and ``end`` after every number at column ``cols - 1``.
    ``sep`` and ``end`` are ASCII of at most 8 bytes.  It prints into the
    uint8 array ``out``, or into a new one when ``out`` is None or too
    small, and returns a view of the text and the array to pass next time.
    """

    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    detail: str
    parse_rows: Callable[[Buffer, np.ndarray, np.ndarray | None, str], int | None] | None = None
    format_rows: Callable[[np.ndarray, int, int, str, str, np.ndarray | None], tuple[memoryview, np.ndarray]] \
        | None = None

    @property
    def name(self) -> str:
        return "NumPy" if self.matmul is None else "C"

    def __str__(self) -> str:
        return f"{self.name} ({self.detail})"


def known_operands() -> tuple[np.ndarray, np.ndarray]:
    """The fixed 23x37 @ 37x41 operands whose products the library must reproduce.

    ``load`` checks the products of the last 1, 7 and 23 rows of ``a``
    with ``b``, every one over the packed strips of ``b``: a 1-row and a
    7-row tile, and two 8-row tiles and a 7-row one (without AVX-512: the
    1-row tile, a 4-row and a 3-row tile, and five 4-row tiles and a 3-row
    one), so every remainder tile runs.  41 columns fill one 24-column block
    and a tail of 17 (without AVX-512: 12- or 6-column blocks and a tail).
    The entries are exact binary fractions at magnitudes 1e-150, 1 and
    1e150, with every fourth one taken from ``EDGE_VALUES``.
    """
    count = 23 * 37 + 37 * 41
    idx = np.arange(count)
    values = ((idx * 0x9E3779B1) % 2**32 / 2**32 - 0.5) * np.array([1e-150, 1.0, 1e150])[idx % 3]
    values[::4] = np.resize(EDGE_VALUES, values[::4].shape)
    return values[: 23 * 37].reshape(23, 37), values[23 * 37 :].reshape(37, 41)


KNOWN_ROWS = (1, 7, 23)  # load checks the products of this many last rows of known_operands' a


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _bind(path: Path) -> dict[str, Callable]:
    """The library's functions, as ``Kernel`` fields.

    Raises OSError when it cannot be opened, AttributeError for a missing
    function and ValueError for a missing ``wordfuse_matmul_strip``.
    """
    library = ctypes.CDLL(str(path))
    product = library.wordfuse_matmul
    product.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
    product.restype = None
    strip = ctypes.c_int64.in_dll(library, "wordfuse_matmul_strip").value
    rows_fn = library.wordfuse_parse_rows
    rows_fn.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2 + [ctypes.c_char]
    rows_fn.restype = ctypes.c_int64
    print_rows = library.wordfuse_format_rows
    print_rows.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_char_p, ctypes.c_int64] * 2 \
        + [ctypes.c_void_p]
    print_rows.restype = ctypes.c_int64
    slack = ctypes.c_int64.in_dll(library, "wordfuse_format_slack").value

    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` for C-contiguous, aligned float64 ``a`` and ``b`` whose inner sizes match; any size may be 0."""
        out = np.empty((a.shape[0], b.shape[1]))
        pack = np.empty(a.shape[1] * strip)  # one column strip of b at a time
        product(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1], b.shape[1], pack.ctypes.data)
        return out

    def parse_rows(data: Buffer, out: np.ndarray, spans: np.ndarray | None = None, eol: str = "\n") -> int | None:
        text = np.frombuffer(data, np.uint8)
        read = rows_fn(text.ctypes.data, len(text), *out.shape, out.ctypes.data,
                       None if spans is None else spans.ctypes.data, eol.encode("ascii"))
        return None if read < 0 else read

    def format_rows(values: np.ndarray, col: int, cols: int, sep: str, end: str, out: np.ndarray | None
                    ) -> tuple[memoryview, np.ndarray]:
        x = np.require(values, np.float64, "CA")
        count, sep_bytes, end_bytes = x.size, sep.encode("ascii"), end.encode("ascii")
        if max(len(sep_bytes), len(end_bytes)) > 8:
            raise ValueError(f"separator {sep!r} or row end {end!r} is longer than 8 bytes")
        # a number prints in at most 24 bytes; of the numbers, (col + count - 1) // cols + (col == 0)
        # start a row and take no separator, and (col + count) // cols end one
        size = 24 * count + (count - (col + count - 1) // cols - (col == 0)) * len(sep_bytes) \
            + (col + count) // cols * len(end_bytes)
        if out is None or len(out) < size + slack:
            out = np.empty(size + slack, dtype=np.uint8)
        length = print_rows(x.ctypes.data, count, cols, col, sep_bytes.ljust(8, b"\0"), len(sep_bytes),
                            end_bytes.ljust(8, b"\0"), len(end_bytes), out.ctypes.data)
        if not 0 <= length <= size:
            raise RuntimeError(f"wordfuse_format_rows wrote {length} bytes where at most {size} fit")
        return memoryview(out)[:length], out

    return {"matmul": matmul, "parse_rows": parse_rows, "format_rows": format_rows}


def _parses_like_float(parse_rows) -> bool:
    """Whether ``HARD_DECIMALS`` give ``float()``'s bits, in a row and in a list, and ``REFUSED_TOKENS`` are refused."""
    want = np.array([float(s) for s in HARD_DECIMALS])
    row, listed = np.empty((1, len(want))), np.empty((len(want), 1))
    return (
        parse_rows(" ".join(HARD_DECIMALS).encode(), row, None, "\n") == 1
        and parse_rows(", ".join(HARD_DECIMALS).encode(), listed, None, ",") == len(want)
        and np.array_equal(row.view(np.uint64), want[None, :].view(np.uint64))
        and np.array_equal(listed.view(np.uint64), want[:, None].view(np.uint64))
        and all(parse_rows(f"{s}\n".encode(), np.empty((1, 1)), None, eol) is None
                for s in REFUSED_TOKENS for eol in "\n,")
    )


def _prints_like_repr(format_rows) -> bool:
    """Whether ``HARD_DOUBLES`` print as ``repr()`` prints them: in a list, a row, a column and rows from mid-row."""
    values, texts = np.array(HARD_DOUBLES), [repr(x) for x in HARD_DOUBLES]

    def want(col, cols, sep, end):
        return "".join(sep * ((col + i) % cols > 0) + text + end * ((col + i) % cols == cols - 1)
                       for i, text in enumerate(texts))

    return all(
        bytes(format_rows(values, col, cols, sep, end, None)[0]) == want(col, cols, sep, end).encode()
        for col, cols, sep, end in ((0, len(values), ", ", ""), (0, len(values), " ", "\n"), (0, 1, " ", "\n"),
                                    (3, 7, " ", "\n"))
    )


def _intact(path: Path) -> bool:
    """Whether ``path`` ends with the SHA-256 of the bytes before it."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > _DIGEST and hashlib.sha256(data[:-_DIGEST]).digest() == data[-_DIGEST:]


def _build(cc: str, path: Path) -> None:
    """Compile ``SOURCE`` to ``path`` by way of a temporary file.

    Raises OSError, or ``subprocess.TimeoutExpired`` for a compiler that hangs.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
            input=SOURCE, capture_output=True, text=True, errors="replace", timeout=300,
        )
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [""]
            raise OSError(f"cc exited {done.returncode}: {lines[-1]}")
        library = tmp.read_bytes()
        with open(tmp, "ab") as f:  # the loader ignores bytes after the last section
            f.write(hashlib.sha256(library).digest())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def load(reference: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    """Build or reuse the library of ``SOURCE`` and ``FLAGS`` in ``CACHE_DIR``; check it against ``reference``.

    Its number parser is checked against ``float()``, its printer against ``repr()``.

    Never raises for a missing compiler, a failed build or a bad cached
    file: the returned ``Kernel`` then has no ``matmul`` and its detail
    says why.
    """
    cc = shutil.which("cc")
    if cc is None:
        return Kernel(None, "no C compiler: 'cc' is not on PATH")
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, text=True, errors="replace", timeout=60)
        key = hashlib.sha256("\0".join([SOURCE, *FLAGS, version.stdout, _cpu_flags()]).encode())
        path = Path(CACHE_DIR) / f"wordfuse_matmul-{key.hexdigest()[:32]}.so"
        built = not _intact(path)
        if built:
            _build(cc, path)
        functions = _bind(path)
    except (OSError, AttributeError, ValueError, subprocess.SubprocessError) as err:
        return Kernel(None, f"build error: {err}")
    a, b = known_operands()
    for rows in KNOWN_ROWS:
        got, want = functions["matmul"](a[-rows:], b), reference(a[-rows:], b)
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return Kernel(None, f"known-answer mismatch: {path} differs from the NumPy loop")
    if not _parses_like_float(functions["parse_rows"]):
        return Kernel(None, f"known-answer mismatch: {path} parses numbers unlike float()")
    if not _prints_like_repr(functions["format_rows"]):
        return Kernel(None, f"known-answer mismatch: {path} prints numbers unlike repr()")
    if built:
        _prune(path)
    return Kernel(**functions, detail=str(path))


def _prune(current: Path) -> None:
    """Remove the libraries of other keys beside ``current``, where the cache allows it.

    Only finished libraries match: a build in progress is a ``.tmp`` file.
    """
    for stale in current.parent.glob("wordfuse_matmul-*.so"):
        if stale != current:
            with contextlib.suppress(OSError):  # a read-only install keeps them
                stale.unlink()
