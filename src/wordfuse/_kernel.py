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


# decimals a parser gets wrong unless it rounds correctly, each as float() reads it:
# halfway cases between adjacent doubles (ties to even, and just off a tie;
# 2**60 + 128 is one that the fast path must leave to strtod), 17-20 digit
# mantissas, 2**53 - 1 and 2**53 + 1, the smallest normal double and its
# neighbours, subnormals, underflow to zero, -0 and the largest finite value
HARD_DECIMALS = (
    "0", "-0", "-0.0", "0.1", "1e23", "8.98846567431158e307", "9007199254740991", "9007199254740993",
    "9007199254740995", "9007199254740993.0000000001", "1152921504606847104", "1.152921504606847105e18",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.30000000000000004", "12345678901234567890", "-0.12345678901234567891", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308", "4.9406564584124654e-324", "5e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-320", "1e-400", "-1e-400", "0e999",
    "1.7976931348623157e308", "1.7976931348623158E+308", "123456.789e-3", "1e-22", "9007199254740992e22",
)
# tokens outside the grammar, or whose value is not finite: each must be refused
REFUSED_TOKENS = (
    "+1", "1_0", "\u0661", "01", "-01", "1.", ".5", "-", "1e", "1e+", "1.e5", "--1", "1..2", "1,5", "0x10",
    "inf", "-inf", "nan", "Infinity", "1e400", "-1e400", "1.7976931348623159e308", "1\t", "1a", "",
)
# doubles a printer gets wrong unless it finds repr()'s digits and layout: powers of
# two with their neighbours (the interval below a power of two is half as wide),
# the smallest normal and its neighbours, the smallest subnormal and the largest
# double, 2**53 - 2 and 2**53 + 2, the switches to and from the exponent form
# (9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e+16), 17-digit values,
# three-digit exponents, integers and both zeros
HARD_DOUBLES = (
    1.0, 0.5, 2.0, 0.9999999999999999, 1.0000000000000002, 2.2250738585072014e-308, 2.225073858507201e-308,
    2.225073858507202e-308, 5e-324, -1e-323, 2.5e-320, 1.7976931348623157e308, 8.98846567431158e307,
    1.8014398509481984e16, 9007199254740990.0, 9007199254740994.0, 9.999999999999999e-05, 0.0001, 0.001,
    9999999999999998.0, 1e16, 0.30000000000000004, -0.3333333333333333, 1.2345678901234568e17, 1e23,
    1e-100, -1e100, 1e-05, 4.35, 0.1, 100.0, -1.5, 123456.789, -0.0, 0.0,
)


@dataclass(frozen=True)
class Kernel:
    """What ``load`` found: the C library's functions, or None and why NumPy and Python run.

    ``parse_rows(data, start, rows, cols, words)`` returns the ``rows x cols``
    numbers of the lines ``wordfuse_parse_rows`` reads from ``data[start:]``
    and, with ``words``, a ``(rows, 2)`` array of each word's byte span.
    ``parse_list(data, start, count)`` returns the numbers of the JSON list
    at ``data[start]`` and the offset after it.  Either returns None when
    anything does not fit, and allocates nothing before checking that
    ``data`` is long enough to hold the numbers a header promises.
    ``format_rows(m, sep, end)`` is ``sep.join(map(repr, row)) + end`` for
    each row of a 2-D array of finite float64 values, joined, where ``sep``
    and ``end`` are ASCII.
    """

    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    detail: str
    parse_rows: Callable[[bytes, int, int, int, bool], tuple[np.ndarray, np.ndarray | None] | None] | None = None
    parse_list: Callable[[bytes, int, int], tuple[np.ndarray, int] | None] | None = None
    format_rows: Callable[[np.ndarray, str, str], str] | None = None

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
    rows_fn, list_fn = library.wordfuse_parse_rows, library.wordfuse_parse_list
    # c_char_p passes a bytes object's own buffer, which ends with a NUL byte
    rows_fn.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 2
    list_fn.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
    rows_fn.restype = list_fn.restype = ctypes.c_int64
    print_rows = library.wordfuse_format_rows
    print_rows.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_char_p, ctypes.c_int64] * 2 \
        + [ctypes.c_void_p]
    print_rows.restype = ctypes.c_int64

    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` for C-contiguous, aligned float64 ``a`` and ``b`` whose inner sizes match; any size may be 0."""
        out = np.empty((a.shape[0], b.shape[1]))
        pack = np.empty(a.shape[1] * strip)  # one column strip of b at a time
        product(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1], b.shape[1], pack.ctypes.data)
        return out

    def parse_rows(data: bytes, start: int, rows: int, cols: int, words: bool):
        # a number and its separator take at least two bytes; the last line may lack its newline
        if 2 * rows * cols > len(data) - start + 1:
            return None
        out = np.empty((rows, cols))
        spans = np.empty((rows, 2), dtype=np.int64) if words else None
        if rows_fn(data, start, len(data), rows, cols, out.ctypes.data, None if spans is None else spans.ctypes.data):
            return None
        return out, spans

    def parse_list(data: bytes, start: int, count: int):
        if 2 * count > len(data) - start:  # '[', ']' and a ", " or more per number
            return None
        out = np.empty(count)
        end = list_fn(data, start, len(data), count, out.ctypes.data)
        return None if end < 0 else (out, end)

    def format_rows(m: np.ndarray, sep: str, end: str) -> str:
        x = np.require(m, np.float64, "CA")
        rows, cols = x.shape
        sep_bytes, end_bytes = sep.encode("ascii"), end.encode("ascii")
        # a number prints in at most 24 bytes
        size = rows * (24 * cols + max(cols - 1, 0) * len(sep_bytes) + len(end_bytes))
        out = np.empty(size, dtype=np.uint8)
        length = print_rows(x.ctypes.data, rows, cols, sep_bytes, len(sep_bytes), end_bytes, len(end_bytes),
                            out.ctypes.data)
        if not 0 <= length <= size:
            raise RuntimeError(f"wordfuse_format_rows wrote {length} bytes to a buffer of {size}")
        return str(memoryview(out)[:length], "ascii")

    return {"matmul": matmul, "parse_rows": parse_rows, "parse_list": parse_list, "format_rows": format_rows}


def _parses_like_float(parse_rows, parse_list) -> bool:
    """Whether ``HARD_DECIMALS`` give ``float()``'s bits, in a row and in a list, and ``REFUSED_TOKENS`` are refused."""
    want = np.array([float(s) for s in HARD_DECIMALS])
    row = parse_rows(" ".join(HARD_DECIMALS).encode(), 0, 1, len(HARD_DECIMALS), False)
    fractions = [s for s in HARD_DECIMALS if not s.lstrip("-").isdigit()]  # lists take no integers
    listed = parse_list(f"[{', '.join(fractions)}]".encode(), 0, len(fractions))
    return (
        row is not None and np.array_equal(row[0].view(np.uint64), want[None, :].view(np.uint64))
        and listed is not None
        and np.array_equal(listed[0].view(np.uint64), np.array([float(s) for s in fractions]).view(np.uint64))
        and all(parse_rows(f"{s}\n".encode(), 0, 1, 1, False) is None for s in REFUSED_TOKENS)
    )


def _prints_like_repr(format_rows) -> bool:
    """Whether ``HARD_DOUBLES`` print as ``repr()`` prints them, in a list, in a row and in a column."""
    values, want = np.array(HARD_DOUBLES), [repr(x) for x in HARD_DOUBLES]
    return (
        format_rows(values[None, :], ", ", "") == ", ".join(want)
        and format_rows(values[None, :], " ", "\n") == " ".join(want) + "\n"
        and format_rows(values[:, None], " ", "\n") == "".join(f"{text}\n" for text in want)
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
    if not _parses_like_float(functions["parse_rows"], functions["parse_list"]):
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
