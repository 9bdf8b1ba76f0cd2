"""The exact-order C matmul behind ``numerics.matmul``, built at first use.

``SOURCE`` computes ``a @ b`` for C-contiguous float64 operands in the
order of a naive triple loop: every output entry starts at +0.0 and adds
``a[i, k] * b[k, j]`` for ascending ``k``, one rounded multiply and one
rounded add per step.  For speed it computes a tile of four rows and 32
columns at a time, running ``k`` ascending over the tile's strip of one
row of ``b`` with ``j`` innermost, so the tile's sums stay in registers;
column blocks are the outer loop, so a strip of ``b`` stays in cache
while every row tile passes over it.  The tiling changes which entries
are computed together, not the order of any entry's sum.
``-ffp-contract=off`` forbids fusing the multiply and the add into one
FMA, which rounds once instead of twice.

``load`` compiles the source with the system ``cc`` into a shared library
cached in the ``__pycache__`` directory next to this file.  The file name
carries a SHA-256 over the source, the flags, ``cc --version`` and the
CPU's feature flags, because a ``-march=native`` build made on another CPU
may use instructions this one lacks.  The compiler writes a temporary
file that ``os.replace`` puts in place, so processes building at once
each end with a whole library.  The file ends with a SHA-256 of the bytes
before it, checked before the library is opened: opening a truncated
library can kill the process with SIGBUS, so a file that fails the check
is built again.  A library is accepted only when its product of fixed
operands equals the reference's bit for bit; without a compiler, or when
the build or that check fails, ``load`` returns no kernel and says why.
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

SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* columns per block: 4 rows of 32 accumulators fill 16 AVX-512 registers */
#define JB 32

void wordfuse_matmul(const double *restrict a, const double *restrict b, double *restrict out,
                     int64_t rows, int64_t inner, int64_t cols)
{
    int64_t j0 = 0;
    /* column blocks outermost: one strip of b stays in cache across the row tiles */
    for (; j0 + JB <= cols; j0 += JB) {
        int64_t i = 0;
        for (; i + 4 <= rows; i += 4) {
            const double *a0 = a + i * inner, *a1 = a0 + inner, *a2 = a1 + inner, *a3 = a2 + inner;
            double acc[4][JB] = {{0.0}};
            for (int64_t k = 0; k < inner; ++k) {
                const double *restrict bk = b + k * cols + j0;
                const double x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];
                for (int j = 0; j < JB; ++j) {
                    const double y = bk[j];
                    acc[0][j] += x0 * y;
                    acc[1][j] += x1 * y;
                    acc[2][j] += x2 * y;
                    acc[3][j] += x3 * y;
                }
            }
            for (int r = 0; r < 4; ++r)
                memcpy(out + (i + r) * cols + j0, acc[r], sizeof acc[r]);
        }
        for (; i < rows; ++i) {
            double acc[JB] = {0.0};
            for (int64_t k = 0; k < inner; ++k) {
                const double *restrict bk = b + k * cols + j0;
                const double x = a[i * inner + k];
                for (int j = 0; j < JB; ++j)
                    acc[j] += x * bk[j];
            }
            memcpy(out + i * cols + j0, acc, sizeof acc);
        }
    }
    /* the last cols % JB columns, one row at a time */
    for (int64_t i = 0; i < rows && j0 < cols; ++i) {
        double *restrict o = out + i * cols;
        memset(o + j0, 0, (size_t)(cols - j0) * sizeof(double));
        for (int64_t k = 0; k < inner; ++k) {
            const double *restrict bk = b + k * cols;
            const double x = a[i * inner + k];
            for (int64_t j = j0; j < cols; ++j)
                o[j] += x * bk[j];
        }
    }
}
"""

FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"
_DIGEST = 32  # bytes of the SHA-256 that ends each cached library

# signed zeros, subnormals and magnitudes whose products stay finite
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-150, -1e-150, 1e150, -1e150)


@dataclass(frozen=True)
class Kernel:
    """What ``load`` found: a C matmul and its library, or None and why NumPy runs."""

    matmul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    detail: str

    @property
    def name(self) -> str:
        return "NumPy" if self.matmul is None else "C"

    def __str__(self) -> str:
        return f"{self.name} ({self.detail})"


def known_operands() -> tuple[np.ndarray, np.ndarray]:
    """The fixed 9x37 @ 37x41 product the library must reproduce.

    Nine rows fill two 4-row tiles and a remainder row; 41 columns fill one
    32-column block and a tail of 9, which covers several SIMD widths.  The
    entries are exact binary fractions
    at magnitudes 1e-150, 1 and 1e150, with every fourth one taken from
    ``EDGE_VALUES``.
    """
    count = 9 * 37 + 37 * 41
    idx = np.arange(count)
    values = ((idx * 0x9E3779B1) % 2**32 / 2**32 - 0.5) * np.array([1e-150, 1.0, 1e150])[idx % 3]
    values[::4] = np.resize(EDGE_VALUES, values[::4].shape)
    return values[: 9 * 37].reshape(9, 37), values[9 * 37 :].reshape(37, 41)


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _bind(path: Path) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The library's matmul; raises OSError or AttributeError when it cannot be opened."""
    fn = ctypes.CDLL(str(path)).wordfuse_matmul
    fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 3
    fn.restype = None

    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b`` for C-contiguous, aligned float64 ``a`` and ``b`` whose inner sizes match."""
        out = np.empty((a.shape[0], b.shape[1]))
        fn(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1], b.shape[1])
        return out

    return matmul


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
        matmul = _bind(path)
    except (OSError, AttributeError, subprocess.SubprocessError) as err:
        return Kernel(None, f"build error: {err}")
    a, b = known_operands()
    if not np.array_equal(matmul(a, b).view(np.uint64), reference(a, b).view(np.uint64)):
        return Kernel(None, f"known-answer mismatch: {path} differs from the NumPy loop")
    if built:
        _prune(path)
    return Kernel(matmul, str(path))


def _prune(current: Path) -> None:
    """Remove the libraries of other keys beside ``current``, where the cache allows it.

    Only finished libraries match: a build in progress is a ``.tmp`` file.
    """
    for stale in current.parent.glob("wordfuse_matmul-*.so"):
        if stale != current:
            with contextlib.suppress(OSError):  # a read-only install keeps them
                stale.unlink()
