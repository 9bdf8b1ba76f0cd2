"""Dense float64 kernels shared by every other module.

Everything here is deliberately boring: row-major float64 matrices,
a portable PRNG, and a text matrix format.  The point is bit-level
reproducibility across runs and platforms, not speed.

``matmul`` pins its accumulation order: output entries sum their products
over the inner index in ascending order, one rounded multiply and one
rounded add per step, exactly like a naive triple loop.  Each step forms
the outer product of one column of ``a`` and one row of ``b`` with
``np.einsum("i,j->ij", ..., out=step)``.  With no summed index einsum
forms each product with a single rounding, as the loop does; at most the
sign of a zero product can differ (einsum may add the product to a zeroed
output, which turns -0.0 into +0.0).  That sign never reaches the result:
the accumulator starts at +0.0, and an IEEE sum is -0.0 only when both
addends are -0.0, so the accumulator is never -0.0 and adding either zero
leaves it unchanged.  Rows of ``a`` and columns of ``b`` are independent
under this order, so a product of stacked operands equals the stacked
products byte for byte.

``init_matrix`` draws a block of the SplitMix64 stream at once from the
closed form of its states; it yields the same bits as the scalar
``SplitMix64`` loop (see its docstring).
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT_SCALE = 1.0 / (1 << 53)

# norms below this are treated as zero vectors
DEGENERATE_NORM = 1e-12


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


def as_vector(v, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={out.ndim}")
    return out


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with a pinned accumulation order.

    Each output entry accumulates products over the inner index in ascending
    order, one rounded multiply plus one rounded add per step.  That makes the
    result bit-identical to a naive triple loop with the inner index innermost,
    which is what the self-check suite compares against.

    Step k writes the products ``a[:, k] * b[k, :]`` into one reused buffer
    with a product-only einsum (no summed index, so no reassociation) and then
    adds the buffer into the accumulator.  A zero product whose sign differs
    from the loop's cannot change the sum; see the module docstring.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.shape[0]}x{a.shape[1]} @ {b.shape[0]}x{b.shape[1]}"
        )
    a_t = np.ascontiguousarray(a.T)
    out = np.zeros((a.shape[0], b.shape[1]))
    step = np.empty_like(out)
    for k in range(a.shape[1]):
        np.einsum("i,j->ij", a_t[k], b[k], out=step)
        out += step
    return out


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max subtraction; -inf entries map to exactly 0.

    Rows may contain -inf (masked positions) but must keep at least one finite
    entry; +inf and NaN are rejected.
    """
    m = as_matrix(m, "m")
    if np.isnan(m).any() or np.isposinf(m).any():
        raise ValueError("softmax input contains NaN or +inf")
    finite_rows = np.isfinite(m).any(axis=1)
    if not finite_rows.all():
        bad = int(np.argmin(finite_rows))
        raise ValueError(f"fully masked row {bad}: every entry is -inf")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)  # exp(-inf) == 0.0 exactly
    return e / e.sum(axis=1, keepdims=True)


def cosine(u, v) -> float:
    """Cosine similarity; 0.0 when either vector is degenerately small."""
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape[0] != v.shape[0]:
        raise ValueError(f"cosine length mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu = math.sqrt(float(np.dot(u, u)))
    nv = math.sqrt(float(np.dot(v, v)))
    if nu < DEGENERATE_NORM or nv < DEGENERATE_NORM:
        return 0.0
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
    draws, leaving ``rng`` where the scalar loop would.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"init_matrix needs positive dims, got {rows}x{cols}")
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


def write_matrix(m, path: str | os.PathLike) -> None:
    """Write the text format: header "rows cols", then one line per row.

    Floats are serialized with the shortest decimal representation that
    round-trips, so write -> read -> write is byte-stable.
    """
    m = require_finite(as_matrix(m), "matrix")
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Parse the text matrix format; errors carry 1-based line numbers."""
    text = Path(path).read_text(encoding="utf-8")
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
    out = np.empty((rows, cols))
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise ValueError(f"{path}: line {i}: expected {cols} values, got {len(tokens)}")
        for j, tok in enumerate(tokens):
            try:
                val = float(tok)
            except ValueError:
                raise ValueError(f"{path}: line {i}: invalid number {tok!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"{path}: line {i}: non-finite value {tok!r}")
            out[i - 2, j] = val
    return out
