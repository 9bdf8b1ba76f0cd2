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
from typing import Mapping

import numpy as np

from . import numerics
from .numerics import as_matrix, as_vector, matmul, require_finite

log = logging.getLogger(__name__)

# every tensor a complete bundle must carry, in serialization order
BUNDLE_TENSORS = ("W1", "b1", "W2", "b2", "Wq1", "Wk1", "Wv1", "Wq2", "Wk2", "Wv2")

UNK_TOKEN = "<unk>"


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


def load_embeddings(path: str | os.PathLike) -> EmbeddingTable:
    """Load a word2vec-style text file; duplicate words keep the last vector."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected 'count dim' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}, expected 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{path}: line 1: non-integer header {lines[0]!r}") from None
    if count < 0 or dim < 1:
        raise ValueError(f"{path}: line 1: bad header values {count} {dim}")
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: expected {count} entries, found {len(lines) - 1}")

    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ValueError(
                f"{path}: line {i}: expected a word and {dim} values, got {len(parts)} fields"
            )
        word = _nfc(parts[0])
        try:
            vec = np.array([float(tok) for tok in parts[1:]])
        except ValueError:
            raise ValueError(f"{path}: line {i}: invalid number in vector") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: line {i}: non-finite value in vector")
        if word in vectors:
            duplicates += 1
        vectors[word] = vec
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
    if not isinstance(obj, dict):
        raise ValueError(f"bundle tensor {name!r} must be an object or a path string")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except KeyError as missing:
        raise ValueError(f"bundle tensor {name!r} is missing key {missing}") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"bundle tensor {name!r} has bad dims {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(
            f"bundle tensor {name!r}: data length {len(data)} != {rows}*{cols}"
        )
    m = np.array([float(v) for v in data]).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ValueError(f"bundle tensor {name!r} contains non-finite entries")
    return m


def load_bundle(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a weight bundle; every tensor in BUNDLE_TENSORS must be present."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: bundle must be a JSON object")
    missing = [name for name in BUNDLE_TENSORS if name not in raw]
    if missing:
        raise ValueError(f"{path}: bundle is missing tensors {missing}")
    return {name: _decode_tensor(name, raw[name], p.parent) for name in BUNDLE_TENSORS}


def save_bundle(tensors: Mapping[str, np.ndarray], path: str | os.PathLike) -> None:
    """Write a bundle with inline tensors, in canonical order."""
    missing = [name for name in BUNDLE_TENSORS if name not in tensors]
    if missing:
        raise ValueError(f"bundle is missing tensors {missing}")
    obj = {}
    for name in BUNDLE_TENSORS:
        m = require_finite(as_matrix(tensors[name], name), name)
        obj[name] = {
            "rows": m.shape[0],
            "cols": m.shape[1],
            "data": [float(v) for v in m.ravel()],
        }
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


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
