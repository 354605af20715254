"""Dense matrix and permutation primitives shared by every other module.

Matrices are plain 2-D float64 numpy arrays in row-major (C) order; columns
are the shape-constrained direction, rows are the objects being reordered.
Permutations act on rows: row ``i`` of ``a`` becomes row ``p.mapping[i]`` of
the permuted matrix.

Everything here is 0-based. Formulas stated with 1-based indices elsewhere
in the package are translated once, at this boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for equality-of-reals in invariant checks.
EPS = 1e-9


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and canonicalize a dense matrix.

    Returns a 2-D, C-contiguous float64 array. Rejects anything that is not
    two-dimensional, empty, or contains NaN/inf entries.
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_vector(y, name: str = "vector") -> np.ndarray:
    arr = np.ascontiguousarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1} acting on matrix rows.

    ``mapping[i]`` is the destination row of source row ``i``: applying the
    permutation to a matrix ``a`` yields ``out`` with ``out[mapping[i]] ==
    a[i]``. Note the inverse relationship to numpy fancy indexing:
    ``apply(p, a) == a[inverse(p).mapping]`` and ``a[p.mapping] ==
    apply(inverse(p), a)``.
    """

    mapping: np.ndarray = field()

    def __post_init__(self):
        m = np.ascontiguousarray(self.mapping, dtype=np.int64)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("permutation mapping must be a non-empty 1-D array")
        seen = np.zeros(m.size, dtype=bool)
        if m.min() < 0 or m.max() >= m.size:
            raise ValueError("permutation mapping entries out of range")
        seen[m] = True
        if not seen.all():
            raise ValueError("permutation mapping is not a bijection")
        m.setflags(write=False)
        object.__setattr__(self, "mapping", m)

    @property
    def n(self) -> int:
        return int(self.mapping.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        return cls(rng.permutation(n).astype(np.int64))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.mapping, np.arange(self.n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(
            self.mapping, other.mapping
        )

    def __hash__(self) -> int:
        return hash(self.mapping.tobytes())


def inverse(p: Permutation) -> Permutation:
    inv = np.empty(p.n, dtype=np.int64)
    inv[p.mapping] = np.arange(p.n, dtype=np.int64)
    return Permutation(inv)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition acting as p after q: apply(compose(p, q), a) ==
    apply(p, apply(q, a))."""
    if p.n != q.n:
        raise ValueError(f"permutation length mismatch: {p.n} vs {q.n}")
    return Permutation(p.mapping[q.mapping])


def permute_rows(p: Permutation, a: np.ndarray) -> np.ndarray:
    """Matrix action of a permutation: row i of ``a`` goes to row
    ``p.mapping[i]`` of the result."""
    a = check_matrix(a)
    if p.n != a.shape[0]:
        raise ValueError(
            f"permutation length {p.n} does not match row count {a.shape[0]}"
        )
    return _permute_rows(p, a)


def _permute_rows(p: Permutation, a: np.ndarray) -> np.ndarray:
    """:func:`permute_rows` for a validated matrix with ``p.n`` rows."""
    out = np.empty_like(a)
    out[p.mapping] = a
    return out


# Squared distances take their row differences in blocks of about this many
# bytes, so their scratch stays cache-sized at any matrix size.
_ROW_BLOCK_BYTES = 1 << 18


def _sq_dist(a: np.ndarray, b: np.ndarray, ia=None, ib=None) -> float:
    """Sum over k of ``||a[ia[k]] - b[ib[k]]||^2``, for float64 matrices of
    equal width and index arrays of equal length; an index array left None
    stands for all rows in order.

    Each row's squared norm is the same float in any block and under any
    gather, and the norms are summed in sorted order, so the result depends
    only on the set of row pairs. Scratch is two blocks of rows and one float
    per row pair, never a whole difference matrix. A sum that is not finite
    (a NaN or infinite entry, or overflow) raises ``ValueError``.
    """
    n = a.shape[0] if ia is None else ia.size
    m = a.shape[1]
    step = max(1, _ROW_BLOCK_BYTES // (8 * max(m, 1)))
    d = np.empty((min(step, n), m))
    gathered = np.empty_like(d) if ib is not None else None
    row_sq = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, step):
            e = min(s + step, n)
            blk = d[:e - s]
            # indices come from validated permutations; "clip" avoids the
            # temporary copy that take() makes for mode="raise"
            x = a[s:e] if ia is None else np.take(a, ia[s:e], axis=0, out=blk, mode="clip")
            z = b[s:e] if ib is None else np.take(
                b, ib[s:e], axis=0, out=gathered[:e - s], mode="clip")
            np.subtract(x, z, out=blk)
            np.einsum("ij,ij->i", blk, blk, out=row_sq[s:e])
    row_sq.sort()
    total = float(np.sum(row_sq))
    if not math.isfinite(total):
        raise ValueError("squared distance is not finite (NaN/inf entries or overflow)")
    return total


def frobenius_sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of squared entrywise differences between two equal-shaped matrices.

    Accumulated as per-row squared norms summed in sorted order, so the
    result is bit-identical under any common row permutation of the inputs
    (row-permutation isometry holds exactly, not just to rounding). The
    norms are taken in row blocks: scratch is O(block + n), not O(n m),
    beyond any float64 C-ordered copy of an input. Only the result is
    checked for finiteness: a NaN or infinite entry in either input, and an
    overflowing sum, all raise ``ValueError`` there.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"a must be 2-D, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _sq_dist(a, b)


# ---------------------------------------------------------------------------
# Seeded randomness.
#
# All randomness in the package flows through Philox, a counter-based 64-bit
# generator whose streams are identical across platforms for a given seed.
# Independent substreams (per experiment cell, per replication) are derived
# by feeding the integer path into the same SeedSequence, so any subset of
# the work can be recomputed in isolation and in any order.
# ---------------------------------------------------------------------------


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` and an integer derivation path."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    ss = np.random.SeedSequence(entropy=[int(seed), *[int(k) for k in path]])
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Text formats shared by the CLI: matrices as headerless CSV (one row per
# line, '.' decimal, LF endings), permutations as one 0-based image per line.
# ---------------------------------------------------------------------------


def write_matrix_csv(a: np.ndarray, path) -> None:
    a = check_matrix(a)
    # one % per row; a whole-matrix tolist() or join costs tens of MB at
    # 2048 x 256
    fmt = ",".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w", newline="\n") as f:
        for row in a:
            f.write(fmt % tuple(row.tolist()))


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(parts)} fields, expected {width})"
                )
            try:
                rows.append([float(v) for v in parts])
            except ValueError as e:
                raise ValueError(f"{path}: bad number at line {lineno}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return check_matrix(np.array(rows, dtype=np.float64), str(path))


def write_permutation(p: Permutation, path) -> None:
    with open(path, "w", newline="\n") as f:
        for v in p.mapping:
            f.write(f"{int(v)}\n")


def read_permutation(path) -> Permutation:
    with open(path, "r") as f:
        vals = [int(line) for line in f.read().split()]
    if not vals:
        raise ValueError(f"{path}: empty permutation file")
    return Permutation(np.array(vals, dtype=np.int64))
