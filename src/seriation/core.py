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
import numbers
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for equality-of-reals in invariant checks.
EPS = 1e-9


def _as_float64(a, name: str) -> np.ndarray:
    """``a`` as a C-contiguous float64 array. Raise ``ValueError`` unless its
    entries are real numbers: bool, integer or float. A complex, string or
    object entry is refused rather than cast, since the cast would drop an
    imaginary part or parse a string."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} entries must be real numbers, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and canonicalize a dense matrix.

    Returns a 2-D, C-contiguous float64 array. Rejects anything that is not
    two-dimensional, empty, not real, or contains NaN/inf entries.
    """
    return _check_array(a, name, 2)


def check_vector(y, name: str = "vector") -> np.ndarray:
    return _check_array(y, name, 1)


def _check_array(a, name: str, ndim: int) -> np.ndarray:
    arr = _as_float64(a, name)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_real(value, name: str) -> float:
    """``value`` as a float. Raise ``ValueError`` unless it is a real number:
    a bool or a numeric string is no number here. An int beyond the float64
    range reads as an infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_nonnegative(value, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a real number, finite and
    >= 0. A bool or a numeric string is no real number here."""
    v = _check_real(value, name)
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_integer(value, name: str) -> int:
    """``value`` as an int. Raise ``ValueError`` unless it is an integral real
    number: a float must have no fractional part, and a bool or a numeric
    string is no number here."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == math.floor(value))
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_instance(value, cls, name: str):
    """``value``, unless it is no ``cls``: then raise ``ValueError``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_choice(value, choices, what: str) -> None:
    """Raise ``ValueError`` naming ``choices`` unless ``value`` is a string
    among them. An array is never compared element-wise."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")


def _check_path(path):
    """``path``, unless it is no ``str`` or ``os.PathLike``: then raise
    ``ValueError``. ``open`` would take an int as a file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    return path


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1} acting on matrix rows.

    ``mapping[i]`` is the destination row of source row ``i``: applying the
    permutation to a matrix ``a`` yields ``out`` with ``out[mapping[i]] ==
    a[i]``. Note the inverse relationship to numpy fancy indexing:
    ``permute_rows(p, a) == a[inverse(p).mapping]`` and ``a[p.mapping] ==
    permute_rows(inverse(p), a)``.
    """

    mapping: np.ndarray = field()

    def __post_init__(self):
        raw = np.asarray(self.mapping)
        if raw.dtype.kind not in "iuf":
            raise ValueError(
                f"permutation mapping entries must be integers, got dtype {raw.dtype}")
        if raw.dtype.kind == "f":  # the cast must not change a value
            with np.errstate(invalid="ignore"):  # NaN and huge floats fail the check
                if np.any(raw.astype(np.int64) != raw):
                    raise ValueError("permutation mapping entries must be integers")
        m = np.ascontiguousarray(raw, dtype=np.int64)
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
        return cls(np.arange(_check_integer(n, "n"), dtype=np.int64))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        _check_instance(rng, np.random.Generator, "rng")
        # an array n would be shuffled instead of read as a length
        return cls(rng.permutation(_check_integer(n, "n")).astype(np.int64))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(
            self.mapping, other.mapping
        )

    def __hash__(self) -> int:
        return hash(self.mapping.tobytes())


def inverse(p: Permutation) -> Permutation:
    return Permutation(_inverse_mapping(_check_instance(p, Permutation, "p")))


def _inverse_mapping(p: Permutation) -> np.ndarray:
    """``inverse(p).mapping``, by a scatter (argsort raised peak RSS)."""
    inv = np.empty(p.n, dtype=np.int64)
    inv[p.mapping] = np.arange(p.n, dtype=np.int64)
    return inv


def permute_rows(p: Permutation, a: np.ndarray) -> np.ndarray:
    """Matrix action of a permutation: row i of ``a`` goes to row
    ``p.mapping[i]`` of the result."""
    return _permute_rows(p, _check_rows(p, a))


def _check_rows(p: Permutation, a) -> np.ndarray:
    """``check_matrix(a)``, which must have one row per entry of the
    :class:`Permutation` ``p``."""
    _check_instance(p, Permutation, "p")
    a = check_matrix(a)
    _check_length(p, a.shape[0])
    return a


def _check_length(p: Permutation, n: int) -> None:
    if p.n != n:
        raise ValueError(f"permutation length {p.n} does not match row count {n}")


def _permute_rows(p: Permutation, a: np.ndarray) -> np.ndarray:
    """:func:`permute_rows` for a validated matrix with ``p.n`` rows."""
    out = np.empty_like(a)
    out[p.mapping] = a
    return out


# Passes over a matrix row by row take the rows in blocks of about this many
# bytes, so their scratch stays cache-sized at any matrix size.
_ROW_BLOCK_BYTES = 1 << 18


def _block_rows(m: int) -> int:
    """Rows per block of a float64 matrix ``m`` wide: about ``_ROW_BLOCK_BYTES``."""
    return max(1, _ROW_BLOCK_BYTES // (8 * max(m, 1)))


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
    step = _block_rows(m)
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


def _loss_terms(a_hat: np.ndarray, p_hat: Permutation, a_true: np.ndarray,
                p_true: Permutation) -> tuple[float, float, float]:
    """Unnormalised ``(total, perm, matrix)`` loss terms of ``(p_hat, a_hat)``
    against ``(p_true, a_true)``: the squared distances of ``p_hat a_hat``,
    ``p_hat a_true`` and ``a_hat`` to ``p_true a_true``, ``p_true a_true``
    and ``a_true``. No permuted matrix is formed: row r of
    ``permute_rows(p, a)`` is row ``inverse(p).mapping[r]`` of ``a``, which
    :func:`_sq_dist` gathers. Equal permutations take one pass."""
    if a_hat.shape != a_true.shape:
        raise ValueError(f"shape mismatch: {a_hat.shape} vs {a_true.shape}")
    for p in (p_true, p_hat):
        _check_length(p, a_true.shape[0])
    if np.array_equal(p_hat.mapping, p_true.mapping):
        matrix = _sq_dist(a_hat, a_true)
        return matrix, 0.0, matrix
    hat_rows, true_rows = _inverse_mapping(p_hat), _inverse_mapping(p_true)
    return (
        _sq_dist(a_hat, a_true, hat_rows, true_rows),
        _sq_dist(a_true, a_true, hat_rows, true_rows),
        _sq_dist(a_hat, a_true),
    )


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
    a, b = _as_float64(a, "a"), _as_float64(b, "b")
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


def _check_seed(seed) -> int:
    """``seed`` as an int. Raise ``ValueError`` unless it is an integer in
    [0, 2^64), the seeds that :func:`derive_rng` takes."""
    seed = _check_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` and an integer derivation path."""
    entropy = [_check_seed(seed), *(_check_integer(k, "seed path entry") for k in path)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


# ---------------------------------------------------------------------------
# Text formats shared by the CLI: matrices as headerless CSV (one row per
# line, '.' decimal, LF endings), permutations as one 0-based image per line.
# ---------------------------------------------------------------------------


def write_matrix_csv(a: np.ndarray, path) -> None:
    """Write ``a`` as matrix CSV, each entry as ``%.17g``.

    A column of a fitted matrix holds a few dozen distinct values, one of a
    drawn matrix n. When the first column holds at most n / 4, each distinct
    value of a row block is formatted once, with the same bytes.
    """
    a = check_matrix(a)
    by_value = 4 * np.unique(a[:, 0]).size <= a.shape[0]
    with open(_check_path(path), "w", newline="\n") as f:
        (_write_csv_by_value if by_value else _write_csv_rows)(a, f)


def _write_csv_rows(a: np.ndarray, f) -> None:
    # one % per row; a whole-matrix tolist() or join costs tens of MB at
    # 2048 x 256
    fmt = ",".join(["%.17g"] * a.shape[1]) + "\n"
    for row in a:
        f.write(fmt % tuple(row.tolist()))


def _write_csv_by_value(a: np.ndarray, f) -> None:
    """:func:`_write_csv_rows` with each distinct float of a row block
    formatted once. Floats are told apart by their bits, so -0.0 and 0.0
    keep their own strings."""
    step = _block_rows(a.shape[1])
    for s in range(0, a.shape[0], step):
        block = a[s:s + step]
        bits, at = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
        for row in text[at.reshape(block.shape)]:
            f.write(",".join(row.tolist()) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix CSV: decimal floats separated by ``,``, one row per
    line, blank lines skipped; no quotes, comments or digit underscores.

    Every rejection raises ``ValueError`` naming the path; a ragged row or a
    bad number also names its 1-based line in the file.
    """
    lineno, line, width = 0, "", None

    def rows(f):
        # loadtxt pulls one row at a time, so when it rejects a row, that
        # row is the last line handed to it
        nonlocal lineno, line, width
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                if width is None:
                    width = line.count(",") + 1
                yield line

    with open(_check_path(path), "r") as f:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                a = np.loadtxt(rows(f), dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
        except ValueError as e:
            fields = line.count(",") + 1
            if fields != width:
                raise ValueError(
                    f"{path}: ragged row at line {lineno} ({fields} fields, expected {width})"
                ) from None
            # loadtxt's own position counts data rows from 0
            reason = str(e).split(" at row ")[0]
            raise ValueError(f"{path}: bad number at line {lineno}: {reason}") from None
    if a.size == 0:
        raise ValueError(f"{path}: empty matrix file")
    return check_matrix(a, str(path))


def write_permutation(p: Permutation, path) -> None:
    _check_instance(p, Permutation, "p")
    with open(_check_path(path), "w", newline="\n") as f:
        for v in p.mapping:
            f.write(f"{int(v)}\n")


# an optionally signed run of ASCII digits: int() alone also takes '1_0',
# other scripts' digits and numbers past int64
_DECIMAL = re.compile(r"[+-]?[0-9]{1,19}")


def read_permutation(path) -> Permutation:
    """Read a permutation: whitespace-separated decimal integers, written
    one per line. Every rejection raises ``ValueError`` naming the path; an
    entry that is no int64 decimal also names its 1-based line."""
    vals = []
    with open(_check_path(path), "r") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                for tok in line.split():
                    v = int(tok) if _DECIMAL.fullmatch(tok) else None
                    if v is None or not -2**63 <= v < 2**63:
                        raise ValueError(f"{path}: bad entry at line {lineno}: {tok!r} "
                                         "is not a 64-bit decimal integer")
                    vals.append(v)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    if not vals:
        raise ValueError(f"{path}: empty permutation file")
    try:
        return Permutation(np.array(vals, dtype=np.int64))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
