"""Complexity functionals of a matrix and the row-gap / loss diagnostics.

Three scalars summarize how hard a monotone matrix is to recover from noise:

* ``K``: total number of distinct values over the columns (adaptive
  complexity; small K means nearly piecewise-constant columns),
* ``V``: a 2/3-power mean of the per-column variations raised back to the
  3/2 (global complexity; the odd exponent is what makes the vector and
  matrix rates line up),
* ``R``: the average of the n largest per-row-pair scores
  ``min(||u||^2/||u||_inf^2, m ||u||^2/||u||_1^2)`` over pairs of distinct
  rows; it sits in [1, sqrt(m)] and is 1 when every row difference is either
  1-sparse or fully dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS, Permutation, check_matrix, frobenius_sq_dist, permute_rows
from .shape import has_monotone_columns


@dataclass(frozen=True)
class ComplexityReport:
    """K, V and R of one matrix plus the per-column breakdowns.

    ``r_value`` is None when the matrix is not column-increasing (R is only
    defined there). ``r_degenerate`` flags the case where all rows are
    identical: the defining sum is empty, and the reported value is the
    floor 1 rather than something computed.
    """

    k_total: int
    per_column_k: np.ndarray
    v_total: float
    per_column_v: np.ndarray
    r_value: float | None
    r_degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "K": self.k_total,
            "V": self.v_total,
            "R": self.r_value,
            "per_column_k": [int(k) for k in self.per_column_k],
            "per_column_v": [float(v) for v in self.per_column_v],
            "r_degenerate": self.r_degenerate,
        }


def count_levels(a, quantize: float | None = None) -> tuple[int, np.ndarray]:
    """Number of distinct values in each column and their total K.

    Distinctness is exact equality of floats: inputs are constructed
    matrices, where ties are exact by construction. For externally loaded
    noisy data, ``quantize`` snaps values to multiples of the given width
    before counting.
    """
    a = check_matrix(a)
    if quantize is not None:
        if quantize <= 0:
            raise ValueError("quantize width must be positive")
        a = np.round(a / quantize)
    per_column = np.array(
        [np.unique(a[:, j]).size for j in range(a.shape[1])], dtype=np.int64
    )
    return int(per_column.sum()), per_column


def variation(a) -> tuple[float, np.ndarray]:
    """Per-column max-minus-min and the matrix variation
    ``((1/m) sum v_j^(2/3))^(3/2)``."""
    a = check_matrix(a)
    with np.errstate(over="ignore"):
        per_column = a.max(axis=0) - a.min(axis=0)
    if not np.all(np.isfinite(per_column)):
        raise ValueError("column variation V overflows float64")
    v = float(np.mean(per_column ** (2.0 / 3.0)) ** 1.5)
    return v, per_column


def pair_score(u, m: int) -> float:
    """Sparsity/density score of one row difference: small when ``u`` is
    nearly 1-sparse or nearly constant, at most sqrt(m); 0.0 when ``u`` is
    zero."""
    d = np.abs(np.asarray(u, dtype=np.float64))[None, :]
    return float(_scores(d, m)[0]) if d.any() else 0.0


def _scores(d: np.ndarray, m: int) -> np.ndarray:
    """``min(||u||^2/||u||_inf^2, m ||u||^2/||u||_1^2)`` of each row ``u``
    of ``d``, absolute differences with a non-zero entry each. The rows are
    divided in place by their largest entry first: the score is scale-free,
    and the squares of scaled entries neither underflow nor overflow."""
    d /= d.max(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->i", d, d)
    return np.minimum(sq, m * sq / d.sum(axis=1) ** 2)


# r_statistic streams the rows below row i past it in tiles of about this
# many bytes, so that the five passes over each tile stay in cache.
_R_TILE_BYTES = 1 << 18

# The scores of pairs (i, l), i < l, wait for row l's turn in a lower
# triangle cut into chunks of at most this many bytes of scores. A single
# triangle array (17 MB at n = 2048) raised the CLI pipeline's peak RSS from
# about 120 to 133 MB, most likely because freeing it lifts glibc's dynamic
# mmap threshold and the 4 MB arrays of the later commands then fragment the
# heap.
_R_CHUNK_BYTES = 1 << 21


# Squares of numbers outside [2^-500, 2^500] may under- or overflow float64.
_SQUARE_SAFE_LO, _SQUARE_SAFE_HI = 2.0**-500, 2.0**500


def _scaled_scores(a: np.ndarray, i: int, rows: np.ndarray) -> np.ndarray:
    """Pair scores of row ``i`` against ``rows`` by the scale-free
    :func:`_scores`. Each row must differ from row ``i``."""
    with np.errstate(over="ignore"):
        d = a[rows] - a[i]
    if not np.all(np.isfinite(d)):  # a difference past the float64 range
        d = 0.5 * a[rows] - 0.5 * a[i]
    return _scores(np.abs(d), a.shape[1])


def r_statistic(a) -> float:
    """Average of the ``n`` largest pair scores over ordered pairs of
    non-identical rows of a column-increasing matrix.

    Guaranteed to land in [1, sqrt(m)] whenever some pair of rows differs;
    returns 0.0 when all rows are identical (the defining sum is empty --
    callers wanting the reported floor should go through
    :func:`complexity_report`).

    The score of an ordered pair is the score of its reverse to the bit,
    because ``fl(x - y) == -fl(y - x)`` and only absolute differences enter
    it. So each unordered pair ``(i, l)``, ``l > i``, is scored once, at row
    ``i``, and kept until row ``l`` needs it. The scores still reach the
    top-n selection in the order of one pass per row ``i`` over all ``l``,
    which makes the result equal to the per-row loop it replaced
    (``tests/oracles.py``). Cost: O(n^2 m / 2) entry operations, in tiles of
    about ``_R_TILE_BYTES``, and about 9 n (n - 1) / 2 bytes of pending
    scores and flags, held in chunks that are freed as their rows are used.
    """
    a = check_matrix(a)
    if not has_monotone_columns(a):
        raise ValueError("r_statistic requires column-increasing input")
    n, m = a.shape
    # row l of the triangle holds pairs (i, l) for i < l, from entry tri[l]
    tri = np.arange(n + 1, dtype=np.int64)
    tri = tri * (tri - 1) // 2
    cap = _R_CHUNK_BYTES // 8
    chunks = []  # (first row, end row, scores, distinct), in row order
    r0 = 1
    while r0 < n:
        r1 = int(np.searchsorted(tri, tri[r0] + cap, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        size = int(tri[r1] - tri[r0])
        chunks.append((r0, r1, np.empty(size), np.empty(size, dtype=bool)))
        r0 = r1
    tile = max(1, _R_TILE_BYTES // (8 * m))
    buf = np.empty((min(tile, n), m))
    sq, linf, l1 = np.empty(n), np.empty(n), np.empty(n)
    # row i's scores against every other row l, in l order, and whether
    # the two rows differ
    scores, distinct = np.empty(n - 1), np.empty(n - 1, dtype=bool)
    top = np.empty(0)
    for i in range(n):
        if i > 0:
            r0, r1, held, held_distinct = chunks[0]
            at = int(tri[i] - tri[r0])
            scores[:i] = held[at:at + i]
            distinct[:i] = held_distinct[at:at + i]
            if i == r1 - 1:
                del chunks[0]
        # 0/0 where rows agree; overflow and underflow where they differ
        # by more than 2^500 or less than 2^-500, rescored below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for t0 in range(i + 1, n, tile):
                t1 = min(t0 + tile, n)
                u = buf[:t1 - t0]
                np.subtract(a[t0:t1], a[i], out=u)
                np.abs(u, out=u)
                np.einsum("ij,ij->i", u, u, out=sq[t0:t1])
                np.maximum.reduce(u, axis=1, out=linf[t0:t1])
                np.add.reduce(u, axis=1, out=l1[t0:t1])
            s2 = sq[i + 1:]
            np.minimum(s2 / linf[i + 1:]**2, m * s2 / l1[i + 1:]**2, out=scores[i:])
        np.greater(linf[i + 1:], 0.0, out=distinct[i:])
        d_max = linf[i + 1:]
        far = distinct[i:] & ((d_max <= _SQUARE_SAFE_LO) | (d_max >= _SQUARE_SAFE_HI))
        if far.any():
            scores[i:][far] = _scaled_scores(a, i, i + 1 + np.flatnonzero(far))
        for r0, r1, held, held_distinct in chunks:
            lo = max(r0, i + 1)
            at = tri[lo:r1] - tri[r0] + i
            held[at] = scores[lo - 1:r1 - 1]
            held_distinct[at] = distinct[lo - 1:r1 - 1]
        picked = scores[distinct]
        if picked.size == 0:
            continue
        top = np.concatenate([top, picked])
        if top.size > n:
            top = np.partition(top, top.size - n)[-n:]
    if top.size == 0:
        return 0.0
    r = float(np.sum(top)) / n
    if not (1.0 - EPS <= r <= np.sqrt(m) + EPS):
        raise RuntimeError(f"pair-score statistic {r} escaped [1, sqrt(m)]")
    return r


def complexity_report(a, quantize: float | None = None) -> ComplexityReport:
    """All three functionals at once; R is omitted for non-monotone input."""
    a = check_matrix(a)
    k_total, per_k = count_levels(a, quantize=quantize)
    v_total, per_v = variation(a)
    if has_monotone_columns(a):
        raw = r_statistic(a)
        degenerate = raw == 0.0
        r_value = 1.0 if degenerate else raw
    else:
        r_value = None
        degenerate = False
    return ComplexityReport(
        k_total=k_total,
        per_column_k=per_k,
        v_total=v_total,
        per_column_v=per_v,
        r_value=r_value,
        r_degenerate=degenerate,
    )


GAP_SCALES = ("raw", "sigma-sqrt-m")


def gap(a, i: int, i2: int, scale: str = "raw", sigma: float | None = None) -> float:
    """Row gap from row ``i`` up to row ``i2`` (0-based):

        max_j (a[i2, j] - a[i, j])  v  (1/sqrt(m)) sum_j (a[i2, j] - a[i, j])

    With ``scale="sigma-sqrt-m"`` the value is divided by ``sigma*sqrt(m)``
    to express it in noise units; ``sigma`` is required then.
    """
    a = check_matrix(a)
    n, m = a.shape
    if not (0 <= i < n and 0 <= i2 < n):
        raise ValueError(f"row index out of range for {n} rows: {i}, {i2}")
    d = a[i2] - a[i]
    value = max(float(np.max(d)), float(np.sum(d)) / np.sqrt(m))
    if scale == "raw":
        return value
    if scale == "sigma-sqrt-m":
        if sigma is None or sigma <= 0:
            raise ValueError("sigma must be positive for scale='sigma-sqrt-m'")
        return value / (sigma * np.sqrt(m))
    raise ValueError(f"unknown scale {scale!r}; expected one of {GAP_SCALES}")


def pairwise_gaps(a) -> np.ndarray:
    """All row gaps at once: ``out[l, i] = gap(a, l, i)``.

    The O(n^2)-memory reference and diagnostic: two (n, n) float64 buffers
    (16 MB at n = 1024) and O(n^2 m) time, the columnwise max accumulated
    one column at a time. :func:`gap_scores` counts thresholded gaps
    without forming this matrix and is tested against it.
    """
    a = check_matrix(a)
    n, m = a.shape
    rowsum = a.sum(axis=1) / np.sqrt(m)
    out = np.subtract(rowsum[None, :], rowsum[:, None])  # start from the sum branch
    diff = np.empty((n, n))
    for j in range(m):
        col = a[:, j]
        np.subtract(col[None, :], col[:, None], out=diff)
        np.maximum(out, diff, out=out)
    return out


# Columns per pass of gap_scores. Its sort and search buffers are
# (_SCORE_BLOCK, n); one pass over all columns at once costs tens of MB at
# desk scale.
_SCORE_BLOCK = 64

# Number of set bits of each byte value.
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def gap_scores(a, threshold: float) -> np.ndarray:
    """Per row ``i``, the number of rows ``l`` with ``gap(a, l, i) >= threshold``.

    Equals ``np.count_nonzero(pairwise_gaps(a) >= threshold, axis=0)`` on
    every finite input, without forming the gap matrix. The count is exact
    because:

    * ``pairwise_gaps`` takes the float max of the terms
      ``rowsum[i] - rowsum[l]`` and ``a[i, j] - a[l, j]``, with
      ``rowsum = a.sum(axis=1) / sqrt(m)``. This function evaluates the same
      expressions on the same array, so every term is the same float.
    * For non-NaN floats ``max_k d_k >= t`` holds exactly when some
      ``d_k >= t``, so the row-sum branch is just one more column and the hit
      set of row ``i`` is the union over columns.
    * Rounding is monotone, so ``x -> fl(a[i, j] - x)`` is non-increasing and
      ``{l : a[i, j] - a[l, j] >= t}`` is a prefix of column j's sort order,
      ties included. A vectorised binary search finds its length by
      evaluating that very subtraction against the sorted column (not
      ``a[i, j] - t``, which rounds differently).
    * Row ``i``'s hits are the OR over columns of packed ``uint64`` prefix
      bitsets, built per column by a cumulative OR over one-hot rows, and the
      score is their popcount.

    Columns go in blocks of ``_SCORE_BLOCK``: O(n m log n + n^2 m / 64) word
    operations and O(n * _SCORE_BLOCK + n^2 / 8) bytes of transient memory.
    A row sum that overflows to inf makes some reference gaps NaN
    (``inf - inf``), which no union can express; such input is counted by
    the reference.
    """
    return _gap_scores(check_matrix(a), threshold)


def _gap_scores(a: np.ndarray, threshold: float) -> np.ndarray:
    """:func:`gap_scores` for a validated matrix."""
    n, m = a.shape
    rowsum = a.sum(axis=1) / np.sqrt(m)
    if not np.all(np.isfinite(rowsum)):
        return np.count_nonzero(pairwise_gaps(a) >= threshold, axis=0)
    words = (n + 63) // 64
    hits = np.zeros((n, words), dtype=np.uint64)
    _or_prefix_hits(rowsum[None, :], threshold, hits)
    for j0 in range(0, m, _SCORE_BLOCK):
        block = np.ascontiguousarray(a[:, j0:j0 + _SCORE_BLOCK].T)
        _or_prefix_hits(block, threshold, hits)
    return _POPCOUNT8[hits.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _or_prefix_hits(cols, t: float, hits: np.ndarray) -> None:
    """OR into ``hits[i]`` the bitset ``{l : cols[j, i] - cols[j, l] >= t}``
    for every row ``j`` of the (c, n) block ``cols``."""
    c, n = cols.shape
    order = np.argsort(cols, axis=1)
    ranked = np.take_along_axis(cols, order, axis=1).ravel()
    # ends[j, i]: length of row i's prefix of ranked[j], built up one power
    # of two at a time
    ends = np.zeros((c, n), dtype=np.intp)
    base = np.arange(0, c * n, n)[:, None]
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = ends + (step - 1)
        inside = probe < n
        np.minimum(probe, n - 1, out=probe)
        probe += base
        inside &= cols - ranked.take(probe) >= t
        ends += step * inside
        step >>= 1
    word = order >> 6
    bit = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
    below = np.arange(1, n + 1)
    prefix = np.empty((n + 1, hits.shape[1]), dtype=np.uint64)
    picked = np.empty_like(hits)
    for j in range(c):
        # prefix[k] = bitset of the rows ranked[j, :k]
        prefix.fill(0)
        prefix[below, word[j]] = bit[j]
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        np.take(prefix, ends[j], axis=0, out=picked)
        hits |= picked


def min_adjacent_row_gap(a) -> float:
    """Smallest gap between consecutive rows. For a column-increasing matrix
    this equals the smallest gap over all ordered pairs, and it is positive
    exactly when all rows are distinct."""
    a = check_matrix(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    return min(gap(a, i, i + 1) for i in range(n - 1))


@dataclass(frozen=True)
class RearrangementCheck:
    """The three squared-distance terms of the monotone rearrangement
    inequalities and whether both inequalities hold (with EPS slack):

        matrix_term <= total_term      and      perm_term <= 4 * total_term
    """

    matrix_term: float
    perm_term: float
    total_term: float
    ok: bool


def rearrangement_check(
    a_true, a_alt, p_true: Permutation, p_alt: Permutation
) -> RearrangementCheck:
    """Evaluate the rearrangement inequalities for two column-increasing
    matrices and two permutations.

    ``matrix_term = ||a_alt - a_true||_F^2`` must be dominated by
    ``total_term = ||p_alt a_alt - p_true a_true||_F^2``, and
    ``perm_term = ||p_alt a_true - p_true a_true||_F^2`` by four times it.
    Both matrices must be column-increasing or the claim is simply false.
    """
    a_true = check_matrix(a_true, "a_true")
    a_alt = check_matrix(a_alt, "a_alt")
    if a_true.shape != a_alt.shape:
        raise ValueError(f"shape mismatch: {a_true.shape} vs {a_alt.shape}")
    if not has_monotone_columns(a_true) or not has_monotone_columns(a_alt):
        raise ValueError("both matrices must have increasing columns")
    target = permute_rows(p_true, a_true)
    matrix_term = frobenius_sq_dist(a_alt, a_true)
    perm_term = frobenius_sq_dist(permute_rows(p_alt, a_true), target)
    total_term = frobenius_sq_dist(permute_rows(p_alt, a_alt), target)
    slack = EPS * (1.0 + total_term)
    ok = matrix_term <= total_term + slack and perm_term <= 4.0 * total_term + slack
    return RearrangementCheck(
        matrix_term=matrix_term, perm_term=perm_term, total_term=total_term, ok=ok
    )
