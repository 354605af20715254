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

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .core import EPS, Permutation, _check_instance, _check_integer, _check_real, check_matrix
from .shape import _column_panels, has_monotone_columns


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
    before counting; the width must be a real number, finite and > 0, and
    every ``a / quantize`` must be finite.
    """
    a = check_matrix(a)
    if quantize is not None:
        width = _check_real(quantize, "quantize width")
        if not (math.isfinite(width) and width > 0):
            raise ValueError(f"quantize width must be finite and > 0, got {quantize}")
        with np.errstate(over="ignore"):
            a = a / width
        if not np.all(np.isfinite(a)):
            raise ValueError(f"quantize width {quantize} is too small for these "
                             "entries: a / quantize overflows float64")
        a = np.round(a)
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


# The scores of pairs (i, l), i < l, wait for row l's turn in a lower
# triangle cut into chunks of at most this many bytes of scores. A single
# triangle array (17 MB at n = 2048) raised the CLI pipeline's peak RSS from
# about 120 to 133 MB, most likely because freeing it lifts glibc's dynamic
# mmap threshold and the 4 MB arrays of the later commands then fragment the
# heap. No other scratch array of R is larger either.
_R_CHUNK_BYTES = 1 << 21

# Threads that score pairs, the calling one included: one per CPU this
# process may run on, and at most 4, so that their scratch stays a few MB.
# numpy releases the GIL inside the ufuncs of the row kernel.
_R_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)

# Rows scored by the threads between two joins, at most; the calling thread
# then feeds them to the selection in row order.
_R_BLOCK_ROWS = 64

# A thread's tile is this many row blocks of core._block_rows, about 1 MB.
# With 256 KB tiles, two threads gained only 1.05x on two cores: the GIL
# handoff of every numpy call outweighed the call.
_R_TILE_BLOCKS = 4


# Squares of numbers outside [2^-500, 2^500] may under- or overflow float64.
_SQUARE_SAFE_LO, _SQUARE_SAFE_HI = 2.0**-500, 2.0**500


def _scaled_scores(a: np.ndarray, i: int, rows: np.ndarray) -> np.ndarray:
    """Pair scores of row ``i`` against ``rows``, each of which must differ
    from row ``i``. Each absolute difference is divided by its largest entry
    first: the score is scale-free, and the squares of scaled entries neither
    underflow nor overflow."""
    with np.errstate(over="ignore"):
        d = a[rows] - a[i]
    if not np.all(np.isfinite(d)):  # a difference past the float64 range
        d = 0.5 * a[rows] - 0.5 * a[i]
    d = np.abs(d)
    d /= d.max(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->i", d, d)
    return np.minimum(sq, a.shape[1] * sq / d.sum(axis=1) ** 2)


def _score_row(a: np.ndarray, i: int, out: np.ndarray, scratch, signed: bool) -> None:
    """Scores of row ``i`` against rows ``i + 1, ..., n - 1``, in that order,
    into ``out``. ``scratch`` is one thread's tile ``buf`` and its three
    length-n arrays. ``signed`` says some difference ``a[l] - a[i]``, l > i,
    may be negative; otherwise each is +-0.0 or positive and is taken as
    it is, without ``abs``. A -0.0 (``-0.0 - +0.0``) then stays, but it
    changes no score: a row of zeros scores NaN either way, and beside a
    positive entry every sum and max is the same float."""
    n, m = a.shape
    buf, sq, linf, l1 = scratch
    tile = buf.shape[0]
    # 0/0 where rows agree; overflow and underflow where they differ by too
    # much or too little, rescored below
    for t0 in range(i + 1, n, tile):
        t1 = min(t0 + tile, n)
        u = buf[:t1 - t0]
        np.subtract(a[t0:t1], a[i], out=u)
        if signed:
            np.abs(u, out=u)
        np.einsum("ij,ij->i", u, u, out=sq[t0:t1])
        np.fmax.reduce(u, axis=1, out=linf[t0:t1])  # no NaN: the rows are finite
        np.add.reduce(u, axis=1, out=l1[t0:t1])
    s2 = sq[i + 1:]
    np.minimum(s2 / linf[i + 1:]**2, m * s2 / l1[i + 1:]**2, out=out)
    # every other pair of distinct rows has ||u||_inf > 2^-500 and
    # ||u||_1 < 2^500 / m, so it scores a finite float: ||u||_inf^2 <=
    # ||u||^2 <= ||u||_inf ||u||_1 <= ||u||_1^2 puts each square in
    # (2^-1000, 2^1000 / m^2)
    d_max = linf[i + 1:]
    far = (l1[i + 1:] >= _SQUARE_SAFE_HI / m) | ((d_max > 0.0) & (d_max <= _SQUARE_SAFE_LO))
    if far.any():
        out[far] = _scaled_scores(a, i, i + 1 + np.flatnonzero(far))


def _score_rows(a: np.ndarray, rows, block: np.ndarray, b0: int, signed: bool,
                scratch) -> None:
    """Score each row ``i`` that this thread takes from the shared iterator
    ``rows`` into ``block[i - b0, i:]``."""
    # numpy's error state is a context variable, which a new thread does not
    # inherit
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in rows:
            _score_row(a, i, block[i - b0, i:], scratch, signed)


def _in_threads(fn, args: tuple, scratches: list) -> None:
    """Call ``fn(*args, s)`` for every ``s`` in ``scratches`` at once: the
    first on the calling thread, each other on a thread of its own. Returns
    when every call has returned, and raises the first exception that one
    raised; no thread is left running either way."""
    errors = []

    def run(scratch):
        try:
            fn(*args, scratch)
        except BaseException as e:  # raised again on the calling thread
            errors.append(e)

    threads = []
    try:
        for scratch in scratches[1:]:
            threads.append(threading.Thread(target=run, args=(scratch,)))
            threads[-1].start()
        fn(*args, scratches[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


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
    (``tests/oracles.py``). Two identical rows score 0/0 = NaN and are left
    out.

    Rows go in blocks of ``_R_BLOCK_ROWS``. Up to ``_R_WORKERS`` threads
    take a block's rows one at a time and score each against the rows
    after it, in tiles of ``_R_TILE_BLOCKS`` times ``core._block_rows``
    rows, each thread with its own scratch. Then the calling thread alone
    hands the scores on and runs the selection, row by row in order, so the
    result does not depend on the thread count. Cost: O(n^2 m / 2) entry
    operations, and about 8 n (n - 1) / 2 bytes of pending scores, held in
    chunks that are freed as their rows are used.
    """
    a = check_matrix(a)
    if not has_monotone_columns(a):
        raise ValueError("r_statistic requires column-increasing input")
    n, m = a.shape
    signed = not has_monotone_columns(a, tol=0.0)
    # row l of the triangle holds pairs (i, l) for i < l, from entry tri[l]
    tri = np.arange(n + 1, dtype=np.int64)
    tri = tri * (tri - 1) // 2
    cap = _R_CHUNK_BYTES // 8
    chunks = []  # (first row, end row, scores), in row order
    r0 = 1
    while r0 < n:
        r1 = int(np.searchsorted(tri, tri[r0] + cap, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        chunks.append((r0, r1, np.empty(int(tri[r1] - tri[r0]))))
        r0 = r1
    step = max(1, min(_R_BLOCK_ROWS, cap // max(n - 1, 1)))
    # block row i - b0 holds row i's scores against every other row l, in l order
    block = np.empty((min(step, n), n - 1))
    tile = min(_R_TILE_BLOCKS * core._block_rows(m), n)
    scratches = [(np.empty((tile, m)), np.empty(n), np.empty(n), np.empty(n))
                 for _ in range(min(_R_WORKERS, step))]
    top = np.empty(0)
    for b0 in range(0, n, step):
        b1 = min(b0 + step, n)
        _in_threads(_score_rows, (a, iter(range(b0, b1)), block, b0, signed),
                    scratches[:b1 - b0])
        for i in range(b0, b1):
            scores = block[i - b0]
            if i > 0:
                r0, r1, held = chunks[0]
                at = int(tri[i] - tri[r0])
                scores[:i] = held[at:at + i]
                if i == r1 - 1:
                    del chunks[0]
            for r0, r1, held in chunks:
                lo = max(r0, i + 1)
                held[tri[lo:r1] - tri[r0] + i] = scores[lo - 1:r1 - 1]
            picked = scores[~np.isnan(scores)]
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


def gap(a, i: int, i2: int) -> float:
    """Row gap from row ``i`` up to row ``i2`` (0-based):

        max_j (a[i2, j] - a[i, j])  v  (1/sqrt(m)) sum_j (a[i2, j] - a[i, j])

    Only the two rows read are checked, in O(m).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    n = a.shape[0]
    i, i2 = _check_integer(i, "row index"), _check_integer(i2, "row index")
    if not (0 <= i < n and 0 <= i2 < n):
        raise ValueError(f"row index out of range for {n} rows: {i}, {i2}")
    rows = check_matrix(a[[i, i2]])
    return float(_row_gaps(rows[1:] - rows[:1])[0])


def _row_gaps(d: np.ndarray) -> np.ndarray:
    """``max_j d[k, j]  v  (1/sqrt(m)) sum_j d[k, j]`` of each row k of the
    row differences ``d``; a tie goes to the max."""
    top, mean = d.max(axis=1), d.sum(axis=1) / np.sqrt(d.shape[1])
    return np.where(mean > top, mean, top)


def pairwise_gaps(a) -> np.ndarray:
    """All row gaps at once, ``out[l, i] = max_j (a[i, j] - a[l, j])  v
    (rowsum[i] - rowsum[l])`` with ``rowsum = a.sum(axis=1) / sqrt(m)``:
    :func:`gap` ``(a, l, i)`` where the column branch wins, and within a few
    ulps of the row sums where the sum branch does (``gap`` divides the
    summed difference instead).

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


# Number of set bits of each byte value.
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def gap_scores(a, threshold: float) -> np.ndarray:
    """Per row ``i``, the number of rows ``l`` whose gap up to row ``i``,
    ``max_j (a[i, j] - a[l, j])  v  (rowsum[i] - rowsum[l])`` with
    ``rowsum = a.sum(axis=1) / sqrt(m)``, is at least ``threshold``.

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
    * Rounding is monotone, so no term of column j exceeds
      ``fl(max_j - min_j)``. A column, or the row-sum branch, whose spread is
      below the threshold sets no bit and is skipped; a spread that
      overflows reads inf and keeps its column.

    Columns go in the panels of ``shape._column_panels``. The spreads take
    O(n m). Each of the c live columns then takes O(n log n) to sort and
    search and O((k + n) n / 64) word operations for its bitsets, where
    k <= n is the column's longest prefix: its prefix table is built up to
    row k only. That is O(n m + c n log n + c n^2 / 64) in all, with
    c <= m + 1, and transient memory of a few panel-sized buffers (at most
    ``shape._PANEL_BYTES`` each) and O(n^2 / 8) bytes of bitsets.

    A row sum that overflows to inf makes some reference gaps NaN
    (``inf - inf``), which no union can express; such input is counted by
    the reference. ``threshold`` is any real number but NaN; +-inf is fine.
    """
    a = check_matrix(a)
    threshold = _check_real(threshold, "threshold")
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    return _gap_scores(a, threshold)


def _gap_scores(a: np.ndarray, threshold: float) -> np.ndarray:
    """:func:`gap_scores` for a validated matrix."""
    n, m = a.shape
    rowsum = a.sum(axis=1) / np.sqrt(m)
    if not np.all(np.isfinite(rowsum)):
        return np.count_nonzero(pairwise_gaps(a) >= threshold, axis=0)
    words = (n + 63) // 64
    hits = np.zeros((n, words), dtype=np.uint64)
    _or_prefix_hits(rowsum[None, :], threshold, hits)
    for _, panel in _column_panels(a):
        _or_prefix_hits(panel, threshold, hits)
    return _POPCOUNT8[hits.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _or_prefix_hits(cols, t: float, hits: np.ndarray) -> None:
    """OR into ``hits[i]`` the bitset ``{l : cols[j, i] - cols[j, l] >= t}``
    for every row ``j`` of the (c, n) block ``cols``."""
    # no term of row j exceeds fl(max_j - min_j), so a row whose spread is
    # below t sets no bit; an overflowing spread reads inf and stays
    with np.errstate(over="ignore"):
        live = cols.max(axis=1) - cols.min(axis=1) >= t
    if not live.any():
        return
    if not live.all():
        cols = cols[live]
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
    longest = ends.max(axis=1)
    word = order >> 6
    bit = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
    below = np.arange(1, n + 1)
    prefix = np.empty((n + 1, hits.shape[1]), dtype=np.uint64)
    picked = np.empty_like(hits)
    for j in range(c):
        # prefix[k] = bitset of the rows ranked[j, :k], needed up to the
        # longest prefix k of this row
        k = longest[j]
        built = prefix[:k + 1]
        built.fill(0)
        built[below[:k], word[j, :k]] = bit[j, :k]
        np.bitwise_or.accumulate(built, axis=0, out=built)
        np.take(built, ends[j], axis=0, out=picked)
        hits |= picked


def min_adjacent_row_gap(a) -> float:
    """Smallest gap between consecutive rows. For a column-increasing matrix
    this equals the smallest gap over all ordered pairs, and it is positive
    exactly when all rows are distinct. The float of the smallest
    ``gap(a, i, i + 1)``, from one pass over the row differences."""
    a = check_matrix(a)
    if a.shape[0] < 2:
        raise ValueError("need at least two rows")
    gaps = _row_gaps(np.diff(a, axis=0))
    return float(gaps[np.argmin(gaps)])  # min's first smallest


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
    _check_instance(p_true, Permutation, "p_true")
    _check_instance(p_alt, Permutation, "p_alt")
    if not has_monotone_columns(a_true) or not has_monotone_columns(a_alt):
        raise ValueError("both matrices must have increasing columns")
    total_term, perm_term, matrix_term = core._loss_terms(a_alt, p_alt, a_true, p_true)
    slack = EPS * (1.0 + total_term)
    ok = matrix_term <= total_term + slack and perm_term <= 4.0 * total_term + slack
    return RearrangementCheck(
        matrix_term=matrix_term, perm_term=perm_term, total_term=total_term, ok=ok
    )
