"""Slow reference computations the test suite measures the package against.

They share no code with the fits they check.
"""

import math

import numpy as np


def _isotonic_fitter(k: int, b: int):
    """Column-wise isotonic fit of (k, b) arrays by the minimax formula
    ``fit_i = max_{s<=i} min_{t>=i} mean(y[s..t])``.

    The interval constants and workspaces are built here, once; the returned
    ``fit(ys, out)`` writes the fit of ``ys`` into ``out`` (either may be a
    strided view). The batch axis is last, so every step runs over contiguous
    rows of b values.
    """
    lengths = np.arange(k)[None, :] - np.arange(k)[:, None] + 1
    valid = lengths > 0
    inv_len = np.where(valid, 1.0 / np.maximum(lengths, 1), 0.0)[:, :, None]
    inf_pad = np.where(valid, 0.0, np.inf)[:, :, None]
    cs = np.empty((k + 1, b))
    buf = np.empty((k, k, b))
    idx = np.arange(k)
    cs[0] = 0.0

    def fit(ys, out):
        np.cumsum(ys, axis=0, out=cs[1:])
        np.subtract(cs[None, 1:], cs[:k, None], out=buf)  # buf[s, t] = sum(y[s..t])
        np.multiply(buf, inv_len, out=buf)
        np.add(buf, inf_pad, out=buf)  # s > t cells become +inf and never win the min
        for t in range(k - 2, -1, -1):  # suffix min over t
            np.minimum(buf[:, t], buf[:, t + 1], out=buf[:, t])
        for s in range(1, k):  # prefix max over s
            np.maximum(buf[s], buf[s - 1], out=buf[s])
        out[:] = buf[idx, idx]

    return fit


def dykstra_cone_projection(ys, l: int, iters: int = 10_000) -> np.ndarray:
    """Approximate the projection of every row of the (B, n) array ``ys``
    onto the fixed-mode cone with peak at ``l`` (1-based), by Dykstra's
    alternating projections (Boyle and Dykstra, 1986) between the two chain
    cones {increasing on the first l entries} and {decreasing from entry l
    on}.

    Converges to the exact projection onto the intersection; the iteration
    count trades accuracy for time. The iterates are kept transposed, one
    vector per column, and the loop allocates nothing.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2:
        raise ValueError("expected a 2-D batch of row vectors")
    b, n = ys.shape
    if not 1 <= l <= n:
        raise ValueError(f"mode position {l} out of range [1, {n}]")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = ys.T.copy()
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    w = np.empty_like(x)
    # a one-entry chain projects to itself and is skipped
    head = _isotonic_fitter(l, b) if l >= 2 else None
    tail = _isotonic_fitter(n - l + 1, b) if l <= n - 1 else None
    for _ in range(iters):
        np.add(x, p_corr, out=w)
        x[:] = w
        if head:
            head(w[:l], x[:l])
        np.subtract(w, x, out=p_corr)
        np.add(x, q_corr, out=w)
        x[:] = w
        if tail:
            tail(w[l - 1:][::-1], x[l - 1:][::-1])
        np.subtract(w, x, out=q_corr)
    return np.ascontiguousarray(x.T)


def r_statistic_reference(a) -> float:
    """The pair-score statistic R by one full pass per row: every ordered
    pair of rows is scored, and the scores of each row ``i``, in the order of
    the other row ``l``, join the running top-n selection.

    Returns the sum of the n largest scores over n, or 0.0 when all rows
    are identical. ``a`` must be a finite, column-increasing float64 matrix;
    nothing here checks it.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    n, m = a.shape
    top = np.empty(0)
    for i in range(n):
        u = a - a[i]
        sq = np.einsum("ij,ij->i", u, u)
        linf = np.max(np.abs(u), axis=1)
        distinct = linf > 0.0
        if not distinct.any():
            continue
        l1 = np.sum(np.abs(u), axis=1)
        s2, si, s1 = sq[distinct], linf[distinct], l1[distinct]
        scores = np.minimum(s2 / si**2, m * s2 / s1**2)
        top = np.concatenate([top, scores])
        if top.size > n:
            top = np.partition(top, top.size - n)[-n:]
    if top.size == 0:
        return 0.0
    return float(np.sum(top)) / n


def frobenius_sq_dist_reference(a, b) -> float:
    """Squared distance through one whole n x m difference matrix: per-row
    norms by einsum, summed in sorted order."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        row_sq = np.einsum("ij,ij->i", d, d)
    row_sq.sort()
    total = float(np.sum(row_sq))
    if not math.isfinite(total):
        raise ValueError("squared distance is not finite (NaN/inf entries or overflow)")
    return total


def _moved_rows(mapping, a):
    out = np.empty_like(a)
    out[mapping] = a
    return out


def estimation_losses_reference(fit, p_true, a_true) -> tuple[float, float, float]:
    """(total, perm_only, matrix_only) of a fit, with both permuted copies
    of the truth formed in full."""
    a_true = np.ascontiguousarray(a_true, dtype=np.float64)
    n, m = a_true.shape
    target = _moved_rows(p_true.mapping, a_true)
    return (
        frobenius_sq_dist_reference(fit.m_hat, target) / (n * m),
        frobenius_sq_dist_reference(_moved_rows(fit.p_hat.mapping, a_true), target) / (n * m),
        frobenius_sq_dist_reference(fit.a_hat, a_true) / (n * m),
    )


def read_matrix_csv_reference(path) -> np.ndarray:
    """A matrix CSV read line by line with Python's ``float``: blank lines
    are skipped, the first other line fixes the width, and every rejection
    raises ``ValueError`` naming the path (and the 1-based line, for a
    ragged row or a bad number)."""
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
    a = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path} contains non-finite entries")
    return a


# The shape-constrained vector fits as they stood before one sweep served
# them all: a pool-adjacent-violators loop per fit, and a separate loop for
# the prefix errors. Each returns what the package reports, ``(fitted, sse)``
# or ``(fitted, sse, mode)``, on a finite 1-D float64 array.


def pava_reference(y) -> np.ndarray:
    """Isotonic fit by a merge stack of (mean, weight) blocks; a pooled sum
    that overflows is redone as a weighted mean."""
    vals = []
    wts = []
    for v in y.tolist():
        w = 1.0
        while vals and vals[-1] >= v:
            v0 = vals.pop()
            w0 = wts.pop()
            pooled = (v * w + v0 * w0) / (w + w0)
            if pooled - pooled:  # inf or NaN
                pooled = v * (w / (w + w0)) + v0 * (w0 / (w + w0))
            v = pooled
            w += w0
        vals.append(v)
        wts.append(w)
    out = np.empty(y.size)
    i = 0
    for v, w in zip(vals, wts):
        k = int(w)
        out[i:i + k] = v
        i += k
    return out


def _sse_reference(fitted, y) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        d = fitted - y
        sse = float(np.dot(d, d))
    if not math.isfinite(sse):
        raise ValueError("squared error of the fit overflows float64")
    return sse


def isotonic_fit_reference(y):
    fitted = pava_reference(y)
    return fitted, _sse_reference(fitted, y)


def antitonic_fit_reference(y):
    fitted = pava_reference(y[::-1])[::-1].copy()
    return fitted, _sse_reference(fitted, y)


def _blocks_reference(fitted, y):
    """(value, sum of covered y, count) for each constant block of a fit."""
    out = []
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, fitted.size + 1):
            if i == fitted.size or fitted[i] != fitted[start]:
                out.append((float(fitted[start]), float(np.sum(y[start:i])), i - start))
                start = i
    return out


def fixed_mode_fit_reference(y, l: int):
    """Fixed-mode fit at the 1-based peak ``l`` by a descending scan for the
    peak value over the blocks of the prefix and suffix fits."""
    n = y.size
    prefix = pava_reference(y[:l - 1]) if l > 1 else np.empty(0)
    suffix = pava_reference(y[l:][::-1])[::-1] if l < n else np.empty(0)
    blocks = _blocks_reference(prefix, y[:l - 1]) + _blocks_reference(suffix, y[l:])
    blocks.sort(key=lambda b: -b[0])
    count = 1.0
    total = float(y[l - 1])
    t = total
    for bval, bsum, bcount in blocks:
        if t >= bval:
            break
        count += bcount
        total += bsum
        t = total / count
    fitted = np.empty(n)
    if l > 1:
        np.minimum(prefix, t, out=fitted[:l - 1])
    fitted[l - 1] = t
    if l < n:
        np.minimum(suffix, t, out=fitted[l:])
    return fitted, _sse_reference(fitted, y), l


def prefix_isotonic_errors_reference(y) -> np.ndarray:
    """SSE of the isotonic fit of every prefix, by its own merge loop that
    carries each block's error."""
    err = np.empty(y.size)
    vals, wts, sses = [], [], []
    total = 0.0
    for j, v in enumerate(y.tolist()):
        w = 1.0
        s = 0.0
        while vals and vals[-1] >= v:
            v0 = vals.pop()
            w0 = wts.pop()
            s0 = sses.pop()
            total -= s0
            try:
                s = s + s0 + w * w0 / (w + w0) * (v - v0) ** 2
            except OverflowError:
                s = math.inf
            pooled = (v * w + v0 * w0) / (w + w0)
            if pooled - pooled:
                pooled = v * (w / (w + w0)) + v0 * (w0 / (w + w0))
            v = pooled
            w += w0
        vals.append(v)
        wts.append(w)
        sses.append(s)
        total += s
        err[j] = total
    err[np.isnan(err)] = np.inf
    return err


def unimodal_fit_reference(y):
    """Unimodal fit by four sweeps: the prefix and suffix errors pick the
    split, then two more isotonic fits build the halves."""
    n = y.size
    e_inc = prefix_isotonic_errors_reference(y)
    e_dec = prefix_isotonic_errors_reference(y[::-1])
    err = e_inc + np.append(e_dec[:n - 1][::-1], 0.0)
    best_split = int(np.argmin(err)) + 1
    fitted = np.empty(n)
    fitted[:best_split] = pava_reference(y[:best_split])
    if best_split < n:
        fitted[best_split:] = pava_reference(y[best_split:][::-1])[::-1]
    if best_split == n or fitted[best_split - 1] >= fitted[best_split]:
        mode = best_split
    else:
        mode = best_split + 1
    return fitted, _sse_reference(fitted, y), mode
