"""Exact least-squares projections onto shape-constrained cones.

Vector cones, over ``R^n``:

* increasing vectors (isotonic regression),
* decreasing vectors (antitonic regression),
* vectors that increase up to a peak position ``l`` and decrease after it,
  with the peak element shared by both chains ("fixed-mode"),
* the union of the fixed-mode cones over all peak positions ("unimodal").

Matrix variants apply the vector projection to every column independently.

Peak positions ``l`` are 1-based (1 <= l <= n) on the public surface; row
and array indices everywhere else are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression as _scipy_isotonic

from .core import EPS, check_matrix, check_vector


@dataclass(frozen=True)
class ShapeSpec:
    """Which cone a fit targets.

    ``kind`` is one of ``"monotone"``, ``"unimodal"`` or ``"fixed-mode"``;
    the latter carries the 1-based peak position in ``mode``.
    """

    kind: str
    mode: int | None = None

    def __post_init__(self):
        if self.kind not in ("monotone", "unimodal", "fixed-mode"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if (self.kind == "fixed-mode") != (self.mode is not None):
            raise ValueError("mode must be given exactly for fixed-mode shapes")
        if self.mode is not None and self.mode < 1:
            raise ValueError(f"mode must be >= 1, got {self.mode}")


MONOTONE = ShapeSpec("monotone")
UNIMODAL = ShapeSpec("unimodal")


def fixed_mode(l: int) -> ShapeSpec:
    return ShapeSpec("fixed-mode", mode=int(l))


@dataclass(frozen=True)
class VectorFit:
    """A shape-constrained fit of one vector.

    ``fitted`` satisfies the requested constraint exactly, ``sse`` is
    ``||fitted - input||^2``, and ``mode`` is the 1-based peak position for
    unimodal and fixed-mode fits (None for plain monotone fits).
    """

    fitted: np.ndarray
    sse: float
    mode: int | None = None


def _pava(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: the Euclidean projection of ``y`` onto the
    cone of increasing vectors. O(n) via a merge stack of (mean, weight)
    blocks; block means are kept as running weighted sums to avoid
    cancellation."""
    n = y.size
    vals = []
    wts = []
    for yi in y:
        v = float(yi)
        w = 1.0
        while vals and vals[-1] >= v:
            v0 = vals.pop()
            w0 = wts.pop()
            v = (v * w + v0 * w0) / (w + w0)
            w += w0
        vals.append(v)
        wts.append(w)
    out = np.empty(n)
    i = 0
    for v, w in zip(vals, wts):
        k = int(w)
        out[i:i + k] = v
        i += k
    return out


def _sse(fitted: np.ndarray, y: np.ndarray) -> float:
    d = fitted - y
    return float(np.dot(d, d))


def isotonic_fit(y) -> VectorFit:
    """Project ``y`` onto the cone of increasing vectors.

    The fit is piecewise constant and each block value is the mean of the
    inputs it covers.
    """
    y = check_vector(y)
    fitted = _pava(y)
    return VectorFit(fitted=fitted, sse=_sse(fitted, y))


def antitonic_fit(y) -> VectorFit:
    """Project ``y`` onto the cone of decreasing vectors (isotonic fit of the
    reversed vector, reversed back)."""
    y = check_vector(y)
    fitted = _pava(y[::-1])[::-1].copy()
    return VectorFit(fitted=fitted, sse=_sse(fitted, y))


def _blocks(fitted: np.ndarray, y: np.ndarray):
    """(value, sum of covered y, count) for each constant block of a fit."""
    out = []
    start = 0
    for i in range(1, fitted.size + 1):
        if i == fitted.size or fitted[i] != fitted[start]:
            out.append((float(fitted[start]), float(np.sum(y[start:i])), i - start))
            start = i
    return out


def fixed_mode_fit(y, l: int) -> VectorFit:
    """Project ``y`` onto the cone of vectors increasing up to position ``l``
    (1-based) and decreasing after it.

    The two chains share the peak element, so the coupling at ``l`` can bind;
    the fit is computed exactly by minimizing over the peak value ``t``: with
    the peak pinned at ``t``, the optimal prefix is the isotonic fit of the
    first ``l-1`` entries clipped at ``t`` (and symmetrically for the
    suffix), which leaves a convex piecewise-quadratic function of ``t``
    minimized by a single descending scan over block values.
    """
    y = check_vector(y)
    n = y.size
    l = int(l)
    if not 1 <= l <= n:
        raise ValueError(f"mode position {l} out of range [1, {n}]")
    prefix = _pava(y[:l - 1]) if l > 1 else np.empty(0)
    suffix = _pava(y[l:][::-1])[::-1] if l < n else np.empty(0)

    blocks = _blocks(prefix, y[:l - 1]) + _blocks(suffix, y[l:])
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
    return VectorFit(fitted=fitted, sse=_sse(fitted, y), mode=l)


def prefix_isotonic_errors(y) -> np.ndarray:
    """``err[j]`` = SSE of the isotonic fit of ``y[:j+1]``, for every prefix,
    in one O(n) sweep (the fitted values themselves are not materialized)."""
    y = check_vector(y)
    err = np.empty(y.size)
    vals, wts, sses = [], [], []
    total = 0.0
    for j, yj in enumerate(y):
        v = float(yj)
        w = 1.0
        s = 0.0
        while vals and vals[-1] >= v:
            v0 = vals.pop()
            w0 = wts.pop()
            s0 = sses.pop()
            total -= s0
            s = s + s0 + w * w0 / (w + w0) * (v - v0) ** 2
            v = (v * w + v0 * w0) / (w + w0)
            w += w0
        vals.append(v)
        wts.append(w)
        sses.append(s)
        total += s
        err[j] = total
    return err


def unimodal_fit(y) -> VectorFit:
    """Project ``y`` onto the set of unimodal vectors (union of the
    fixed-mode cones over all peak positions).

    Runs one prefix isotonic sweep and one suffix antitonic sweep, then picks
    the split minimizing the summed error; ties go to the smallest split. The
    reported ``mode`` is the smallest peak position whose fixed-mode fit
    attains the same SSE: the split itself when the fitted value does not
    rise across the split boundary, the next position otherwise.
    """
    y = check_vector(y)
    n = y.size
    e_inc = prefix_isotonic_errors(y)
    e_dec = prefix_isotonic_errors(y[::-1])

    best_split = 1
    best_err = np.inf
    for split in range(1, n + 1):
        err = e_inc[split - 1] + (e_dec[n - split - 1] if split < n else 0.0)
        if err < best_err:
            best_err = err
            best_split = split

    fitted = np.empty(n)
    fitted[:best_split] = _pava(y[:best_split])
    if best_split < n:
        fitted[best_split:] = _pava(y[best_split:][::-1])[::-1]
    if best_split == n or fitted[best_split - 1] >= fitted[best_split]:
        mode = best_split
    else:
        mode = best_split + 1
    return VectorFit(fitted=fitted, sse=_sse(fitted, y), mode=mode)


def _fit_vector(y: np.ndarray, shape: ShapeSpec) -> VectorFit:
    if shape.kind == "monotone":
        return isotonic_fit(y)
    if shape.kind == "unimodal":
        return unimodal_fit(y)
    return fixed_mode_fit(y, shape.mode)


def project_columns(a, shape: ShapeSpec) -> np.ndarray:
    """Project every column of ``a`` onto the requested cone independently.

    The monotone case dispatches to scipy's compiled PAVA column by column
    (it computes the identical projection; equivalence with
    :func:`isotonic_fit` is pinned by tests).
    """
    a = check_matrix(a)
    out = np.empty_like(a)
    if shape.kind == "monotone":
        for j in range(a.shape[1]):
            out[:, j] = _scipy_isotonic(a[:, j]).x
    else:
        for j in range(a.shape[1]):
            out[:, j] = _fit_vector(a[:, j], shape).fitted
    return out


def is_increasing(y, tol: float = EPS) -> bool:
    y = np.asarray(y, dtype=np.float64)
    return bool(np.all(np.diff(y) >= -tol))


def has_monotone_columns(a, tol: float = EPS) -> bool:
    a = np.asarray(a, dtype=np.float64)
    return bool(np.all(np.diff(a, axis=0) >= -tol))


def satisfies(fitted: np.ndarray, shape: ShapeSpec, tol: float = EPS) -> bool:
    """Check a vector against a shape constraint, allowing ``tol`` slack."""
    if shape.kind == "monotone":
        return is_increasing(fitted, tol)
    if shape.kind == "fixed-mode":
        l = shape.mode
        return is_increasing(fitted[:l], tol) and is_increasing(fitted[l - 1:][::-1], tol)
    return any(
        satisfies(fitted, fixed_mode(l), tol) for l in range(1, fitted.size + 1)
    )


# ---------------------------------------------------------------------------
# Dykstra's alternating projections: the independent oracle the test suite
# measures the closed-form fits against. Deliberately kept free of any code
# shared with the fits above, apart from trivial validation.
# ---------------------------------------------------------------------------


def dykstra_cone_projection(y, l: int, iters: int = 10_000) -> np.ndarray:
    """Approximate the projection onto the fixed-mode cone at ``l`` (1-based)
    by Dykstra's alternating projections between the two chain cones
    {increasing on the first l entries} and {decreasing from entry l on}.

    Converges to the exact projection onto the intersection; the iteration
    count trades accuracy for time. Test oracle, not a production path.
    """
    y = check_vector(y)
    n = y.size
    if not 1 <= l <= n:
        raise ValueError(f"mode position {l} out of range [1, {n}]")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = y.copy()
    p_corr = np.zeros(n)
    q_corr = np.zeros(n)
    for _ in range(iters):
        w = x + p_corr
        x1 = w.copy()
        if l >= 2:
            x1[:l] = _pava(w[:l])
        p_corr = w - x1
        w = x1 + q_corr
        x = w.copy()
        if l <= n - 1:
            x[l - 1:] = _pava(w[l - 1:][::-1])[::-1]
        q_corr = w - x
    return x


# interval-length constants of the minimax formula, cached per n
_MINIMAX_CONST: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _minimax_constants(n: int):
    cached = _MINIMAX_CONST.get(n)
    if cached is None:
        lengths = np.arange(n)[None, :] - np.arange(n)[:, None] + 1
        valid = lengths > 0
        inv_len = np.where(valid, 1.0 / np.maximum(lengths, 1), 0.0)[:, :, None]
        inf_pad = np.where(valid, 0.0, np.inf)[:, :, None]
        cached = _MINIMAX_CONST[n] = (inv_len, inf_pad)
    return cached


def _batched_isotonic_into(ys, out, cs, buf) -> None:
    """Column-wise isotonic fit of the (n, B) array ``ys`` via
    ``fit_i = max_{s<=i} min_{t>=i} mean(y[s..t])``, written into
    preallocated workspaces: ``cs`` is (n+1, B), ``buf`` (n, n, B). The batch
    axis is last, so every step runs over contiguous rows of B values."""
    n = ys.shape[0]
    inv_len, inf_pad = _minimax_constants(n)
    cs[0] = 0.0
    np.cumsum(ys, axis=0, out=cs[1:])
    np.subtract(cs[None, 1:], cs[:n, None], out=buf)  # buf[s, t] = sum(y[s..t])
    buf *= inv_len
    buf += inf_pad  # s > t cells become +inf and never win the min
    for t in range(n - 2, -1, -1):  # suffix min over t
        np.minimum(buf[:, t], buf[:, t + 1], out=buf[:, t])
    for s in range(1, n):  # prefix max over s
        np.maximum(buf[s], buf[s - 1], out=buf[s])
    idx = np.arange(n)
    out[:] = buf[idx, idx]


def batched_isotonic(ys: np.ndarray) -> np.ndarray:
    """Row-wise isotonic fit of a (B, n) array for small n, fully vectorized
    across rows. O(n^2) memory per row, intended for the batched Dykstra
    oracle (n <= 8 in the test suite)."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2:
        raise ValueError("expected a 2-D batch of row vectors")
    b, n = ys.shape
    if n == 1:
        return ys.copy()
    out = np.empty((n, b))
    _batched_isotonic_into(ys.T, out, np.empty((n + 1, b)), np.empty((n, n, b)))
    return np.ascontiguousarray(out.T)


def dykstra_cone_projection_batch(ys: np.ndarray, l: int, iters: int = 10_000) -> np.ndarray:
    """Vectorized :func:`dykstra_cone_projection` over the rows of ``ys``
    (one shared peak position). Matches the scalar routine to float noise;
    workspaces are allocated once so the iteration loop is allocation-free.
    The iterates are kept transposed, one vector per column."""
    ys = np.asarray(ys, dtype=np.float64)
    b, n = ys.shape
    if not 1 <= l <= n:
        raise ValueError(f"mode position {l} out of range [1, {n}]")
    x = ys.T.copy()
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    w = np.empty_like(x)
    if l >= 2:
        out1, cs1, buf1 = np.empty((l, b)), np.empty((l + 1, b)), np.empty((l, l, b))
    if l <= n - 1:
        k = n - l + 1
        out2, cs2, buf2 = np.empty((k, b)), np.empty((k + 1, b)), np.empty((k, k, b))
    for _ in range(iters):
        np.add(x, p_corr, out=w)
        x[:] = w
        if l >= 2:
            _batched_isotonic_into(w[:l], out1, cs1, buf1)
            x[:l] = out1
        np.subtract(w, x, out=p_corr)
        np.add(x, q_corr, out=w)
        x[:] = w
        if l <= n - 1:
            _batched_isotonic_into(w[l - 1:][::-1], out2, cs2, buf2)
            x[l - 1:] = out2[::-1]
        np.subtract(w, x, out=q_corr)
    return np.ascontiguousarray(x.T)
