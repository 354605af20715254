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

import math
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
    cancellation. A weighted sum that overflows (entries near +-1e308) is
    redone as a weighted mean, which only then changes the arithmetic."""
    n = y.size
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
    out = np.empty(n)
    i = 0
    for v, w in zip(vals, wts):
        k = int(w)
        out[i:i + k] = v
        i += k
    return out


def _sse(fitted: np.ndarray, y: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        d = fitted - y
        sse = float(np.dot(d, d))
    if not math.isfinite(sse):
        raise ValueError("squared error of the fit overflows float64")
    return sse


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
    in one O(n) sweep (the fitted values themselves are not materialized).

    Blocks pool exactly as in :func:`_pava`. An error too large for float64
    reads inf.
    """
    y = check_vector(y)
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
            except OverflowError:  # a finite difference whose square overflows
                s = math.inf
            pooled = (v * w + v0 * w0) / (w + w0)
            if pooled - pooled:  # inf or NaN
                pooled = v * (w / (w + w0)) + v0 * (w0 / (w + w0))
            v = pooled
            w += w0
        vals.append(v)
        wts.append(w)
        sses.append(s)
        total += s
        err[j] = total
    # a NaN total is inf - inf, from popping a block whose error overflowed;
    # that error stays in the pooled block, so the total is inf
    err[np.isnan(err)] = np.inf
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

    # err[k]: summed error of split k + 1; argmin takes the first minimum
    err = e_inc + np.append(e_dec[:n - 1][::-1], 0.0)
    best_split = int(np.argmin(err)) + 1

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
    :func:`isotonic_fit` is pinned by tests). Raises ``ValueError`` when the
    projection is not representable: scipy's pooled sums overflow near
    +-1e308 and would return inf.
    """
    out = _project_columns(check_matrix(a), shape)
    if not np.all(np.isfinite(out)):
        raise ValueError("column projection overflowed (entries near the float64 limit)")
    return out


def _project_columns(a: np.ndarray, shape: ShapeSpec) -> np.ndarray:
    """:func:`project_columns` for a validated matrix."""
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
