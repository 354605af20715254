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
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import core
from .core import EPS, _check_choice, _check_instance, _check_integer, check_matrix, check_vector


@dataclass(frozen=True)
class ShapeSpec:
    """Which cone a fit targets.

    ``kind`` is one of ``"monotone"``, ``"unimodal"`` or ``"fixed-mode"``;
    the latter carries the 1-based peak position in ``mode``.
    """

    kind: str
    mode: int | None = None

    def __post_init__(self):
        _check_choice(self.kind, ("monotone", "unimodal", "fixed-mode"), "shape kind")
        if (self.kind == "fixed-mode") != (self.mode is not None):
            raise ValueError("mode must be given exactly for fixed-mode shapes")
        if self.mode is not None:
            object.__setattr__(self, "mode", _check_integer(self.mode, "mode"))
            if self.mode < 1:
                raise ValueError(f"mode must be >= 1, got {self.mode}")


MONOTONE = ShapeSpec("monotone")
UNIMODAL = ShapeSpec("unimodal")


def fixed_mode(l: int) -> ShapeSpec:
    return ShapeSpec("fixed-mode", mode=l)


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


def _sweep(y: np.ndarray):
    """Pool adjacent violators over ``y`` once, in O(n), with a merge stack
    of (mean, weight, error) blocks. Means are running weighted sums, redone
    as weighted means only where a sum overflows (entries near +-1e308).

    Returns ``(err, top, size)``: ``err[j]`` is the SSE of the isotonic fit
    of ``y[:j+1]`` (inf when too large for float64), and ``top[j]`` and
    ``size[j]`` are the value and length of the block that ends at ``j``
    once ``y[:j+1]`` is read. A block below the top never changes again, so
    :func:`_walk` reads the fit of any prefix back from these records.
    """
    err = np.empty(y.size)
    vals, wts, sses = [], [], []
    top, size = [], []
    total = 0.0
    for j, v in enumerate(y.tolist()):
        w = 1
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
        top.append(v)
        size.append(w)
        total += s
        err[j] = total
    # a NaN total is inf - inf, from popping a block whose error overflowed;
    # that error stays in the pooled block, so the total is inf
    err[np.isnan(err)] = np.inf
    return err, top, size


def _walk(top, size, k: int):
    """(value, start, end) of the blocks of the isotonic fit of the first
    ``k`` swept entries, last block first."""
    j = k - 1
    while j >= 0:
        yield top[j], j - size[j] + 1, j + 1
        j -= size[j]


def _fill(top, size, k: int) -> np.ndarray:
    """The isotonic fit of the first ``k`` swept entries."""
    out = np.empty(k)
    for v, start, end in _walk(top, size, k):
        out[start:end] = v
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
    _, top, size = _sweep(y)
    fitted = _fill(top, size, y.size)
    return VectorFit(fitted=fitted, sse=_sse(fitted, y))


def antitonic_fit(y) -> VectorFit:
    """Project ``y`` onto the cone of decreasing vectors (isotonic fit of the
    reversed vector, reversed back)."""
    y = check_vector(y)
    _, top, size = _sweep(y[::-1])
    fitted = _fill(top, size, y.size)[::-1].copy()
    return VectorFit(fitted=fitted, sse=_sse(fitted, y))


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
    l = _check_integer(l, "mode position")
    fitted = _fixed_mode_fill(y, l)
    return VectorFit(fitted=fitted, sse=_sse(fitted, y), mode=l)


def _fixed_mode_fill(y: np.ndarray, l: int) -> np.ndarray:
    """The fitted vector of :func:`fixed_mode_fit` for a validated ``y`` and
    an int ``l``."""
    n = y.size
    if not 1 <= l <= n:
        raise ValueError(f"mode position {l} out of range [1, {n}]")
    _, top, size = _sweep(y[:l - 1])
    inc = list(_walk(top, size, l - 1))
    _, top, size = _sweep(y[l:][::-1])
    dec = [(v, n - end, n - start) for v, start, end in _walk(top, size, n - l)]

    fitted = np.empty(n)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for v, start, end in inc + dec:
            fitted[start:end] = v
            blocks.append((v, float(np.sum(y[start:end])), end - start))
    # the values of one chain are distinct, so only the chain order counts:
    # a tie across the chains is scanned prefix block first
    blocks.sort(key=lambda b: -b[0])
    count = 1.0
    total = float(y[l - 1])
    t = total
    for bval, bsum, bcount in blocks:
        if t >= bval:
            break
        total += bsum
        if math.isfinite(total):
            t = total / (count + bcount)
        else:  # a sum past the float64 range: pool the peak as a weighted mean
            t = t * (count / (count + bcount)) + bval * (bcount / (count + bcount))
        count += bcount

    fitted[l - 1] = t
    np.minimum(fitted, t, out=fitted)
    return fitted


def unimodal_fit(y) -> VectorFit:
    """Project ``y`` onto the set of unimodal vectors (union of the
    fixed-mode cones over all peak positions).

    Runs one isotonic sweep forward and one backward, then picks the split
    minimizing the summed prefix and suffix errors; ties go to the smallest
    split. Both halves of the fit are read back from the same two sweeps.
    The reported ``mode`` is the smallest peak position whose fixed-mode fit
    attains the same SSE: the split itself when the fitted value does not
    rise across the split boundary, the next position otherwise.
    """
    y = check_vector(y)
    n = y.size
    e_inc, top_inc, size_inc = _sweep(y)
    e_dec, top_dec, size_dec = _sweep(y[::-1])

    # err[k]: summed error of split k + 1; argmin takes the first minimum
    err = e_inc + np.append(e_dec[:n - 1][::-1], 0.0)
    best_split = int(np.argmin(err)) + 1

    fitted = np.empty(n)
    fitted[:best_split] = _fill(top_inc, size_inc, best_split)
    if best_split < n:
        fitted[best_split:] = _fill(top_dec, size_dec, n - best_split)[::-1]
    if best_split == n or fitted[best_split - 1] >= fitted[best_split]:
        mode = best_split
    else:
        mode = best_split + 1
    return VectorFit(fitted=fitted, sse=_sse(fitted, y), mode=mode)


def project_columns(a, shape: ShapeSpec) -> np.ndarray:
    """Project every column of ``a`` onto the requested cone independently.

    Columns are fitted in panels: a block of columns is copied to a
    transposed buffer, one column per contiguous row, fitted in place and
    written back. The monotone case runs scipy's compiled PAVA kernel
    (``scipy.optimize._pava_pybind.pava``, the kernel behind
    ``scipy.optimize.isotonic_regression``) on each row of the panel, with
    the unit weights and block indices that ``isotonic_regression`` would
    build, so each column equals ``isotonic_regression(column).x`` byte for
    byte. That is the same projection as :func:`isotonic_fit` only up to
    rounding: the pooled means can differ in their last bits (on most
    random vectors), and the tests pin the agreement at ``atol=1e-12``.
    Raises ``ValueError`` when the projection is not representable:
    scipy's pooled sums overflow near +-1e308 and would return inf.
    """
    out = _project_columns(check_matrix(a), _check_instance(shape, ShapeSpec, "shape"))
    if not np.all(np.isfinite(out)):
        raise ValueError("column projection overflowed (entries near the float64 limit)")
    return out


# Column loops take panels of about this many bytes of columns at a time:
# 64 columns at 4096 rows, the size of a 2 MB L2 cache. On a 2-core Xeon
# with 2 MB of L2 per core, the monotone projection of a 4096 x 4096 matrix
# took 0.54, 0.49, 0.46 and 0.47 s with panels of 16, 32, 64 and 128. A
# panel is also held to a sixteenth of the matrix, or 64 KB if that is
# more, so that its scratch (the panel and one tile of rows) stays small
# next to a matrix of 1 MB or more (at 512 x 512, panels of 32 columns),
# and a small matrix goes in one panel.
_PANEL_BYTES = 1 << 21


def _column_panels(a: np.ndarray, rows=None):
    """Yield ``(cols, panel)`` for each panel of columns of ``a[rows]`` (all
    of ``a`` when ``rows`` is None), without forming ``a[rows]``: ``panel``
    is a transposed copy of those columns, one column per contiguous row.
    The panel buffer is reused, so a caller writes back what it needs
    before taking the next panel; writing into ``a[:, cols]`` is safe."""
    n = a.shape[0] if rows is None else rows.size
    m = a.shape[1]
    panel_bytes = min(_PANEL_BYTES, max(8 * n * m // 16, 1 << 16))
    width = min(m, max(1, panel_bytes // (8 * n)))
    buf = np.empty((width, n))
    for j0 in range(0, m, width):
        cols = slice(j0, min(j0 + width, m))
        panel = buf[:cols.stop - j0]
        # in tiles of 64 rows: transposing a whole strided slab, or a whole
        # row gather, in one copy is half again slower or more
        for r0 in range(0, n, 64):
            tile = slice(r0, r0 + 64) if rows is None else rows[r0:r0 + 64]
            panel[:, r0:r0 + 64] = a[tile, cols].T
        yield cols, panel


_PAVA_MODULE = "scipy.optimize._pava_pybind"


def _pava():
    """scipy's compiled PAVA kernel, loaded from its file at the first
    monotone fit.

    ``from scipy.optimize._pava_pybind import pava`` would first run
    ``scipy/optimize/__init__.py``, which imports scipy.sparse and
    scipy.linalg with their BLAS: about 48 MB of RSS and 0.4 s of a cold
    start on a 2-core host, for nothing this package uses. Only the
    top-level ``scipy`` package (about 1.4 MB) is imported; the extension
    is found in its ``optimize`` directory without importing that package.
    The module is registered under its own name, so a later
    ``import scipy.optimize`` reuses it instead of initialising the
    extension a second time.
    """
    module = sys.modules.get(_PAVA_MODULE)
    if module is None:
        import importlib.machinery
        import importlib.util

        import scipy

        dirs = [os.path.join(d, "optimize") for d in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(_PAVA_MODULE, dirs)
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no compiled PAVA kernel "
                              f"({_PAVA_MODULE}); seriation needs scipy>=1.12")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_PAVA_MODULE] = module
    return module.pava


def _project_columns(a: np.ndarray, shape: ShapeSpec, rows=None) -> np.ndarray:
    """:func:`project_columns` of ``a[rows]`` (all of ``a`` when ``rows`` is
    None) for a validated matrix, fitted in place panel by panel."""
    n = a.shape[0] if rows is None else rows.size
    if shape.kind == "monotone":
        # loaded here, not at import: only this branch needs scipy
        pava = _pava()

        # the inputs isotonic_regression hands the kernel, allocated once
        w = np.empty(n)
        r = np.empty(n + 1, dtype=np.intp)

        def fit(y):
            w.fill(1.0)
            r.fill(-1)
            pava(y, w, r)  # fits y in place
    else:
        return _project_split(a, shape, rows)
    out = np.empty((n, a.shape[1]))
    # the fits write into the panel buffer, never into ``a``
    for cols, panel in _column_panels(a, rows):
        for y in panel:
            fit(y)
        out[:, cols] = panel.T
    return out


def _project_split(a: np.ndarray, shape: ShapeSpec, rows=None) -> np.ndarray:
    """:func:`_project_columns` onto the unimodal or a fixed-mode cone. Each
    column takes two pure-Python sweeps, so a large matrix is fitted in
    contiguous ranges of columns on several processes: a child leaves its
    fitted columns in shared memory, one column per contiguous row, and
    they are copied into the result here. Each column is fitted by the same
    code, so the bytes do not depend on the split."""
    n, m = a.shape[0] if rows is None else rows.size, a.shape[1]
    if shape.kind == "unimodal":
        def fit(y):
            y[:] = unimodal_fit(y).fitted
    else:
        def fit(y):
            y[:] = _fixed_mode_fill(y, shape.mode)
    parts = core._fork_parts(m, n)
    cuts = core._cuts(m, parts)
    out = np.empty((n, m))

    def held(i, shared):
        """Part i's columns in the children's shared memory."""
        fitted = np.frombuffer(shared, dtype=np.float64).reshape(-1, n)
        return fitted[cuts[i] - cuts[1]:cuts[i + 1] - cuts[1]]

    def run(i, shared):
        c0 = cuts[i]
        dest = out[:, c0:cuts[i + 1]].T if shared is None else held(i, shared)
        # the fits write into the panel buffer, never into ``a``
        for cols, panel in _column_panels(a[:, c0:cuts[i + 1]], rows):
            for y in panel:
                fit(y)
            dest[cols] = panel

    def gather(i, shared):
        out[:, cuts[i]:cuts[i + 1]] = held(i, shared).T

    core._fork_join(parts, run, gather, 8 * n * (m - cuts[1]))
    return out


def has_monotone_columns(a, tol: float = EPS) -> bool:
    a = core._as_float64(a, "a")
    # row blocks that overlap by one row: no whole-matrix difference
    step = core._block_rows(a.shape[-1])
    with np.errstate(over="ignore"):  # a rise past the float64 range is inf, still a rise
        for s in range(0, a.shape[0] - 1, step):
            if not np.all(np.diff(a[s:s + step + 1], axis=0) >= -tol):
                return False
    return True
