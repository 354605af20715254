"""Estimators of the (permutation, shaped matrix) pair from one noisy
observation.

Every estimator returns a :class:`FitResult` whose fitted observation
``m_hat`` is exactly ``permute_rows(p_hat, a_hat)`` and whose ``sse`` is the
float ``frobenius_sq_dist(y, m_hat)``, so SSE values of different estimators
on the same data are directly comparable floats. Neither ``m_hat`` nor the
row-ordered observation is ever stored: the fits project the columns of
``y`` through the row order, and the SSE pairs each row of ``a_hat`` with
the observation row it explains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Permutation,
    _check_choice,
    _check_instance,
    _loss_terms,
    _permute_rows,
    _sq_dist,
    check_matrix,
    check_nonnegative,
)
from .metrics import _gap_scores
from .shape import MONOTONE, ShapeSpec, _project_columns

METHODS = ("rankscore", "ranksum", "exhaustive", "oracle", "average")

# rows beyond which exhaustive least squares refuses to enumerate n! orders
EXHAUSTIVE_ROW_CAP = 8


class UnsupportedShapeError(ValueError):
    """Raised when an estimator is asked for a cone it is not defined on."""


@dataclass(frozen=True)
class FitResult:
    """One estimate of the permutation/matrix pair.

    ``p_hat`` maps shape-space rows to observation rows (row ``k`` of
    ``a_hat`` explains row ``p_hat.mapping[k]`` of the observation).
    ``scores`` carries the per-row dominance counts for the score-based
    estimator, None elsewhere.
    """

    p_hat: Permutation
    a_hat: np.ndarray
    sse: float
    scores: np.ndarray | None = None

    @property
    def m_hat(self) -> np.ndarray:
        """The fitted observation ``permute_rows(p_hat, a_hat)``, which lives
        next to the data; a new n x m matrix on every access."""
        return _permute_rows(self.p_hat, self.a_hat)


@dataclass(frozen=True)
class EstimatorConfig:
    """Shape target and threshold configuration.

    The score threshold ``tau`` may be given directly, or left None with
    ``tau_constant`` set, in which case it resolves to
    ``3 * sigma * sqrt((tau_constant + 1) * log(n*m))`` (natural log) for the
    data at hand. Setting both is an error.
    """

    shape: ShapeSpec = MONOTONE
    sigma: float = 1.0
    tau: float | None = None
    tau_constant: float | None = None

    def __post_init__(self):
        _check_instance(self.shape, ShapeSpec, "shape")
        check_nonnegative(self.sigma, "sigma")
        for name in ("tau", "tau_constant"):
            if getattr(self, name) is not None:
                check_nonnegative(getattr(self, name), name)
        if self.tau is not None and self.tau_constant is not None:
            # an experiment config defaults tau to 6, which would win silently
            raise ValueError("tau and tau_constant are both set; give one "
                             '(in a config that sets tau_constant, write "tau": null)')

    def resolve_tau(self, n: int, m: int) -> float:
        if self.tau is not None:
            return self.tau
        if self.tau_constant is not None:
            return 3.0 * self.sigma * math.sqrt(
                (self.tau_constant + 1.0) * math.log(n * m)
            )
        raise ValueError("configure either tau or tau_constant")


def _ordered_fit(y: np.ndarray, order: np.ndarray, shape: ShapeSpec,
                 scores: np.ndarray | None = None) -> FitResult:
    """Project the rows of ``y``, taken in ``order``, onto the cone; the
    resulting permutation sends shaped row k back to observation row
    order[k]. ``y`` must be validated already: nothing here scans it."""
    p_hat = Permutation(np.asarray(order, dtype=np.int64))
    a_hat = _project_columns(y, shape, p_hat.mapping)
    # row k of a_hat fits row order[k] of y: the row pairs of
    # frobenius_sq_dist(y, m_hat), so the same float
    sse = _sq_dist(y, a_hat, ia=p_hat.mapping)
    return FitResult(p_hat=p_hat, a_hat=a_hat, sse=sse, scores=scores)


def rank_score(y, cfg: EstimatorConfig) -> FitResult:
    """Order rows by how many other rows they dominate by at least twice the
    threshold, then project onto increasing columns.

    Row ``i`` scores ``s_i = #{l : g(l, i) >= 2 tau}`` with the gap
    ``g(l, i) = max_j (Y[i, j] - Y[l, j])  v  (r_i - r_l)``, where
    ``r = Y.sum(axis=1) / sqrt(m)``; rows are sorted by increasing score
    (stable, so ties keep their original relative order). Only defined for
    the monotone cone.

    The scores come from :func:`~seriation.metrics.gap_scores`, an exact
    count that never forms the gap matrix: O(n m) for the column spreads,
    then O(c n log n + c n^2 / 64) word operations over the c columns whose
    spread reaches 2 tau (the bitset work of each bounded by its longest
    prefix), and O(n^2 / 8) bytes of scratch. The column projection and the
    fit add O(n m) time and memory.
    """
    y = check_matrix(y)
    _check_instance(cfg, EstimatorConfig, "cfg")
    if cfg.shape.kind != "monotone":
        raise UnsupportedShapeError(
            f"rank_score is defined for monotone columns only, got {cfg.shape.kind}"
        )
    n, m = y.shape
    tau = cfg.resolve_tau(n, m)
    scores = _gap_scores(y, 2.0 * tau)
    order = np.argsort(scores, kind="stable")
    return _ordered_fit(y, order, MONOTONE, scores=scores)


def rank_sum(y) -> FitResult:
    """Order rows by increasing row sum (stable), then project onto
    increasing columns."""
    y = check_matrix(y)
    order = np.argsort(y.sum(axis=1), kind="stable")
    return _ordered_fit(y, order, MONOTONE)


def exhaustive_ls(y, shape: ShapeSpec) -> FitResult:
    """Global least squares over all row orders: project every permuted copy
    of ``y`` onto the cone and keep the smallest SSE.

    Candidates are enumerated in lexicographic order of the permutation
    mapping and compared with strict less-than, so ties resolve to the
    lexicographically smallest mapping. Factorial in the number of rows;
    refuses more than ``EXHAUSTIVE_ROW_CAP`` rows.
    """
    y = check_matrix(y)
    _check_instance(shape, ShapeSpec, "shape")
    n = y.shape[0]
    if n > EXHAUSTIVE_ROW_CAP:
        raise ValueError(
            f"exhaustive search over {n}! row orders refused "
            f"(cap is {EXHAUSTIVE_ROW_CAP} rows)"
        )
    best: FitResult | None = None
    for order in itertools.permutations(range(n)):
        fit = _ordered_fit(y, np.array(order, dtype=np.int64), shape)
        if best is None or fit.sse < best.sse:
            best = fit
    return best


def oracle_fit(y, p_true: Permutation, shape: ShapeSpec) -> FitResult:
    """Projection onto the cone with the true permutation known."""
    y = check_matrix(y)
    _check_instance(p_true, Permutation, "p_true")
    _check_instance(shape, ShapeSpec, "shape")
    if p_true.n != y.shape[0]:
        raise ValueError(
            f"permutation of {p_true.n} rows given for a matrix of {y.shape[0]} rows"
        )
    return _ordered_fit(y, p_true.mapping, shape)


def averaging_fit(y) -> FitResult:
    """Replace every row by the vector of column means, with the identity
    permutation. Optimal when the truth has (nearly) constant columns."""
    y = check_matrix(y)
    n = y.shape[0]
    a_hat = np.tile(y.mean(axis=0), (n, 1))
    return FitResult(p_hat=Permutation.identity(n), a_hat=a_hat, sse=_sq_dist(y, a_hat))


def fit(method: str, y, cfg: EstimatorConfig,
        p_true: Permutation | None = None) -> FitResult:
    """Run the estimator named ``method`` (one of :data:`METHODS`) on ``y``.

    ``cfg.shape`` is the target cone; ``ranksum`` and ``average`` accept the
    monotone cone only, and ``oracle`` needs the true permutation
    ``p_true``. Estimators are looked up by module name at call time, so a
    rebound name (a tracing wrapper, say) is honoured.
    """
    _check_choice(method, METHODS, "method")
    _check_instance(cfg, EstimatorConfig, "cfg")
    if method in ("ranksum", "average") and cfg.shape.kind != "monotone":
        raise UnsupportedShapeError(
            f"{method} fits monotone columns only, got {cfg.shape.kind}"
        )
    if method == "rankscore":
        return rank_score(y, cfg)
    if method == "ranksum":
        return rank_sum(y)
    if method == "exhaustive":
        return exhaustive_ls(y, cfg.shape)
    if method == "oracle":
        if p_true is None:
            raise ValueError("the oracle needs the true permutation (p_true)")
        return oracle_fit(y, p_true, cfg.shape)
    return averaging_fit(y)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-entry squared losses of a fit against the known truth."""

    total: float
    perm_only: float
    matrix_only: float


def estimation_losses(fit: FitResult, p_true: Permutation, a_true) -> LossBreakdown:
    """Split the per-entry squared loss of a fit into its permutation-only
    and matrix-only components.

    ``total`` compares the fitted observation to the true one,
    ``permute_rows(p_true, a_true)``; ``perm_only`` applies the estimated
    permutation to the true matrix instead; ``matrix_only`` compares the
    shaped estimates directly. Each is the float of
    :func:`~seriation.core.frobenius_sq_dist` over ``n m``, with O(block + n)
    scratch (``core._loss_terms``); the oracle's ``perm_only`` is 0.0.

    ``fit.a_hat`` must be a float64 array of the truth's shape, and both
    permutations :class:`~seriation.core.Permutation` objects. These checks
    take O(1); an entry of ``a_hat`` that is not finite makes a loss that is
    not, which raises ``ValueError`` too.
    """
    a_true = check_matrix(a_true, "a_true")
    _check_instance(fit, FitResult, "fit")
    a_hat = fit.a_hat
    if not isinstance(a_hat, np.ndarray) or a_hat.dtype != np.float64:
        got = getattr(a_hat, "dtype", type(a_hat).__name__)
        raise ValueError(f"fit.a_hat must be a float64 numpy array, got {got}")
    _check_instance(fit.p_hat, Permutation, "fit.p_hat")
    _check_instance(p_true, Permutation, "p_true")
    total, perm, matrix = _loss_terms(a_hat, fit.p_hat, a_true, p_true)
    nm = a_true.size
    return LossBreakdown(total=total / nm, perm_only=perm / nm, matrix_only=matrix / nm)
