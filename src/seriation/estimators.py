"""Estimators of the (permutation, shaped matrix) pair from one noisy
observation.

Every estimator returns a :class:`FitResult` whose fitted observation
``m_hat`` is exactly ``permute_rows(p_hat, a_hat)`` and whose ``sse`` is
computed by the one shared code path ``frobenius_sq_dist(y, m_hat)``, so SSE
values of different estimators on the same data are directly comparable
floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Permutation,
    _permute_rows,
    _sq_dist,
    check_matrix,
    frobenius_sq_dist,
    inverse,
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
    ``a_hat`` explains row ``p_hat.mapping[k]`` of the observation), so
    ``m_hat = permute_rows(p_hat, a_hat)`` lives next to the data.
    ``scores`` carries the per-row dominance counts for the score-based
    estimator, None elsewhere.
    """

    p_hat: Permutation
    a_hat: np.ndarray
    m_hat: np.ndarray
    sse: float
    scores: np.ndarray | None = None


@dataclass(frozen=True)
class EstimatorConfig:
    """Shape target and threshold configuration.

    The score threshold ``tau`` may be given directly, or left None with
    ``tau_constant`` set, in which case it resolves to
    ``3 * sigma * sqrt((tau_constant + 1) * log(n*m))`` (natural log) for the
    data at hand.
    """

    shape: ShapeSpec = MONOTONE
    sigma: float = 1.0
    tau: float | None = None
    tau_constant: float | None = None

    def __post_init__(self):
        for name in ("sigma", "tau", "tau_constant"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

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
    a_hat = _project_columns(y[p_hat.mapping], shape)
    m_hat = _permute_rows(p_hat, a_hat)
    return FitResult(
        p_hat=p_hat,
        a_hat=a_hat,
        m_hat=m_hat,
        sse=frobenius_sq_dist(y, m_hat),
        scores=scores,
    )


def rank_score(y, cfg: EstimatorConfig) -> FitResult:
    """Order rows by how many other rows they dominate by at least twice the
    threshold, then project onto increasing columns.

    Row ``i`` scores ``s_i = #{l : gap(Y, l, i) >= 2 tau}``; rows are sorted
    by increasing score (stable, so ties keep their original relative
    order). Only defined for the monotone cone.

    The scores come from :func:`~seriation.metrics.gap_scores`, an exact
    count that never forms the gap matrix: O(n m log n + n^2 m / 64) word
    operations and O(n^2 / 8) bytes of scratch. The column projection and
    the fit add O(n m) time and memory.
    """
    y = check_matrix(y)
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


def exhaustive_ls(y, shape: ShapeSpec, max_rows: int = EXHAUSTIVE_ROW_CAP) -> FitResult:
    """Global least squares over all row orders: project every permuted copy
    of ``y`` onto the cone and keep the smallest SSE.

    Candidates are enumerated in lexicographic order of the permutation
    mapping and compared with strict less-than, so ties resolve to the
    lexicographically smallest mapping. Factorial in the number of rows;
    refuses more than ``max_rows`` rows (raise the cap explicitly if you
    really mean it).
    """
    y = check_matrix(y)
    n = y.shape[0]
    if n > max_rows:
        raise ValueError(
            f"exhaustive search over {n}! row orders refused "
            f"(cap is {max_rows} rows; pass max_rows={n} to override)"
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
    p_hat = Permutation.identity(n)
    m_hat = _permute_rows(p_hat, a_hat)
    return FitResult(
        p_hat=p_hat, a_hat=a_hat, m_hat=m_hat, sse=frobenius_sq_dist(y, m_hat)
    )


def fit(method: str, y, cfg: EstimatorConfig,
        p_true: Permutation | None = None) -> FitResult:
    """Run the estimator named ``method`` (one of :data:`METHODS`) on ``y``.

    ``cfg.shape`` is the target cone; ``ranksum`` and ``average`` accept the
    monotone cone only, and ``oracle`` needs the true permutation
    ``p_true``. Estimators are looked up by module name at call time, so a
    rebound name (a tracing wrapper, say) is honoured.
    """
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
    if method == "average":
        return averaging_fit(y)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


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
    shaped estimates directly. Each is the sorted sum of
    :func:`~seriation.core.frobenius_sq_dist`, but the permuted matrices are
    never formed: rows are gathered through the inverse permutations in
    cache-sized blocks, so scratch is O(block + n), not O(n m).
    """
    a_true = check_matrix(a_true, "a_true")
    if fit.a_hat.shape != a_true.shape:
        raise ValueError(f"shape mismatch: {fit.a_hat.shape} vs {a_true.shape}")
    n, m = a_true.shape
    if p_true.n != n:
        raise ValueError(f"permutation length {p_true.n} does not match row count {n}")
    # row r of permute_rows(p, a_true) is row inverse(p).mapping[r] of a_true
    true_rows = inverse(p_true).mapping
    return LossBreakdown(
        total=_sq_dist(fit.m_hat, a_true, ib=true_rows) / (n * m),
        perm_only=_sq_dist(a_true, a_true, inverse(fit.p_hat).mapping, true_rows) / (n * m),
        matrix_only=_sq_dist(fit.a_hat, a_true) / (n * m),
    )
