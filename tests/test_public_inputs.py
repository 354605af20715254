"""Every public callable of the package, fed malformed and unusual inputs.

Each row of the table names one public callable and one argument slot; the
other arguments are valid. Seven inputs go into the slot: a list, a float32
array, an int array, a complex array, an array holding a NaN, an array with
one axis too many and an empty array. The callable must return a value or
raise a ``ValueError`` of its own: any other exception, a warning (an
error under this suite's settings) or numpy's message for an array used
as a truth value or broadcast against the wrong shape fails the test.
"""

import numpy as np
import pytest

import seriation as s

_A = np.array([[0.0, 0.0, 1.0],
               [1.0, 0.0, 2.0],
               [2.0, 1.0, 2.0],
               [3.0, 1.0, 4.0],
               [4.0, 2.0, 5.0]])  # column-increasing, 5 x 3
_Y = np.array([0.0, 2.0, 1.0, 3.0, 5.0])
_MAP = np.array([1, 0, 2, 4, 3])
_P = s.Permutation(_MAP)
_CFG = s.EstimatorConfig(tau=1.0)
_FIT = s.oracle_fit(_A, _P, s.MONOTONE)
_RECORD = s.ExperimentRecord(n=4, m=2, method="oracle", loss_total=1.0, loss_perm=0.0,
                             loss_matrix=1.0, log10_loss_total=0.0, wall_time_ms=0.0, seed=0)
# scalar, string, path, config and record slots get arrays built on this
_OTHER = np.array([2])
_BASES = {"matrix": _A, "vector": _Y, "perm": _MAP, "other": _OTHER}


def _inputs(base):
    nan = base.astype(np.float64)
    nan.flat[0] = np.nan
    return {
        "list": base.tolist(),
        "float32": base.astype(np.float32),
        "int": base.astype(np.int64),
        "complex": base.astype(np.complex128),
        "nan": nan,
        "wrong shape": base[..., None],
        "empty": np.empty((0,) * base.ndim),
    }


def _rng():
    return s.derive_rng(0)


# (callable name, slot, slot kind, call with x in that slot); a name may
# have one row per argument that takes an array. ``path`` is a file path
# under the test's tmp_path.
_TABLE = [
    # core
    ("Permutation", "mapping", "perm", lambda x, path: s.Permutation(x)),
    ("derive_rng", "seed", "other", lambda x, path: s.derive_rng(x)),
    ("derive_rng", "path", "other", lambda x, path: s.derive_rng(0, x)),
    ("frobenius_sq_dist", "a", "matrix", lambda x, path: s.frobenius_sq_dist(x, _A)),
    ("frobenius_sq_dist", "b", "matrix", lambda x, path: s.frobenius_sq_dist(_A, x)),
    ("inverse", "p", "perm", lambda x, path: s.inverse(x)),
    ("permute_rows", "p", "perm", lambda x, path: s.permute_rows(x, _A)),
    ("permute_rows", "a", "matrix", lambda x, path: s.permute_rows(_P, x)),
    ("read_matrix_csv", "path", "other", lambda x, path: s.read_matrix_csv(x)),
    ("read_permutation", "path", "other", lambda x, path: s.read_permutation(x)),
    ("write_matrix_csv", "a", "matrix", lambda x, path: s.write_matrix_csv(x, path)),
    ("write_matrix_csv", "path", "other", lambda x, path: s.write_matrix_csv(_A, x)),
    ("write_permutation", "p", "perm", lambda x, path: s.write_permutation(x, path)),
    ("write_permutation", "path", "other", lambda x, path: s.write_permutation(_P, x)),
    # estimators
    ("EstimatorConfig", "shape", "other", lambda x, path: s.EstimatorConfig(shape=x)),
    ("EstimatorConfig", "sigma", "other", lambda x, path: s.EstimatorConfig(sigma=x)),
    ("EstimatorConfig", "tau", "other", lambda x, path: s.EstimatorConfig(tau=x)),
    ("EstimatorConfig", "tau_constant", "other",
     lambda x, path: s.EstimatorConfig(tau_constant=x)),
    ("FitResult", "a_hat", "matrix",
     lambda x, path: s.FitResult(p_hat=_P, a_hat=x, sse=0.0)),
    ("LossBreakdown", "total", "other",
     lambda x, path: s.LossBreakdown(total=x, perm_only=0.0, matrix_only=0.0)),
    ("UnsupportedShapeError", "args", "other", lambda x, path: s.UnsupportedShapeError(x)),
    ("averaging_fit", "y", "matrix", lambda x, path: s.averaging_fit(x)),
    ("estimation_losses", "fit", "other", lambda x, path: s.estimation_losses(x, _P, _A)),
    ("estimation_losses", "p_true", "perm", lambda x, path: s.estimation_losses(_FIT, x, _A)),
    ("estimation_losses", "a_true", "matrix",
     lambda x, path: s.estimation_losses(_FIT, _P, x)),
    ("exhaustive_ls", "y", "matrix", lambda x, path: s.exhaustive_ls(x, s.MONOTONE)),
    ("exhaustive_ls", "shape", "other", lambda x, path: s.exhaustive_ls(_A, x)),
    ("fit", "method", "other", lambda x, path: s.fit(x, _A, _CFG)),
    ("fit", "y", "matrix", lambda x, path: s.fit("ranksum", x, _CFG)),
    ("fit", "cfg", "other", lambda x, path: s.fit("ranksum", _A, x)),
    ("fit", "p_true", "perm", lambda x, path: s.fit("oracle", _A, _CFG, x)),
    ("oracle_fit", "y", "matrix", lambda x, path: s.oracle_fit(x, _P, s.MONOTONE)),
    ("oracle_fit", "p_true", "perm", lambda x, path: s.oracle_fit(_A, x, s.MONOTONE)),
    ("oracle_fit", "shape", "other", lambda x, path: s.oracle_fit(_A, _P, x)),
    ("rank_score", "y", "matrix", lambda x, path: s.rank_score(x, _CFG)),
    ("rank_score", "cfg", "other", lambda x, path: s.rank_score(_A, x)),
    ("rank_sum", "y", "matrix", lambda x, path: s.rank_sum(x)),
    # experiments
    ("ExperimentConfig", "family", "other",
     lambda x, path: s.ExperimentConfig(family=x, methods=("oracle",), grid=((4, 2),))),
    ("ExperimentConfig", "methods", "other",
     lambda x, path: s.ExperimentConfig(family="random-v-bounded", methods=x, grid=((4, 2),))),
    ("ExperimentConfig", "grid", "matrix",
     lambda x, path: s.ExperimentConfig(family="random-v-bounded", methods=("oracle",), grid=x)),
    ("ExperimentConfig", "sigma", "other",
     lambda x, path: s.ExperimentConfig(family="random-v-bounded", methods=("oracle",),
                                        grid=((4, 2),), sigma=x)),
    ("ExperimentRecord", "n", "other",
     lambda x, path: s.ExperimentRecord(n=x, m=2, method="oracle", loss_total=1.0,
                                        loss_perm=0.0, loss_matrix=1.0,
                                        log10_loss_total=0.0, wall_time_ms=0.0, seed=0)),
    ("SlopeFit", "slope", "other",
     lambda x, path: s.SlopeFit(slope=x, intercept=0.0, r_squared=1.0)),
    ("emit_csv", "records", "vector", lambda x, path: s.emit_csv(x, path)),
    ("emit_csv", "path", "other", lambda x, path: s.emit_csv([_RECORD], x)),
    ("figure_configs", "name", "other", lambda x, path: s.figure_configs(x)),
    ("figure_configs", "n_max", "other",
     lambda x, path: s.figure_configs("1-left", n_min=4, n_max=x, n_points=2)),
    ("fit_loglog_slope", "records", "vector", lambda x, path: s.fit_loglog_slope(x)),
    ("fit_loglog_slope", "x", "other", lambda x, path: s.fit_loglog_slope([_RECORD] * 3, x=x)),
    ("read_records_csv", "path", "other", lambda x, path: s.read_records_csv(x)),
    ("run_experiment", "cfg", "other", lambda x, path: s.run_experiment(x)),
    ("run_figure", "name", "other", lambda x, path: s.run_figure(x)),
    # metrics
    ("ComplexityReport", "per_column_k", "vector",
     lambda x, path: s.ComplexityReport(k_total=1, per_column_k=x, v_total=0.0,
                                        per_column_v=_Y, r_value=None, r_degenerate=False)),
    ("RearrangementCheck", "matrix_term", "other",
     lambda x, path: s.RearrangementCheck(matrix_term=x, perm_term=0.0, total_term=0.0,
                                          ok=True)),
    ("complexity_report", "a", "matrix", lambda x, path: s.complexity_report(x)),
    ("complexity_report", "quantize", "other", lambda x, path: s.complexity_report(_A, x)),
    ("count_levels", "a", "matrix", lambda x, path: s.count_levels(x)),
    ("count_levels", "quantize", "other", lambda x, path: s.count_levels(_A, x)),
    ("gap", "a", "matrix", lambda x, path: s.gap(x, 0, 1)),
    ("gap", "i", "other", lambda x, path: s.gap(_A, x, 1)),
    ("gap_scores", "a", "matrix", lambda x, path: s.gap_scores(x, 1.0)),
    ("gap_scores", "threshold", "other", lambda x, path: s.gap_scores(_A, x)),
    ("min_adjacent_row_gap", "a", "matrix", lambda x, path: s.min_adjacent_row_gap(x)),
    ("pairwise_gaps", "a", "matrix", lambda x, path: s.pairwise_gaps(x)),
    ("r_statistic", "a", "matrix", lambda x, path: s.r_statistic(x)),
    ("rearrangement_check", "a_true", "matrix",
     lambda x, path: s.rearrangement_check(x, _A, _P, _P)),
    ("rearrangement_check", "a_alt", "matrix",
     lambda x, path: s.rearrangement_check(_A, x, _P, _P)),
    ("rearrangement_check", "p_true", "perm",
     lambda x, path: s.rearrangement_check(_A, _A, x, _P)),
    ("rearrangement_check", "p_alt", "perm",
     lambda x, path: s.rearrangement_check(_A, _A, _P, x)),
    ("variation", "a", "matrix", lambda x, path: s.variation(x)),
    # shape
    ("ShapeSpec", "kind", "other", lambda x, path: s.ShapeSpec(x)),
    ("ShapeSpec", "mode", "other", lambda x, path: s.ShapeSpec("fixed-mode", x)),
    ("VectorFit", "fitted", "vector", lambda x, path: s.VectorFit(fitted=x, sse=0.0)),
    ("antitonic_fit", "y", "vector", lambda x, path: s.antitonic_fit(x)),
    ("fixed_mode", "l", "other", lambda x, path: s.fixed_mode(x)),
    ("fixed_mode_fit", "y", "vector", lambda x, path: s.fixed_mode_fit(x, 2)),
    ("fixed_mode_fit", "l", "other", lambda x, path: s.fixed_mode_fit(_Y, x)),
    ("isotonic_fit", "y", "vector", lambda x, path: s.isotonic_fit(x)),
    ("project_columns", "a", "matrix", lambda x, path: s.project_columns(x, s.MONOTONE)),
    ("project_columns", "shape", "other", lambda x, path: s.project_columns(_A, x)),
    ("unimodal_fit", "y", "vector", lambda x, path: s.unimodal_fit(x)),
    # synth
    ("check_noise", "kind", "other", lambda x, path: s.check_noise(x, 1.0)),
    ("check_noise", "sigma", "other", lambda x, path: s.check_noise("gaussian", x)),
    ("draw_noise", "n", "other", lambda x, path: s.draw_noise("gaussian", 1.0, x, 3, _rng())),
    ("draw_noise", "rng", "other", lambda x, path: s.draw_noise("gaussian", 1.0, 5, 3, x)),
    ("draw_truth", "family", "other", lambda x, path: s.draw_truth(x, 5, 3, _rng())),
    ("draw_truth", "m", "other",
     lambda x, path: s.draw_truth("random-v-bounded", 5, x, _rng())),
    ("draw_truth", "rng", "other", lambda x, path: s.draw_truth("random-v-bounded", 5, 3, x)),
    ("gen_noise", "sigma", "other", lambda x, path: s.gen_noise("gaussian", x, 5, 3)),
    ("gen_observation", "truth", "matrix",
     lambda x, path: s.gen_observation(x, _P, np.zeros((5, 3)))),
    ("gen_observation", "p", "perm",
     lambda x, path: s.gen_observation(_A, x, np.zeros((5, 3)))),
    ("gen_observation", "noise", "matrix", lambda x, path: s.gen_observation(_A, _P, x)),
    ("gen_permutation", "n", "other", lambda x, path: s.gen_permutation(x)),
    ("gen_permutation", "seed", "other", lambda x, path: s.gen_permutation(5, x)),
    ("gen_truth", "family", "other", lambda x, path: s.gen_truth(x, 5, 3)),
    ("gen_truth", "n", "other", lambda x, path: s.gen_truth("random-v-bounded", x, 3)),
]

_CASES = [
    pytest.param(call, x, id=f"{name}-{slot}-{label}")
    for name, slot, kind, call in _TABLE
    for label, x in _inputs(_BASES[kind]).items()
]


def test_table_covers_every_public_callable():
    public = {name for name in dir(s)
              if not name.startswith("_") and callable(getattr(s, name))}
    assert public == {row[0] for row in _TABLE}


_NUMPY_MESSAGES = ("truth value of an", "could not be broadcast")


@pytest.mark.parametrize("call, x", _CASES)
def test_value_or_value_error(call, x, tmp_path):
    try:
        call(x, tmp_path / "out")
    except ValueError as e:
        assert not any(text in str(e) for text in _NUMPY_MESSAGES), e
