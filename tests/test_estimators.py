import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import estimation_losses_reference, frobenius_sq_dist_reference

from seriation import core, estimators
from seriation.core import Permutation, derive_rng, frobenius_sq_dist, permute_rows
from seriation.estimators import (
    METHODS,
    EstimatorConfig,
    FitResult,
    UnsupportedShapeError,
    averaging_fit,
    estimation_losses,
    exhaustive_ls,
    fit,
    oracle_fit,
    rank_score,
    rank_sum,
)
from seriation.metrics import min_adjacent_row_gap, pairwise_gaps
from seriation.shape import MONOTONE, UNIMODAL, has_monotone_columns, isotonic_fit
from seriation.synth import draw_truth


def random_monotone(rng, n, m, scale=1.0):
    return np.sort(rng.normal(0.0, scale, size=(n, m)), axis=0)


def check_fit_invariants(fit, y):
    assert np.array_equal(fit.m_hat, permute_rows(fit.p_hat, fit.a_hat))
    assert fit.sse == frobenius_sq_dist(y, fit.m_hat)


class TestRankScore:
    def test_noiseless_separated_column(self):
        y = np.array([[0.0], [10.0], [20.0]])
        fit = rank_score(y, EstimatorConfig(tau=1.0))
        assert np.array_equal(fit.scores, [0, 1, 2])
        assert fit.p_hat == Permutation.identity(3)
        assert np.array_equal(fit.m_hat, y)
        assert fit.sse == 0.0
        check_fit_invariants(fit, y)

    def test_identical_rows_stable_ties(self):
        y = np.tile(np.array([[1.0, 2.0]]), (4, 1))
        fit = rank_score(y, EstimatorConfig(tau=1.0))
        assert np.all(fit.scores == fit.scores[0])
        assert fit.p_hat == Permutation.identity(4)
        assert np.allclose(fit.a_hat, y)

    def test_recovers_permuted_sparse_rows(self):
        # adjacent row gaps are sqrt(m) = 14 >= 2*tau, so the scores are
        # 0..n-1 under the true order and recovery is exact
        rng = derive_rng(1)
        truth = draw_truth("sparse-rows", 10, 196, rng)
        p = Permutation.random(10, rng)
        y = permute_rows(p, truth)
        fit = rank_score(y, EstimatorConfig(tau=6.0))
        assert np.array_equal(fit.m_hat, y)
        assert fit.sse == 0.0
        assert estimation_losses(fit, p, truth).total == 0.0

    def test_scores_match_pairwise_reference(self):
        rng = derive_rng(4, 300, 300, 0)
        truth = draw_truth("sparse-rows", 300, 300, rng)
        p = Permutation.random(300, rng)
        y = permute_rows(p, truth) + rng.normal(size=(300, 300))
        fit = rank_score(y, EstimatorConfig(tau=6.0))
        assert np.array_equal(fit.scores, np.count_nonzero(pairwise_gaps(y) >= 12.0, axis=0))
        assert 0 < fit.scores.sum() < 300 * 300

    def test_checks_its_input_once(self, monkeypatch):
        calls = []
        check = core.check_matrix

        def spy(a, name="matrix"):
            calls.append(name)
            return check(a, name)

        # every module that binds the check, so a second scan anywhere counts
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("seriation.") \
                    and getattr(mod, "check_matrix", None) is check:
                monkeypatch.setattr(mod, "check_matrix", spy)
        y = derive_rng(5).normal(size=(20, 6))
        rank_score(y, EstimatorConfig(tau=0.5))
        assert len(calls) == 1

    def test_rejects_non_finite_config(self):
        for kwargs in ({"sigma": np.nan}, {"sigma": np.inf}, {"tau": np.nan},
                       {"tau": np.inf}, {"tau_constant": np.nan}, {"tau": -1.0}):
            with pytest.raises(ValueError):
                EstimatorConfig(**kwargs)

    def test_tau_and_tau_constant_together_rejected(self):
        with pytest.raises(ValueError, match='both set.*"tau": null'):
            EstimatorConfig(tau=1.0, tau_constant=2.0)
        # the value checks come first and keep their messages
        with pytest.raises(ValueError, match="finite"):
            EstimatorConfig(tau=np.inf, tau_constant=2.0)
        with pytest.raises(ValueError, match="must be a real number"):
            EstimatorConfig(tau=1.0, tau_constant="2")

    def test_unimodal_shape_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            rank_score(np.zeros((2, 2)), EstimatorConfig(shape=UNIMODAL, tau=1.0))

    def test_tau_rule_resolution(self):
        cfg = EstimatorConfig(sigma=2.0, tau_constant=1.0)
        assert cfg.resolve_tau(10, 10) == pytest.approx(
            3.0 * 2.0 * np.sqrt(2.0 * np.log(100.0))
        )
        with pytest.raises(ValueError):
            EstimatorConfig(tau=None).resolve_tau(2, 2)

    def test_gap_condition_orders_correctly(self):
        # rows with gap >= 4*tau must land in the right relative order even
        # with every other row in between (noiseless reading of the score rule)
        rng = derive_rng(2)
        truth = random_monotone(rng, 8, 3)
        truth[4:] += 10.0  # gap between row 3 and 4 is huge
        p = Permutation.random(8, rng)
        y = permute_rows(p, truth)
        tau = min_adjacent_row_gap(truth) / 8.0
        fit = rank_score(y, EstimatorConfig(tau=tau))
        inv = np.empty(8, dtype=int)
        inv[fit.p_hat.mapping] = np.arange(8)
        positions = inv[p.mapping]  # where each true rank ended up
        assert np.array_equal(positions, np.arange(8))

    def test_relabeling_equivariance(self):
        rng = derive_rng(3)
        truth = random_monotone(rng, 7, 4, scale=5.0)
        p = Permutation.random(7, rng)
        y = permute_rows(p, truth)
        cfg = EstimatorConfig(tau=min_adjacent_row_gap(truth) / 8.0)
        fit = rank_score(y, cfg)

        q = Permutation.random(7, rng)
        y2 = permute_rows(q, y)
        fit2 = rank_score(y2, cfg)
        assert np.array_equal(fit2.scores[q.mapping], fit.scores)
        assert np.array_equal(fit2.m_hat, permute_rows(q, fit.m_hat))
        target = permute_rows(p, truth)
        loss1 = frobenius_sq_dist(fit.m_hat, target)
        loss2 = frobenius_sq_dist(fit2.m_hat, permute_rows(q, target))
        assert loss1 == loss2


class TestRankSum:
    def test_increasing_sums_identity(self):
        y = np.array([[0.0, 1.0], [2.0, 2.0], [5.0, 1.0]])
        fit = rank_sum(y)
        assert fit.p_hat == Permutation.identity(3)
        check_fit_invariants(fit, y)

    def test_sparse_rows_noiseless_identity(self):
        y = draw_truth("sparse-rows", 6, 9, derive_rng(0))
        assert rank_sum(y).p_hat == Permutation.identity(6)

    def test_ties_keep_original_order(self):
        y = np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]])  # all sums equal
        fit = rank_sum(y)
        assert fit.p_hat == Permutation.identity(3)

    def test_sorts_by_sums(self):
        y = np.array([[5.0], [1.0], [3.0]])
        fit = rank_sum(y)
        assert np.array_equal(fit.p_hat.mapping, [1, 2, 0])
        assert np.array_equal(fit.a_hat[:, 0], [1.0, 3.0, 5.0])


class TestExhaustive:
    def test_noiseless_truth_is_recovered(self):
        rng = derive_rng(4)
        truth = random_monotone(rng, 5, 3)
        p = Permutation.random(5, rng)
        y = permute_rows(p, truth)
        fit = exhaustive_ls(y, MONOTONE)
        assert fit.sse == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(fit.m_hat, y, atol=1e-12)

    def test_single_row(self):
        y = np.array([[3.0, 1.0]])
        fit = exhaustive_ls(y, MONOTONE)
        assert fit.p_hat == Permutation.identity(1)
        assert np.array_equal(fit.m_hat, y)

    def test_cap_refused_with_factorial_message(self):
        with pytest.raises(ValueError, match="row orders refused"):
            exhaustive_ls(np.zeros((9, 2)), MONOTONE)

    def test_dominates_rank_score(self):
        rng = derive_rng(5)
        for _ in range(150):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            y = rng.normal(size=(n, m))
            ex = exhaustive_ls(y, MONOTONE)
            rs = rank_score(y, EstimatorConfig(tau=1.0))
            assert ex.sse <= rs.sse

    def test_unimodal_shape(self):
        rng = derive_rng(6)
        y = rng.normal(size=(4, 2))
        fit = exhaustive_ls(y, UNIMODAL)
        mono = exhaustive_ls(y, MONOTONE)
        assert fit.sse <= mono.sse + 1e-12  # monotone cone is inside unimodal
        check_fit_invariants(fit, y)

    def test_lexicographic_tie_break(self):
        y = np.zeros((3, 2))  # every permutation ties at sse 0
        fit = exhaustive_ls(y, MONOTONE)
        assert fit.p_hat == Permutation.identity(3)


class TestOracleAveraging:
    def test_oracle_noiseless_exact(self):
        rng = derive_rng(7)
        truth = random_monotone(rng, 6, 2)
        p = Permutation.random(6, rng)
        y = permute_rows(p, truth)
        fit = oracle_fit(y, p, MONOTONE)
        assert fit.p_hat == p
        assert np.allclose(fit.a_hat, truth, atol=1e-12)
        losses = estimation_losses(fit, p, truth)
        assert losses.total == pytest.approx(0.0, abs=1e-18)

    def test_oracle_single_column_is_vector_fit(self):
        y = derive_rng(8).normal(size=(7, 1))
        fit = oracle_fit(y, Permutation.identity(7), MONOTONE)
        assert np.allclose(fit.a_hat[:, 0], isotonic_fit(y[:, 0]).fitted, atol=1e-12)

    def test_averaging_constant_columns_exact(self):
        truth = np.tile(np.array([[2.0, -1.0]]), (5, 1))
        fit = averaging_fit(truth)
        assert np.array_equal(fit.m_hat, truth)
        assert fit.sse == 0.0

    def test_averaging_two_rows(self):
        y = np.array([[0.0], [2.0]])
        fit = averaging_fit(y)
        assert np.array_equal(fit.a_hat, [[1.0], [1.0]])
        assert fit.sse == pytest.approx(2.0)
        assert fit.p_hat == Permutation.identity(2)

    def test_averaging_output_is_monotone(self):
        y = derive_rng(9).normal(size=(6, 3))
        fit = averaging_fit(y)
        assert has_monotone_columns(fit.a_hat)
        check_fit_invariants(fit, y)


class TestDispatch:
    def test_each_method_matches_its_estimator(self):
        rng = derive_rng(12)
        p = Permutation.random(5, rng)
        y = permute_rows(p, random_monotone(rng, 5, 3)) + rng.normal(0, 0.3, size=(5, 3))
        cfg = EstimatorConfig(shape=UNIMODAL, tau=0.5)
        direct = {
            "rankscore": rank_score(y, EstimatorConfig(tau=0.5)),
            "ranksum": rank_sum(y),
            "exhaustive": exhaustive_ls(y, UNIMODAL),
            "oracle": oracle_fit(y, p, UNIMODAL),
            "average": averaging_fit(y),
        }
        assert set(direct) == set(METHODS)
        for method, expect in direct.items():
            shaped = cfg if method in ("exhaustive", "oracle") else EstimatorConfig(tau=0.5)
            got = fit(method, y, shaped, p)
            check_fit_invariants(got, y)
            assert got.p_hat == expect.p_hat
            assert np.array_equal(got.m_hat, expect.m_hat)
            assert got.sse == expect.sse

    def test_fit_looks_up_estimators_by_module_name(self, monkeypatch):
        # a wrapper bound to the module name (a tracing span, say) is reached
        names = {"rankscore": "rank_score", "ranksum": "rank_sum",
                 "exhaustive": "exhaustive_ls", "oracle": "oracle_fit",
                 "average": "averaging_fit"}
        assert set(names) == set(METHODS)
        calls = []
        for name in names.values():
            def wrapper(*args, _name=name, _run=getattr(estimators, name)):
                calls.append(_name)
                return _run(*args)

            monkeypatch.setattr(estimators, name, wrapper)
        rng = derive_rng(13)
        p = Permutation.random(4, rng)
        y = rng.normal(size=(4, 2))
        for method in METHODS:
            before = len(calls)
            fit(method, y, EstimatorConfig(tau=0.5), p)
            assert calls[before:] == [names[method]]

    @pytest.mark.parametrize("method", ["rankscore", "ranksum", "average"])
    def test_monotone_only_methods_reject_unimodal(self, method):
        with pytest.raises(UnsupportedShapeError, match="monotone"):
            fit(method, np.zeros((3, 2)), EstimatorConfig(shape=UNIMODAL, tau=1.0))

    def test_oracle_needs_p_true(self):
        with pytest.raises(ValueError, match="permutation"):
            fit("oracle", np.zeros((3, 2)), EstimatorConfig())

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            fit("sorcery", np.zeros((3, 2)), EstimatorConfig())


class TestLosses:
    def test_perfect_fit_zero(self):
        rng = derive_rng(10)
        truth = random_monotone(rng, 5, 2)
        p = Permutation.random(5, rng)
        fit = oracle_fit(permute_rows(p, truth), p, MONOTONE)
        losses = estimation_losses(fit, p, truth)
        assert losses.total == losses.perm_only == losses.matrix_only == 0.0

    def test_true_permutation_splits_exactly(self):
        # integer data keeps the equality between matrix and total loss exact
        truth = np.array([[0.0], [1.0], [3.0]])
        p = Permutation(np.array([2, 0, 1]))
        y = permute_rows(p, truth) + np.array([[1.0], [0.0], [-1.0]])
        fit = oracle_fit(y, p, MONOTONE)
        losses = estimation_losses(fit, p, truth)
        assert losses.perm_only == 0.0
        assert losses.matrix_only == losses.total

    def test_monotone_decomposition_bounds(self):
        rng = derive_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 4))
            truth = random_monotone(rng, n, m)
            p = Permutation.random(n, rng)
            y = permute_rows(p, truth) + rng.normal(0, 1, size=(n, m))
            for fit in (rank_sum(y), rank_score(y, EstimatorConfig(tau=1.0))):
                losses = estimation_losses(fit, p, truth)
                slack = 1e-9 * (1.0 + losses.total)
                assert losses.matrix_only <= losses.total + slack
                assert losses.perm_only <= 4.0 * losses.total + slack

    def test_dimension_mismatch(self):
        fit = averaging_fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            estimation_losses(fit, Permutation.identity(3), np.zeros((3, 3)))

    def test_wrong_length_fit_permutation(self):
        # a p_hat shorter or longer than the truth is an error, not a loss
        # over the rows it happens to name
        truth = np.arange(10, dtype=np.float64).reshape(5, 2)
        for p_hat in (Permutation(np.array([1, 0, 2])), Permutation.identity(6)):
            result = FitResult(p_hat=p_hat, a_hat=np.zeros((5, 2)), sse=0.0)
            with pytest.raises(ValueError, match="permutation length"):
                estimation_losses(result, Permutation.identity(5), truth)

    # each malformed argument is a ValueError, not an AttributeError or a
    # TypeError from the loss kernel
    @pytest.mark.parametrize("a_hat, p_hat, p_true, message", [
        ([[0.0, 1.0], [1.0, 2.0]], None, None, "got list"),
        (np.zeros((2, 2), dtype=np.float32), None, None, "got float32"),
        (np.zeros((2, 2), dtype=np.int64), None, None, "got int64"),
        (np.zeros((2, 3)), None, None, "shape mismatch"),
        (np.zeros(4), None, None, "shape mismatch"),
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), None, None, "not finite"),
        (None, [1, 0], None, "fit.p_hat must be a Permutation"),
        (None, None, [1, 0], "p_true must be a Permutation"),
        (None, None, np.array([0, 1]), "p_true must be a Permutation"),
    ])
    def test_malformed_arguments_are_value_errors(self, a_hat, p_hat, p_true, message):
        truth = np.array([[0.0, 1.0], [1.0, 2.0]])
        result = FitResult(p_hat=Permutation(np.array([1, 0])) if p_hat is None else p_hat,
                           a_hat=truth.copy() if a_hat is None else a_hat, sse=0.0)
        with pytest.raises(ValueError, match=message):
            estimation_losses(result, Permutation.identity(2) if p_true is None else p_true,
                              truth)

    # blocks of one row up to the default size; row counts around a block
    # boundary, odd widths, exponents from 1e-30 to 1e30 in one matrix
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 63, 64, 65, 257]),
           m=st.sampled_from([1, 3, 7, 65, 129]),
           identity=st.booleans(),
           method=st.sampled_from(["oracle", "ranksum", "average"]),
           block_bytes=st.sampled_from([8, 8 * 64, core._ROW_BLOCK_BYTES]),
           seed=st.integers(0, 2**32 - 1))
    def test_losses_and_sse_match_reference(self, n, m, identity, method, block_bytes,
                                            seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-30, 31, size=(n, m))
        truth = np.sort(rng.normal(size=(n, m)) * scale, axis=0)
        p = Permutation.identity(n) if identity else Permutation.random(n, rng)
        y = permute_rows(p, truth) + rng.normal(size=(n, m)) * scale
        with mock.patch.object(core, "_ROW_BLOCK_BYTES", block_bytes):
            result = fit(method, y, EstimatorConfig(), p)
            losses = estimation_losses(result, p, truth)
        assert result.sse == frobenius_sq_dist_reference(y, result.m_hat)
        assert (losses.total, losses.perm_only, losses.matrix_only) == \
            estimation_losses_reference(result, p, truth)
        if method == "oracle":  # p_hat is p: the one-pass branch
            assert losses.perm_only == 0.0
            assert losses.total == losses.matrix_only

    def test_scratch_is_less_than_one_matrix(self):
        # one 1024 x 1024 float64 matrix is 8 MiB; the losses and the
        # distance need a few blocks of rows and one float per row
        rng = derive_rng(12)
        n = m = 1024
        truth = random_monotone(rng, n, m)
        p = Permutation.random(n, rng)
        y = permute_rows(p, truth) + rng.normal(size=(n, m))
        result = rank_sum(y)
        m_hat = result.m_hat  # built on each access: outside the traced calls
        for call in (lambda: estimation_losses(result, p, truth),
                     lambda: frobenius_sq_dist(m_hat, y)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * m
