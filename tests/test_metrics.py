import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import r_statistic_reference

from seriation import metrics
from seriation.core import Permutation, derive_rng, frobenius_sq_dist, permute_rows
from seriation.metrics import (
    complexity_report,
    count_levels,
    gap,
    gap_scores,
    min_adjacent_row_gap,
    pair_score,
    pairwise_gaps,
    r_statistic,
    rearrangement_check,
    variation,
)
from seriation.shape import has_monotone_columns
from seriation.synth import draw_truth


def random_monotone(rng, n, m, scale=1.0):
    return np.sort(rng.normal(0.0, scale, size=(n, m)), axis=0)


class TestCountLevels:
    def test_constant_matrix(self):
        k, per = count_levels(np.full((4, 3), 2.5))
        assert k == 3
        assert np.array_equal(per, [1, 1, 1])

    def test_triangular_has_2n_minus_1(self):
        a = draw_truth("triangular", 3, 3, derive_rng(0))
        k, per = count_levels(a)
        assert k == 5
        assert np.array_equal(per, [1, 2, 2])

    def test_direct_column_count(self):
        k, per = count_levels(np.array([[1.0], [1.0], [2.0], [3.0], [3.0]]))
        assert k == 3 and per[0] == 3

    def test_bounds(self):
        rng = derive_rng(1)
        a = random_monotone(rng, 6, 4)
        k, per = count_levels(a)
        assert 4 <= k <= 24
        assert k == per.sum()

    def test_quantize_merges_near_ties(self):
        a = np.array([[1.0], [1.0 + 1e-12], [2.0]])
        assert count_levels(a)[0] == 3
        assert count_levels(a, quantize=1e-6)[0] == 2
        with pytest.raises(ValueError):
            count_levels(a, quantize=0.0)

    def test_row_permutation_invariant(self):
        rng = derive_rng(2)
        a = random_monotone(rng, 7, 3)
        p = Permutation.random(7, rng)
        assert count_levels(a)[0] == count_levels(permute_rows(p, a))[0]


class TestVariation:
    def test_equal_column_variations(self):
        a = np.array([[0.0, 1.0], [3.0, 4.0]])  # both columns vary by 3
        v, per = variation(a)
        assert np.array_equal(per, [3.0, 3.0])
        assert v == pytest.approx(3.0, rel=1e-12)

    def test_hand_evaluated_power_mean(self):
        a = np.array([[0.0, 0.0], [1.0, 8.0]])
        v, per = variation(a)
        assert np.array_equal(per, [1.0, 8.0])
        assert v == pytest.approx(2.5 ** 1.5, rel=1e-12)

    def test_constant_is_zero(self):
        v, _ = variation(np.full((3, 2), 7.0))
        assert v == 0.0

    def test_row_permutation_invariant(self):
        rng = derive_rng(3)
        a = random_monotone(rng, 6, 4)
        p = Permutation.random(6, rng)
        assert variation(a)[0] == variation(permute_rows(p, a))[0]


class TestRStatistic:
    def test_sparse_rows_is_one(self):
        a = draw_truth("sparse-rows", 6, 4, derive_rng(0))
        assert r_statistic(a) == pytest.approx(1.0, abs=1e-9)

    def test_identical_columns_is_one(self):
        a = draw_truth("identical-columns", 6, 4, derive_rng(0))
        assert r_statistic(a) == pytest.approx(1.0, abs=1e-9)

    def test_two_by_two_single_difference(self):
        assert r_statistic(np.array([[0.0, 0.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            r_statistic(np.array([[1.0], [0.0]]))

    def test_bounds_on_random_monotone(self):
        rng = derive_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 8))
            r = r_statistic(random_monotone(rng, n, m))
            assert 1.0 - 1e-9 <= r <= np.sqrt(m) + 1e-9

    def test_triangular_near_sqrt_n(self):
        a = draw_truth("triangular", 64, 64, derive_rng(0))
        r = r_statistic(a)
        assert 0.5 * np.sqrt(64) <= r <= np.sqrt(64)

    def test_pair_score_extremes(self):
        assert pair_score(np.array([0.0, 2.0, 0.0]), 3) == pytest.approx(1.0)
        assert pair_score(np.array([1.0, 1.0, 1.0]), 3) == pytest.approx(1.0)
        assert pair_score(np.zeros(3), 3) == 0.0
        # the squares of these differences overflow and underflow float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pair_score(np.array([1e200, 1e200]), 2) == 1.0
            assert pair_score(np.array([1e-170, 0.0]), 2) == 1.0

    def test_degenerate_all_rows_identical(self):
        a = np.full((4, 3), 1.0)
        assert r_statistic(a) == 0.0
        rep = complexity_report(a)
        assert rep.r_value == 1.0
        assert rep.r_degenerate

    # tiles of one row up to the whole matrix and triangle chunks of one
    # entry up to the default size; integer draws give ties and identical
    # rows, and "step-down" columns decrease by less than EPS
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 17, 64, 129, 257]),
           m=st.sampled_from([1, 2, 7, 64, 256]),
           kind=st.sampled_from(["normal", "integers", "identical", "step-down"]),
           tile_bytes=st.sampled_from([8, 24, 8 * 64, metrics._R_TILE_BYTES]),
           chunk_bytes=st.sampled_from([8, 80, 4096, metrics._R_CHUNK_BYTES]),
           seed=st.integers(0, 2**32 - 1))
    def test_r_statistic_matches_reference(self, n, m, kind, tile_bytes, chunk_bytes,
                                           seed):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            a = np.sort(rng.normal(size=(n, m)), axis=0)
        elif kind == "identical":
            a = np.repeat(rng.normal(size=(1, m)), n, axis=0)
        else:
            levels = np.sort(rng.integers(-2, 3, size=(max(1, n // 2), m)), axis=0)
            a = levels[np.sort(rng.integers(0, len(levels), size=n))] * 0.5
            if kind == "step-down":
                a = a - 5e-10 * (rng.random((n, m)) < 0.3)
        assert has_monotone_columns(a)
        with mock.patch.object(metrics, "_R_TILE_BYTES", tile_bytes), \
                mock.patch.object(metrics, "_R_CHUNK_BYTES", chunk_bytes):
            r = r_statistic(a)
        assert r == r_statistic_reference(a)
        if kind == "identical" or n == 1:
            assert r == 0.0

    # row differences whose squares underflow (2^-900) or overflow (2^600,
    # and past the float64 range at 2^1023); powers of two scale exactly
    @pytest.mark.parametrize("power", [-900, -600, 600, 1000, 1023])
    def test_scale_free_at_the_float64_edges(self, power):
        a = np.sort(derive_rng(21).uniform(-1.0, 1.0, size=(12, 5)), axis=0)
        r = r_statistic(a)
        assert r_statistic(a * 2.0**power) == pytest.approx(r, rel=1e-12)

    def test_tiny_row_differences(self):
        # found by the CLI fuzz: 0/0 scores made `metrics` crash
        a = np.array([[4.5e-232, 3.0e-251], [4.5e-232, 4.5e-232], [4.5e-232, 4.5e-232]])
        assert r_statistic(a) == pytest.approx(1.0)
        assert complexity_report(a).r_value == pytest.approx(1.0)

    def test_report_on_non_monotone(self):
        rep = complexity_report(np.array([[1.0], [0.0]]))
        assert rep.r_value is None
        assert not rep.r_degenerate
        assert rep.k_total == 2


class TestGap:
    def test_same_row_is_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert gap(a, 1, 1) == 0.0

    def test_max_beats_normalized_sum(self):
        a = np.array([[0.0, 0.0], [3.0, 1.0]])
        assert gap(a, 0, 1) == pytest.approx(3.0)

    def test_normalized_sum_beats_max(self):
        a = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        # max branch = 1, sum branch = 4/2 = 2
        assert gap(a, 0, 1) == pytest.approx(2.0)

    def test_ordered_monotone_rows_nonnegative(self):
        rng = derive_rng(5)
        a = random_monotone(rng, 8, 3)
        for i in range(7):
            assert gap(a, i, i + 1) >= 0.0

    def test_scaled_variant(self):
        a = np.array([[0.0, 0.0], [3.0, 1.0]])
        assert gap(a, 0, 1, scale="sigma-sqrt-m", sigma=2.0) == pytest.approx(
            3.0 / (2.0 * np.sqrt(2))
        )
        with pytest.raises(ValueError):
            gap(a, 0, 1, scale="sigma-sqrt-m")
        with pytest.raises(ValueError):
            gap(a, 0, 1, scale="nonsense")

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            gap(np.zeros((2, 2)), 0, 2)

    def test_abs_gap_is_norm_on_ordered_rows(self):
        # |gap(i, i2)| = max(linf, l1/sqrt(m)) of the row difference when rows
        # are ordered in a column-increasing matrix
        rng = derive_rng(6)
        a = random_monotone(rng, 6, 4)
        for i in range(5):
            for i2 in range(i + 1, 6):
                u = a[i2] - a[i]
                expected = max(np.max(np.abs(u)), np.sum(np.abs(u)) / 2.0)
                assert abs(gap(a, i, i2)) == pytest.approx(expected, rel=1e-12)
                assert gap(a, i2, i) <= gap(a, i, i2)

    def test_pairwise_matrix_matches_scalar(self):
        rng = derive_rng(7)
        a = rng.normal(size=(9, 4))
        g = pairwise_gaps(a)
        for l in range(9):
            for i in range(9):
                assert g[l, i] == pytest.approx(gap(a, l, i), abs=1e-12)

    # n around the 64-bit word boundary, m around the column-block size;
    # small integers times a scale give exact ties, and thresholds taken
    # from the gaps themselves put gaps exactly at t
    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 2, 63, 64, 65]),
           m=st.sampled_from([1, 3, 63, 64, 65, 129]),
           scale=st.sampled_from([1.0, 0.1, 0.3, 1e-3]),
           seed=st.integers(0, 2**32 - 1),
           pick=st.integers(0, 2**32 - 1))
    def test_gap_scores_match_pairwise_reference(self, n, m, scale, seed, pick):
        a = np.random.default_rng(seed).integers(-3, 4, size=(n, m)) * scale
        g = pairwise_gaps(a)
        at = float(g.ravel()[pick % g.size])
        for t in (0.0, at, np.nextafter(at, np.inf), -at):
            assert np.array_equal(gap_scores(a, t), np.count_nonzero(g >= t, axis=0))

    def test_gap_scores_overflowing_row_sums(self):
        # equal infinite row sums make reference gaps NaN (inf - inf)
        a = np.array([[1e308, 1e308], [1e308, 1e308], [-1e308, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            g = pairwise_gaps(a)
            for t in (0.0, 1.0, -np.inf, np.inf):
                assert np.array_equal(gap_scores(a, t), np.count_nonzero(g >= t, axis=0))

    def test_min_adjacent_row_gap(self):
        a = np.array([[0.0], [1.0], [5.0]])
        assert min_adjacent_row_gap(a) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            min_adjacent_row_gap(np.zeros((1, 2)))


class TestRearrangement:
    def test_perfect_match_all_zero(self):
        rng = derive_rng(8)
        a = random_monotone(rng, 5, 3)
        p = Permutation.random(5, rng)
        chk = rearrangement_check(a, a, p, p)
        assert chk.matrix_term == chk.perm_term == chk.total_term == 0.0
        assert chk.ok

    def test_same_permutation_isometry_exact(self):
        # integer-valued matrices make the two sums exactly equal
        a = np.array([[0.0], [1.0], [3.0]])
        a2 = np.array([[0.0], [2.0], [3.0]])
        p = Permutation(np.array([2, 0, 1]))
        chk = rearrangement_check(a, a2, p, p)
        assert chk.perm_term == 0.0
        assert chk.matrix_term == chk.total_term
        assert chk.ok

    def test_random_instances_always_ok(self):
        rng = derive_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 5))
            a = random_monotone(rng, n, m)
            a2 = random_monotone(rng, n, m)
            p = Permutation.random(n, rng)
            p2 = Permutation.random(n, rng)
            assert rearrangement_check(a, a2, p, p2).ok

    def test_rejects_non_monotone(self):
        bad = np.array([[1.0], [0.0]])
        good = np.array([[0.0], [1.0]])
        p = Permutation.identity(2)
        with pytest.raises(ValueError):
            rearrangement_check(bad, good, p, p)
        with pytest.raises(ValueError):
            rearrangement_check(good, bad, p, p)

    def test_terms_match_direct_frobenius(self):
        rng = derive_rng(10)
        a = random_monotone(rng, 4, 2)
        a2 = random_monotone(rng, 4, 2)
        p = Permutation.random(4, rng)
        p2 = Permutation.random(4, rng)
        chk = rearrangement_check(a, a2, p, p2)
        assert chk.matrix_term == frobenius_sq_dist(a2, a)
        assert chk.total_term == frobenius_sq_dist(
            permute_rows(p2, a2), permute_rows(p, a)
        )
