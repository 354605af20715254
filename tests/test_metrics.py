import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import r_statistic_reference

from seriation import core, metrics, shape
from seriation.core import Permutation, derive_rng, frobenius_sq_dist, permute_rows
from seriation.metrics import (
    complexity_report,
    count_levels,
    gap,
    gap_scores,
    min_adjacent_row_gap,
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

    @pytest.mark.parametrize("width", [np.nan, np.inf, -1.0, 0.0])
    def test_quantize_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="finite and > 0"):
            count_levels(np.array([[0.0], [1.0]]), quantize=width)

    @pytest.mark.parametrize("width", ["x", "1", [1.0], True])
    def test_quantize_width_must_be_a_real_number(self, width):
        with pytest.raises(ValueError, match="real number"):
            count_levels(np.array([[0.0], [1.0]]), quantize=width)

    # a width so small, or an entry so large, that a / quantize overflows
    @pytest.mark.parametrize("entry, width", [(1.0, 1e-310), (1e308, 0.5)])
    def test_quantize_quotient_must_be_finite(self, entry, width):
        with pytest.raises(ValueError, match="overflow"):
            count_levels(np.array([[0.0], [entry]]), quantize=width)

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
        # R of the rows 0 * u and |u| is the score of their one pair, through
        # the same path as any pair, far ones included
        def score(u):
            return r_statistic(np.stack([0.0 * u, np.abs(u)]))

        assert score(np.array([0.0, 2.0, 0.0])) == pytest.approx(1.0)
        assert score(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0)
        assert score(np.zeros(3)) == 0.0
        # the squares of these differences overflow and underflow float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score(np.array([1e200, 1e200])) == 1.0
            assert score(np.array([1e-170, 0.0])) == 1.0
            # ||u||_inf = 2^499 squares finely, but m ||u||^2 and ||u||_1^2
            # overflow: the unscaled score would be inf / inf
            assert score(np.full(8192, 2.0**499)) == 1.0

    def test_degenerate_all_rows_identical(self):
        a = np.full((4, 3), 1.0)
        assert r_statistic(a) == 0.0
        rep = complexity_report(a)
        assert rep.r_value == 1.0
        assert rep.r_degenerate

    # tiles of a few rows up to the whole matrix, triangle chunks of one
    # entry up to the default size (which also bound the rows per block) and
    # one to three scoring threads; integer draws give ties and identical
    # rows, and "step-down" columns decrease by less than EPS
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 17, 64, 129, 257]),
           m=st.sampled_from([1, 2, 7, 64, 256]),
           kind=st.sampled_from(["normal", "integers", "identical", "step-down"]),
           tile_bytes=st.sampled_from([8, 24, 8 * 64, core._ROW_BLOCK_BYTES]),
           chunk_bytes=st.sampled_from([8, 80, 4096, metrics._R_CHUNK_BYTES]),
           workers=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_r_statistic_matches_reference(self, n, m, kind, tile_bytes, chunk_bytes,
                                           workers, seed):
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
        with mock.patch.object(core, "_ROW_BLOCK_BYTES", tile_bytes), \
                mock.patch.object(metrics, "_R_CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(metrics, "_R_WORKERS", workers):
            r = r_statistic(a)
        assert r == r_statistic_reference(a)
        if kind == "identical" or n == 1:
            assert r == 0.0

    # an EPS-sized negative step is column-increasing within EPS, so its
    # differences go through abs; a step from +0.0 down to -0.0 is not
    # negative, so those differences are taken as they are, -0.0 included
    @pytest.mark.parametrize("step", ["eps-down", "signed-zero"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_on_both_difference_paths(self, step, workers):
        a = np.sort(derive_rng(22).integers(-2, 3, size=(70, 6)), axis=0) * 0.5
        if step == "eps-down":
            a[40:, 2] -= 5e-10
        else:
            a[:, 4] = np.where(np.arange(70) < 35, 0.0, -0.0)
        assert has_monotone_columns(a) and \
            has_monotone_columns(a, tol=0.0) == (step == "signed-zero")
        with mock.patch.object(metrics, "_R_WORKERS", workers), \
                mock.patch.object(core, "_ROW_BLOCK_BYTES", 8 * 6 * 3):
            assert r_statistic(a) == r_statistic_reference(a)

    # more threads than cores, switching as often as the interpreter allows:
    # a row scored twice or never would change the bits
    def test_bits_with_more_threads_than_cores(self):
        a = np.sort(derive_rng(23).normal(size=(200, 9)), axis=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(metrics, "_R_WORKERS", 7), \
                    mock.patch.object(core, "_ROW_BLOCK_BYTES", 8 * 9 * 2):
                r = r_statistic(a)
        finally:
            sys.setswitchinterval(interval)
        assert r == r_statistic_reference(a)

    # a scoring thread's exception reaches the caller as itself, and so does
    # the calling thread's own; neither leaves a thread running
    @pytest.mark.parametrize("where", ["scoring thread", "calling thread"])
    def test_kernel_exception_reaches_the_caller(self, where):
        a = np.sort(derive_rng(24).normal(size=(100, 4)), axis=0)
        raised = []
        kernel = metrics._score_row

        def failing(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (where == "calling thread"):
                raised.append(RuntimeError(f"kernel failed on the {where}"))
                raise raised[-1]
            if not raised:
                threading.Event().wait(0.01)  # the other thread takes a row meanwhile
            kernel(*args)

        threads = threading.active_count()
        with mock.patch.object(metrics, "_R_WORKERS", 2), \
                mock.patch.object(metrics, "_score_row", failing), \
                pytest.raises(RuntimeError) as caught:
            r_statistic(a)
        assert caught.value is raised[0]
        assert threading.active_count() == threads

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

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            gap(np.zeros((2, 2)), 0, 2)

    def test_checks_only_the_rows_read(self):
        # gap reads two rows in O(m); a NaN elsewhere is not its input
        a = np.array([[0.0, 0.0], [1.0, 2.0], [np.nan, 0.0]])
        assert gap(a, 0, 1) == pytest.approx(3.0 / np.sqrt(2.0))
        for i, i2 in ((2, 0), (0, 2), (2, 2)):
            with pytest.raises(ValueError, match="non-finite"):
                gap(a, i, i2)

    @pytest.mark.parametrize("a, i, i2", [
        (np.zeros(3), 0, 1), (np.zeros((2, 2, 2)), 0, 1), (np.zeros((2, 2)), 0.5, 1),
        (np.zeros((2, 2)), True, 1), (np.zeros((2, 2)), 0, "1"), (np.zeros((2, 2)), -1, 0),
    ])
    def test_malformed_arguments_are_value_errors(self, a, i, i2):
        with pytest.raises(ValueError):
            gap(a, i, i2)

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

    # pairwise_gaps subtracts pre-divided row sums where gap divides the
    # summed difference: the column branch is the same float, so the two
    # agree exactly where it wins in both, and elsewhere up to the rounding
    # of two sums of m terms, a division and a subtraction
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 11), m=st.integers(1, 11),
           scale=st.sampled_from([1.0, 1e-3, 1e6]),
           seed=st.integers(0, 2**32 - 1))
    def test_pairwise_gaps_relation_to_gap(self, n, m, scale, seed):
        a = np.random.default_rng(seed).normal(size=(n, m)) * scale
        g = pairwise_gaps(a)
        rowsum = a.sum(axis=1) / np.sqrt(m)
        eps = np.finfo(np.float64).eps
        for l in range(n):
            for i in range(n):
                col = np.max(a[i] - a[l])
                by_rows = rowsum[i] - rowsum[l]
                by_diff = np.sum(a[i] - a[l]) / np.sqrt(m)
                assert g[l, i] == max(col, by_rows)
                assert gap(a, l, i) == max(col, by_diff)
                if by_rows <= col and by_diff <= col:
                    assert g[l, i] == gap(a, l, i)
                else:
                    size = (np.abs(a[i]).sum() + np.abs(a[l]).sum()) / np.sqrt(m)
                    assert abs(g[l, i] - gap(a, l, i)) <= 2 * (m + 1) * eps * size

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

    # most columns spread less than 1 and hold no gap of the thresholds
    # below; a few carry steps of 8 or 16. Thresholds sit exactly at a
    # column's or the row-sum branch's fl(max - min) and one ulp either side,
    # so the spread filter must keep a column whose spread equals t
    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 2, 63, 64, 65, 129]),
           m=st.sampled_from([1, 3, 64, 65]),
           stepped=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1),
           pick=st.integers(0, 2**32 - 1))
    def test_gap_scores_with_dead_columns(self, n, m, stepped, seed, pick):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=(n, m)) * 0.25 + rng.uniform(0.0, 0.2, size=(n, m))
        live = rng.choice(m, size=min(stepped, m), replace=False)
        a[:, live] += rng.integers(0, 3, size=(n, live.size)) * 8.0
        g = pairwise_gaps(a)
        rowsum = a.sum(axis=1) / np.sqrt(m)
        spreads = a.max(axis=0) - a.min(axis=0)
        picked = [spreads[pick % m], rowsum.max() - rowsum.min(), *spreads[live]]
        for s in picked:
            for t in (s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf)):
                assert np.array_equal(gap_scores(a, t), np.count_nonzero(g >= t, axis=0))

    # n across the 64-bit word boundary and blocks of one and three columns;
    # a threshold above 0 stops every prefix short of n, and on the ranks
    # the longest prefix is n - t: 63, 64 and 65 rows among them
    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("block", [1, 3])
    def test_gap_scores_short_prefixes(self, n, block, monkeypatch):
        # panels of `block` columns of n rows
        monkeypatch.setattr(shape, "_PANEL_BYTES", 8 * n * block)
        rng = np.random.default_rng(n)
        ranks = np.argsort(rng.random((7, n)), axis=1).T.astype(np.float64)
        # one 10 per row and column: every row sum is 10 / sqrt(n), so the
        # row-sum branch is dead at any threshold above 0
        cases = [(ranks, t) for t in (1.0, n - 65.0, n - 64.0, n - 63.0, n - 2.0) if t > 0]
        cases += [(10.0 * np.eye(n), t) for t in (1e-300, 10.0)]
        for a, t in cases:
            g = pairwise_gaps(a)
            longest = max(np.count_nonzero(a[i, j] - a[:, j] >= t)
                          for i in range(n) for j in range(a.shape[1]))
            assert longest < n
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
        # the column branch is -0.0 and numpy sums the row difference to 0.0:
        # gap keeps the column branch on the tie, and so must the vector form
        z = np.array([[0.0, 0.0], [-0.0, -0.0]])
        assert np.signbit(gap(z, 0, 1)) and np.signbit(min_adjacent_row_gap(z))

    # small integers give ties between the branches and between rows, and
    # signed zeros; the result must be the scalar loop's float to the bit
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 12), m=st.integers(1, 12),
           scale=st.sampled_from([1.0, 0.1, -0.0, 1e-300, 1e300]),
           seed=st.integers(0, 2**32 - 1))
    def test_min_adjacent_row_gap_equals_scalar_loop(self, n, m, scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-2, 3, size=(n, m)) * scale
        if seed % 2:
            a = a + rng.normal(size=(n, m)) * abs(scale)
        expected = min(gap(a, i, i + 1) for i in range(n - 1))
        got = min_adjacent_row_gap(a)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


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

    # blocks of one row up to the default size, and the one-pass branch of
    # equal permutations; every term is the float of the formula that forms
    # the permuted matrices
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 4, 63, 65]),
           m=st.sampled_from([1, 2, 7, 33]),
           same=st.booleans(),
           block_bytes=st.sampled_from([8, 8 * 7, core._ROW_BLOCK_BYTES]),
           seed=st.integers(0, 2**32 - 1))
    def test_terms_match_direct_frobenius(self, n, m, same, block_bytes, seed):
        rng = np.random.default_rng(seed)
        a = random_monotone(rng, n, m)
        a2 = random_monotone(rng, n, m, scale=float(rng.uniform(0.5, 2.0)))
        p = Permutation.random(n, rng)
        p2 = p if same else Permutation.random(n, rng)
        with mock.patch.object(core, "_ROW_BLOCK_BYTES", block_bytes):
            chk = rearrangement_check(a, a2, p, p2)
        target = permute_rows(p, a)
        assert chk.matrix_term == frobenius_sq_dist(a2, a)
        assert chk.perm_term == frobenius_sq_dist(permute_rows(p2, a), target)
        assert chk.total_term == frobenius_sq_dist(permute_rows(p2, a2), target)

    def test_rejects_wrong_length_permutation(self):
        a = np.array([[0.0], [1.0], [2.0]])
        p = Permutation.identity(3)
        for wrong in (Permutation.identity(2), Permutation(np.array([1, 0, 3, 2]))):
            with pytest.raises(ValueError, match="permutation length"):
                rearrangement_check(a, a, p, wrong)
            with pytest.raises(ValueError, match="permutation length"):
                rearrangement_check(a, a, wrong, p)
