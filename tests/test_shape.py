import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    antitonic_fit_reference,
    dykstra_cone_projection,
    fixed_mode_fit_reference,
    isotonic_fit_reference,
    prefix_isotonic_errors_reference,
    unimodal_fit_reference,
)

from seriation.core import EPS, derive_rng
from seriation.shape import (
    MONOTONE,
    UNIMODAL,
    ShapeSpec,
    antitonic_fit,
    fixed_mode,
    fixed_mode_fit,
    is_increasing,
    isotonic_fit,
    prefix_isotonic_errors,
    project_columns,
    satisfies,
    unimodal_fit,
)

entries = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
vectors = st.integers(1, 8).flatmap(lambda n: arrays(np.float64, n, elements=entries))


def random_cone_point(rng, n, l):
    """A random feasible point of the fixed-mode cone at l (1-based)."""
    up = np.sort(rng.uniform(-10, 10, size=l))
    down = np.minimum(np.sort(rng.uniform(-10, 10, size=n - l))[::-1], up[-1])
    return np.concatenate([up, down])


class TestIsotonic:
    def test_already_increasing(self):
        fit = isotonic_fit([1.0, 2.0, 3.0])
        assert np.array_equal(fit.fitted, [1.0, 2.0, 3.0])
        assert fit.sse == 0.0

    def test_pools_to_single_block(self):
        fit = isotonic_fit([3.0, 1.0, 2.0])
        assert np.allclose(fit.fitted, [2.0, 2.0, 2.0])
        assert fit.sse == pytest.approx(2.0, abs=1e-12)

    def test_two_violating_pairs(self):
        fit = isotonic_fit([5.0, 5.0, 1.0, 1.0])
        assert np.allclose(fit.fitted, [3.0, 3.0, 3.0, 3.0])
        assert fit.sse == pytest.approx(16.0, abs=1e-12)

    def test_block_values_are_input_means(self):
        y = derive_rng(1).normal(size=20)
        fit = isotonic_fit(y)
        # recover blocks and check each value is the mean of its inputs
        start = 0
        for i in range(1, 21):
            if i == 20 or fit.fitted[i] != fit.fitted[start]:
                assert fit.fitted[start] == pytest.approx(np.mean(y[start:i]), rel=1e-12)
                start = i

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            isotonic_fit([])

    def test_single_element(self):
        fit = isotonic_fit([7.0])
        assert fit.fitted[0] == 7.0 and fit.sse == 0.0


class TestAntitonic:
    def test_already_decreasing(self):
        fit = antitonic_fit([3.0, 2.0, 1.0])
        assert np.array_equal(fit.fitted, [3.0, 2.0, 1.0])

    def test_one_violation_pools(self):
        fit = antitonic_fit([1.0, 3.0])
        assert np.allclose(fit.fitted, [2.0, 2.0])
        assert fit.sse == pytest.approx(2.0, abs=1e-12)

    @given(vectors)
    def test_reverse_of_isotonic(self, y):
        assert np.array_equal(
            antitonic_fit(y).fitted, isotonic_fit(y[::-1]).fitted[::-1]
        )


class TestFixedMode:
    def test_already_in_cone(self):
        fit = fixed_mode_fit([1.0, 3.0, 2.0], 2)
        assert np.array_equal(fit.fitted, [1.0, 3.0, 2.0])
        assert fit.sse == 0.0

    def test_peak_first(self):
        fit = fixed_mode_fit([2.0, 1.0, 2.0], 1)
        assert np.allclose(fit.fitted, [2.0, 1.5, 1.5])
        assert fit.sse == pytest.approx(0.5, rel=1e-12)

    def test_peak_last(self):
        fit = fixed_mode_fit([2.0, 1.0, 2.0], 3)
        assert np.allclose(fit.fitted, [1.5, 1.5, 2.0])
        assert fit.sse == pytest.approx(0.5, rel=1e-12)

    def test_coupling_binds(self):
        # both neighbors pull the peak down: all three pool
        fit = fixed_mode_fit([2.0, 1.0, 2.0], 2)
        assert np.allclose(fit.fitted, [5 / 3, 5 / 3, 5 / 3])
        assert fit.sse == pytest.approx(2 / 3, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fixed_mode_fit([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            fixed_mode_fit([1.0, 2.0], 3)

    def test_matches_dykstra(self):
        rng = derive_rng(11)
        groups = {}
        for _ in range(60):
            n = int(rng.integers(1, 9))
            l = int(rng.integers(1, n + 1))
            groups.setdefault((n, l), []).append(rng.uniform(-1, 1, size=n))
        for (n, l), ys in groups.items():
            approx = dykstra_cone_projection(np.array(ys), l, iters=3000)
            for y, ref in zip(ys, approx):
                assert np.max(np.abs(fixed_mode_fit(y, l).fitted - ref)) < 1e-6

    def test_beats_random_feasible_points(self):
        rng = derive_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            l = int(rng.integers(1, n + 1))
            y = rng.uniform(-5, 5, size=n)
            fit = fixed_mode_fit(y, l)
            for _ in range(200):
                z = random_cone_point(rng, n, l)
                assert fit.sse <= np.sum((z - y) ** 2) + 1e-9


class TestUnimodal:
    def test_already_unimodal(self):
        fit = unimodal_fit([1.0, 3.0, 2.0])
        assert np.array_equal(fit.fitted, [1.0, 3.0, 2.0])
        assert fit.sse == 0.0
        assert fit.mode == 2

    def test_tie_broken_to_smaller_mode(self):
        fit = unimodal_fit([2.0, 1.0, 2.0])
        assert np.allclose(fit.fitted, [2.0, 1.5, 1.5])
        assert fit.sse == pytest.approx(0.5, rel=1e-12)
        assert fit.mode == 1

    def test_tied_splits_take_the_smallest(self):
        # splits 2 to 5 all cost 0.5 and split 1 costs 1; split 4 would fit
        # [0, 0, 0.5, 0.5, 1]
        fit = unimodal_fit([0.0, 0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(fit.fitted, [0.0, 0.0, 1.0, 0.5, 0.5])
        assert fit.sse == 0.5
        assert fit.mode == 3

    def test_nan_split_error_never_wins(self):
        # the error of split 4 overflows to inf; split 1 is the first of
        # the rest
        assert unimodal_fit([1e308, 1e308, -1e308, -1e308]).mode == 1

    def test_overflowing_pool_keeps_the_exact_fit(self):
        # the running weighted sums of the tied +-1e308 entries overflow, but
        # their means do not; an already unimodal vector fits itself
        y = [1e308, 1e308, -1e308, -1e308]
        fit = unimodal_fit(y)
        assert np.array_equal(fit.fitted, y)
        assert fit.sse == 0.0
        assert np.array_equal(isotonic_fit([1e308, 1e308]).fitted, [1e308, 1e308])
        assert np.array_equal(prefix_isotonic_errors([1e308, 1e308]), [0.0, 0.0])

    def test_unrepresentable_error_is_rejected(self):
        # every unimodal fit of this vector is about 1e616 away from it
        y = [1.0, 1e308, -1e308, 3.0, 2.0]
        with pytest.raises(ValueError, match="overflow"):
            unimodal_fit(y)
        assert prefix_isotonic_errors(y)[-1] == np.inf

    def test_increasing_has_last_mode(self):
        fit = unimodal_fit([1.0, 2.0, 3.0])
        assert np.array_equal(fit.fitted, [1.0, 2.0, 3.0])
        assert fit.sse == 0.0
        assert fit.mode == 3

    def test_constant_input_mode_one(self):
        fit = unimodal_fit([4.0, 4.0, 4.0])
        assert np.array_equal(fit.fitted, [4.0, 4.0, 4.0])
        assert fit.mode == 1

    @given(vectors)
    @settings(max_examples=300)
    def test_attains_min_over_fixed_modes(self, y):
        fit = unimodal_fit(y)
        sses = {l: fixed_mode_fit(y, l).sse for l in range(1, y.size + 1)}
        best = min(sses.values())
        slack = 1e-10 * (1.0 + best)
        assert abs(fit.sse - best) <= slack
        # the reported mode attains the minimum, and no smaller one beats it
        assert sses[fit.mode] <= fit.sse + slack
        for l in range(1, fit.mode):
            assert sses[l] >= fit.sse - slack
        assert satisfies(fit.fitted, fixed_mode(fit.mode), tol=EPS)

    def test_prefix_errors_match_direct_fits(self):
        y = derive_rng(13).normal(size=12)
        errs = prefix_isotonic_errors(y)
        for j in range(12):
            assert errs[j] == pytest.approx(isotonic_fit(y[:j + 1]).sse, abs=1e-10)


class TestProjectColumns:
    def test_fixed_point_on_monotone(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(project_columns(a, MONOTONE), a)

    def test_single_column_matches_vector_fit(self):
        y = derive_rng(14).normal(size=9)
        out = project_columns(y[:, None], MONOTONE)
        assert np.allclose(out[:, 0], isotonic_fit(y).fitted, atol=1e-12)
        out_u = project_columns(y[:, None], UNIMODAL)
        assert np.array_equal(out_u[:, 0], unimodal_fit(y).fitted)

    def test_per_column_example(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        out = project_columns(a, MONOTONE)
        assert np.allclose(out[:, 0], [2.0, 2.0, 2.0])
        assert np.allclose(out[:, 1], [1.0, 2.0, 3.0])

    def test_scipy_path_matches_own_pava(self):
        a = derive_rng(15).normal(size=(40, 7))
        out = project_columns(a, MONOTONE)
        for j in range(7):
            assert np.allclose(out[:, j], isotonic_fit(a[:, j]).fitted, atol=1e-12)

    def test_fixed_mode_shape(self):
        a = derive_rng(16).normal(size=(5, 3))
        out = project_columns(a, fixed_mode(2))
        for j in range(3):
            assert np.array_equal(out[:, j], fixed_mode_fit(a[:, j], 2).fitted)

    def test_overflowing_monotone_projection_is_rejected(self):
        # scipy's pooled sum of the tied entries overflows to inf; the
        # unimodal path redoes it as a weighted mean and fits exactly
        a = np.array([[1e308], [1e308]])
        with pytest.raises(ValueError, match="overflow"):
            project_columns(a, MONOTONE)
        assert np.array_equal(project_columns(a, UNIMODAL), a)


# Entries that stress the sweep: ties on a small-integer grid, pooled sums
# that overflow near +-1e308, squares that underflow near 1e-300.
_grid = st.integers(-3, 3).map(float)
_extreme = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
)
_wide = st.floats(allow_nan=False, allow_infinity=False)
_stress_vectors = st.integers(1, 24).flatmap(
    lambda n: st.one_of(
        arrays(np.float64, n, elements=_grid),
        arrays(np.float64, n, elements=st.one_of(_grid, _extreme)),
        arrays(np.float64, n, elements=st.one_of(_grid, _extreme, entries, _wide)),
    )
)


def _outcome(fit, *args):
    """What a fit reports, as comparable bytes, or the error it raised."""
    try:
        out = fit(*args)
    except ValueError as e:
        return ("ValueError", str(e))
    if not isinstance(out, tuple):
        out = (out.fitted, out.sse) + ((out.mode,) if out.mode is not None else ())
    return (out[0].tobytes(),) + out[1:]


class TestAgainstReference:
    """Every fit read back from the one sweep equals, to the bit, the
    separate merge loops it replaced (``tests/oracles.py``)."""

    @given(_stress_vectors)
    @settings(max_examples=400, deadline=None)
    def test_vector_fits_are_bitwise_equal(self, y):
        assert _outcome(isotonic_fit, y) == _outcome(isotonic_fit_reference, y)
        assert _outcome(antitonic_fit, y) == _outcome(antitonic_fit_reference, y)
        assert _outcome(unimodal_fit, y) == _outcome(unimodal_fit_reference, y)
        for l in range(1, y.size + 1):
            assert _outcome(fixed_mode_fit, y, l) == _outcome(fixed_mode_fit_reference, y, l)
        assert (
            prefix_isotonic_errors(y).tobytes()
            == prefix_isotonic_errors_reference(y).tobytes()
        )

    @given(_stress_vectors)
    @settings(max_examples=200, deadline=None)
    def test_unimodal_columns_are_bitwise_equal(self, y):
        a = np.column_stack([y, y[::-1], np.sort(y)])
        try:
            expected = np.column_stack(
                [unimodal_fit_reference(np.ascontiguousarray(c))[0] for c in a.T]
            )
        except ValueError:
            with pytest.raises(ValueError, match="overflow"):
                project_columns(a, UNIMODAL)
        else:
            assert project_columns(a, UNIMODAL).tobytes() == expected.tobytes()


class TestDykstra:
    def test_fixed_point(self):
        y = np.array([[1.0, 3.0, 2.0, 0.5]])
        out = dykstra_cone_projection(y, 2, iters=10)
        assert np.allclose(out, y, atol=1e-12)

    def test_documented_example(self):
        out = dykstra_cone_projection(np.array([[2.0, 1.0, 2.0]]), 1, iters=10_000)
        assert np.max(np.abs(out[0] - np.array([2.0, 1.5, 1.5]))) < 1e-6

    def test_single_element(self):
        assert dykstra_cone_projection(np.array([[5.0]]), 1, iters=3)[0, 0] == 5.0

    def test_bad_iters(self):
        with pytest.raises(ValueError):
            dykstra_cone_projection(np.array([[1.0]]), 1, iters=0)

    def test_bad_mode_or_batch(self):
        with pytest.raises(ValueError):
            dykstra_cone_projection(np.array([[1.0, 2.0]]), 3)
        with pytest.raises(ValueError):
            dykstra_cone_projection(np.array([1.0, 2.0]), 1)

    def test_batched_isotonic_matches_pava(self):
        # with l = n the decreasing chain is one entry, so a single iteration
        # is exactly the minimax isotonic fit of every row
        rng = derive_rng(18)
        ys = rng.normal(size=(200, 8))
        fits = dykstra_cone_projection(ys, 8, iters=1)
        for i in range(0, 200, 11):
            assert np.allclose(fits[i], isotonic_fit(ys[i]).fitted, atol=1e-10)


class TestConeProperties:
    @given(vectors)
    @settings(max_examples=150)
    def test_idempotent(self, y):
        for fitter in (isotonic_fit, antitonic_fit, unimodal_fit):
            first = fitter(y).fitted
            again = fitter(first)
            assert np.max(np.abs(again.fitted - first)) <= EPS
            assert again.sse <= EPS

    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=entries),
        arrays(np.float64, n, elements=entries),
        st.integers(1, n))))
    @settings(max_examples=150)
    def test_contraction(self, args):
        y1, y2, l = args
        dist = np.linalg.norm(y1 - y2)
        for fitter in (lambda v: isotonic_fit(v), lambda v: fixed_mode_fit(v, l)):
            f1, f2 = fitter(y1).fitted, fitter(y2).fitted
            assert np.linalg.norm(f1 - f2) <= dist + 1e-9

    def test_pythagoras_inner_product(self):
        # <y - fit, z - fit> <= 0 for every z in the cone (convex cones only)
        rng = derive_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            l = int(rng.integers(1, n + 1))
            y = rng.uniform(-5, 5, size=n)
            for fitted, sample in (
                (isotonic_fit(y).fitted, lambda: np.sort(rng.uniform(-10, 10, n))),
                (fixed_mode_fit(y, l).fitted, lambda: random_cone_point(rng, n, l)),
            ):
                for _ in range(50):
                    z = sample()
                    assert np.dot(y - fitted, z - fitted) <= EPS

    @given(st.tuples(vectors, st.floats(-100, 100)))
    @settings(max_examples=150)
    def test_translation_equivariance(self, args):
        y, c = args
        shifted = isotonic_fit(y + c).fitted
        assert np.max(np.abs(shifted - (isotonic_fit(y).fitted + c))) <= 1e-9
        l = 1 + y.size // 2
        shifted = fixed_mode_fit(y + c, l).fitted
        assert np.max(np.abs(shifted - (fixed_mode_fit(y, l).fitted + c))) <= 1e-9

    @given(vectors)
    @settings(max_examples=200)
    def test_fits_satisfy_their_constraints(self, y):
        assert is_increasing(isotonic_fit(y).fitted, tol=0.0)
        assert is_increasing(antitonic_fit(y).fitted[::-1], tol=0.0)
        u = unimodal_fit(y)
        assert satisfies(u.fitted, fixed_mode(u.mode), tol=0.0)

    def test_monotone_beats_random_feasible(self):
        rng = derive_rng(20)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            y = rng.uniform(-5, 5, size=n)
            fit = isotonic_fit(y)
            for _ in range(200):
                z = np.sort(rng.uniform(-10, 10, size=n))
                assert fit.sse <= np.sum((z - y) ** 2) + 1e-9


class TestShapeSpec:
    def test_fixed_mode_requires_mode(self):
        with pytest.raises(ValueError):
            ShapeSpec("fixed-mode")
        with pytest.raises(ValueError):
            ShapeSpec("monotone", mode=2)
        with pytest.raises(ValueError):
            ShapeSpec("nonsense")
