import tracemalloc
from unittest import mock

import numpy as np
import pytest

from seriation import core
from seriation import shape as shape_module
from seriation.core import Permutation, derive_rng, permute_rows, write_matrix_csv
from seriation.experiments import ExperimentConfig, run_experiment
from seriation.metrics import count_levels, r_statistic, variation
from seriation.shape import has_monotone_columns
from seriation.synth import (
    FAMILIES,
    check_noise,
    draw_noise,
    draw_truth,
    gen_noise,
    gen_observation,
    gen_permutation,
    gen_truth,
    _observe,
)


class TestTruthFamilies:
    def test_sparse_rows_exact(self):
        a = gen_truth("sparse-rows", 3, 2)
        s = np.sqrt(2.0)
        assert np.allclose(a, [[s, 0.0], [2 * s, 0.0], [3 * s, 0.0]], rtol=1e-15)

    def test_identical_columns_exact(self):
        a = gen_truth("identical-columns", 2, 3)
        assert np.array_equal(a, [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]])

    def test_triangular_exact(self):
        a = gen_truth("triangular", 3, 3)
        assert np.array_equal(a, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
        assert count_levels(a)[0] == 5

    def test_triangular_level_count_scales(self):
        for n in (2, 5, 17):
            a = gen_truth("triangular", n, n)
            assert count_levels(a)[0] == 2 * n - 1

    def test_all_families_monotone(self):
        rng = derive_rng(0)
        for family in FAMILIES:
            if family == "custom":
                continue
            for _ in range(5):
                n = int(rng.integers(5, 20))
                m = int(rng.integers(1, 6))
                a = draw_truth(family, n, m, rng)
                assert has_monotone_columns(a, tol=0.0), family

    def test_draw_scratch_is_a_fraction_of_the_matrix(self):
        # the result, check_matrix's bool mask (1/8 matrix) and one block of
        # row differences for the monotone check: 1.14 matrices measured at
        # 512^2, where one whole-matrix np.diff and its mask took 2.12
        rng = derive_rng(0)
        tracemalloc.start()
        try:
            a = draw_truth("random-v-bounded", 512, 512, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * a.nbytes

    def test_v_bounded_variation(self):
        a = gen_truth("random-v-bounded", 50, 8, seed=3)
        v, per = variation(a)
        assert np.all(per <= 1.0)
        assert v <= 1.0

    def test_k_blocks_level_count(self):
        a = gen_truth("random-k-blocks", 23, 6, seed=4, blocks=5)
        k, per = count_levels(a)
        assert np.all(per == 5)
        assert k == 30

    def test_k_blocks_sizes_larger_first(self):
        a = gen_truth("random-k-blocks", 7, 1, seed=5, blocks=5)
        col = a[:, 0]
        sizes = []
        start = 0
        for i in range(1, 8):
            if i == 7 or col[i] != col[start]:
                sizes.append(i - start)
                start = i
        assert sizes == [2, 2, 1, 1, 1]

    def test_blocks_exceeding_rows_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            gen_truth("random-k-blocks", 3, 2, blocks=5)

    def test_sparse_and_identical_have_unit_r(self):
        assert r_statistic(gen_truth("sparse-rows", 8, 5)) == \
            pytest.approx(1.0, abs=1e-9)
        assert r_statistic(gen_truth("identical-columns", 8, 5)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_seed_determinism(self):
        for family in ("random-v-bounded", "random-k-blocks"):
            a = gen_truth(family, 12, 4, seed=42)
            b = gen_truth(family, 12, 4, seed=42)
            c = gen_truth(family, 12, 4, seed=43)
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_custom_roundtrip(self, tmp_path):
        path = tmp_path / "a.csv"
        truth = gen_truth("random-v-bounded", 4, 2, seed=1)
        write_matrix_csv(truth, path)
        loaded = gen_truth("custom", 4, 2, path=str(path))
        assert np.array_equal(loaded, truth)

    def test_custom_rejects_non_monotone(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_matrix_csv(np.array([[1.0], [0.0]]), path)
        with pytest.raises(ValueError, match="non-increasing"):
            gen_truth("custom", 2, 1, path=str(path))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_truth("florp", 2, 2)
        with pytest.raises(ValueError, match="unknown family"):
            draw_truth("florp", 2, 2, derive_rng(0))

    @pytest.mark.parametrize("args, match", [
        (("triangular", 0, 2), "n and m"),
        (("triangular", 2, 0), "n and m"),
        (("triangular", 2, 2, 0, 0), "blocks"),
        (("custom", 2, 2), "path"),
    ])
    def test_invalid_arguments_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            gen_truth(*args)


class TestNoise:
    def test_none_is_zero(self):
        assert not gen_noise("none", 1.0, 4, 3).any()

    def test_seed_determinism(self):
        a = gen_noise("gaussian", 1.0, 5, 5, seed=7)
        b = gen_noise("gaussian", 1.0, 5, 5, seed=7)
        assert np.array_equal(a, b)

    def test_gaussian_moments_at_scale(self):
        z = gen_noise("gaussian", 1.0, 1000, 1000, seed=8)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_rademacher_values(self):
        z = gen_noise("rademacher", 0.5, 20, 20, seed=9)
        assert set(np.unique(z)) == {-0.5, 0.5}
        assert abs(z.mean()) < 0.2

    def test_sigma_zero(self):
        assert not gen_noise("gaussian", 0.0, 3, 3, seed=1).any()

    def test_invalid_specs(self):
        rng = derive_rng(0)
        with pytest.raises(ValueError, match="noise kind"):
            check_noise("weird", 1.0)
        with pytest.raises(ValueError, match="noise kind"):
            gen_noise("weird", 1.0, 2, 2)
        for sigma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                check_noise("gaussian", sigma)
            with pytest.raises(ValueError, match="finite"):
                draw_noise("rademacher", sigma, 2, 2, rng)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "none"])
    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0), (-1, 2)])
    def test_empty_size_rejected(self, kind, n, m):
        # the size check of draw_truth: no empty noise matrix is drawn
        with pytest.raises(ValueError, match="n and m must be >= 1"):
            draw_noise(kind, 1.0, n, m, derive_rng(0))
        with pytest.raises(ValueError, match="n and m must be >= 1"):
            gen_noise(kind, 1.0, n, m)


class TestObservation:
    def test_identity_no_noise(self):
        truth = gen_truth("identical-columns", 4, 2)
        y = gen_observation(truth, Permutation.identity(4), np.zeros((4, 2)))
        assert np.array_equal(y, truth)

    def test_permute_then_unpermute(self):
        rng = derive_rng(10)
        truth = gen_truth("random-v-bounded", 6, 3, seed=11)
        p = Permutation.random(6, rng)
        y = gen_observation(truth, p, np.zeros((6, 3)))
        from seriation.core import inverse

        assert np.array_equal(permute_rows(inverse(p), y), truth)

    def test_noise_is_reproducible_algebraically(self):
        truth = gen_truth("random-v-bounded", 5, 4, seed=12)
        p = gen_permutation(5, seed=13)
        z = gen_noise("gaussian", 0.7, 5, 4, seed=13)
        y = gen_observation(truth, p, z)
        # the observation is exactly the sum, and the inputs are not modified
        assert np.array_equal(y, permute_rows(p, truth) + z)
        assert np.array_equal(z, gen_noise("gaussian", 0.7, 5, 4, seed=13))
        assert np.array_equal(truth, gen_truth("random-v-bounded", 5, 4, seed=12))

    def test_dimension_mismatch(self):
        truth = gen_truth("identical-columns", 4, 2)
        with pytest.raises(ValueError):
            gen_observation(truth, Permutation.identity(3), np.zeros((3, 2)))
        # a row of noise would broadcast over every row of the truth
        for noise in (np.zeros(2), np.zeros((1, 2)), np.zeros((4, 3))):
            with pytest.raises(ValueError):
                gen_observation(truth, Permutation.identity(4), noise)
        with pytest.raises(ValueError, match="non-finite"):
            gen_observation(truth, Permutation.identity(4), np.full((4, 2), np.nan))


class TestLeanGeneration:
    """The panel sort of ``random-v-bounded`` and the observation built in
    the noise buffer keep the bytes of the plain whole-matrix forms."""

    # 512 rows: panels of 32 columns; 70 and 300 are no multiples of it
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 40), (9, 1), (512, 70), (300, 512)])
    def test_panel_sort_equals_np_sort(self, n, m):
        want = np.sort(derive_rng(5).uniform(size=(n, m)), axis=0)
        got = draw_truth("random-v-bounded", n, m, derive_rng(5))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_panel_sort_across_patched_panel_edges(self, width):
        n, m = 11, 7
        want = np.sort(derive_rng(6).uniform(size=(n, m)), axis=0)
        with mock.patch.object(shape_module, "_PANEL_BYTES", 8 * n * width):
            got = draw_truth("random-v-bounded", n, m, derive_rng(6))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, sigma", [("gaussian", 0.7), ("gaussian", 0.0),
                                             ("rademacher", 2.0), ("rademacher", 0.0),
                                             ("none", 0.0), ("none", 1.0)])
    def test_private_path_equals_gen_observation(self, kind, sigma):
        n, m = 40, 6
        rng = derive_rng(7)
        truth = draw_truth("random-v-bounded", n, m, rng)
        p = Permutation.random(n, rng)
        noise = draw_noise(kind, sigma, n, m, rng)
        kept = noise.copy()
        public = gen_observation(truth, p, noise)
        assert noise.tobytes() == kept.tobytes()  # the caller's noise is not written
        assert public.tobytes() == (permute_rows(p, truth) + noise).tobytes()
        # row blocks of 3 rows: 40 is no multiple of 3
        with mock.patch.object(core, "_ROW_BLOCK_BYTES", 8 * m * 3):
            private = _observe(truth, p, noise.copy())
        assert private.tobytes() == public.tobytes()

    def test_huge_sigma_is_rejected_by_the_experiment(self):
        # N(0, 1e308) draws overflow to inf
        cfg = ExperimentConfig(family="random-v-bounded", methods=("oracle",),
                               grid=((64, 8),), replications=1, noise_kind="gaussian",
                               sigma=1e308, seed=1)
        with pytest.raises(ValueError, match="noise contains non-finite entries"):
            run_experiment(cfg)

    def test_draw_and_observation_scratch(self):
        # the truth, the noise it is added into and one row block of the
        # permuted truth: about 2.1 matrices at 512^2 (3.1 when the permuted
        # truth was a whole matrix of its own)
        n = 512
        rng = derive_rng(0)
        tracemalloc.start()
        try:
            truth = draw_truth("random-v-bounded", n, n, rng)
            p = Permutation.random(n, rng)
            y = _observe(truth, p, draw_noise("gaussian", 1.0, n, n, rng))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * y.nbytes
