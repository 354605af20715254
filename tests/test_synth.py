import numpy as np
import pytest

from seriation.core import Permutation, derive_rng, permute_rows, write_matrix_csv
from seriation.metrics import count_levels, r_statistic, variation
from seriation.shape import has_monotone_columns
from seriation.synth import (
    FAMILIES,
    GeneratorSpec,
    NoiseSpec,
    draw_truth,
    gen_noise,
    gen_observation,
    gen_truth,
)


class TestTruthFamilies:
    def test_sparse_rows_exact(self):
        a = gen_truth(GeneratorSpec("sparse-rows", 3, 2))
        s = np.sqrt(2.0)
        assert np.allclose(a, [[s, 0.0], [2 * s, 0.0], [3 * s, 0.0]], rtol=1e-15)

    def test_identical_columns_exact(self):
        a = gen_truth(GeneratorSpec("identical-columns", 2, 3))
        assert np.array_equal(a, [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]])

    def test_triangular_exact(self):
        a = gen_truth(GeneratorSpec("triangular", 3, 3))
        assert np.array_equal(a, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
        assert count_levels(a)[0] == 5

    def test_triangular_level_count_scales(self):
        for n in (2, 5, 17):
            a = gen_truth(GeneratorSpec("triangular", n, n))
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

    def test_v_bounded_variation(self):
        a = gen_truth(GeneratorSpec("random-v-bounded", 50, 8, seed=3))
        v, per = variation(a)
        assert np.all(per <= 1.0)
        assert v <= 1.0

    def test_k_blocks_level_count(self):
        a = gen_truth(GeneratorSpec("random-k-blocks", 23, 6, seed=4, blocks=5))
        k, per = count_levels(a)
        assert np.all(per == 5)
        assert k == 30

    def test_k_blocks_sizes_larger_first(self):
        a = gen_truth(GeneratorSpec("random-k-blocks", 7, 1, seed=5, blocks=5))
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
            gen_truth(GeneratorSpec("random-k-blocks", 3, 2, blocks=5))

    def test_sparse_and_identical_have_unit_r(self):
        assert r_statistic(gen_truth(GeneratorSpec("sparse-rows", 8, 5))) == \
            pytest.approx(1.0, abs=1e-9)
        assert r_statistic(gen_truth(GeneratorSpec("identical-columns", 8, 5))) == \
            pytest.approx(1.0, abs=1e-9)

    def test_seed_determinism(self):
        for family in ("random-v-bounded", "random-k-blocks"):
            a = gen_truth(GeneratorSpec(family, 12, 4, seed=42))
            b = gen_truth(GeneratorSpec(family, 12, 4, seed=42))
            c = gen_truth(GeneratorSpec(family, 12, 4, seed=43))
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_custom_roundtrip(self, tmp_path):
        path = tmp_path / "a.csv"
        truth = gen_truth(GeneratorSpec("random-v-bounded", 4, 2, seed=1))
        write_matrix_csv(truth, path)
        loaded = gen_truth(GeneratorSpec("custom", 4, 2, path=str(path)))
        assert np.array_equal(loaded, truth)

    def test_custom_rejects_non_monotone(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_matrix_csv(np.array([[1.0], [0.0]]), path)
        with pytest.raises(ValueError, match="non-increasing"):
            gen_truth(GeneratorSpec("custom", 2, 1, path=str(path)))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec("florp", 2, 2)


class TestNoise:
    def test_none_is_zero(self):
        assert not gen_noise(NoiseSpec("none", 1.0), 4, 3).any()

    def test_seed_determinism(self):
        a = gen_noise(NoiseSpec("gaussian", 1.0, seed=7), 5, 5)
        b = gen_noise(NoiseSpec("gaussian", 1.0, seed=7), 5, 5)
        assert np.array_equal(a, b)

    def test_gaussian_moments_at_scale(self):
        z = gen_noise(NoiseSpec("gaussian", 1.0, seed=8), 1000, 1000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_rademacher_values(self):
        z = gen_noise(NoiseSpec("rademacher", 0.5, seed=9), 20, 20)
        assert set(np.unique(z)) == {-0.5, 0.5}
        assert abs(z.mean()) < 0.2

    def test_sigma_zero(self):
        assert not gen_noise(NoiseSpec("gaussian", 0.0, seed=1), 3, 3).any()

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            NoiseSpec("weird")
        for sigma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseSpec("gaussian", sigma=sigma)


class TestObservation:
    def test_identity_no_noise(self):
        truth = gen_truth(GeneratorSpec("identical-columns", 4, 2))
        y = gen_observation(truth, Permutation.identity(4), NoiseSpec("none"))
        assert np.array_equal(y, truth)

    def test_permute_then_unpermute(self):
        rng = derive_rng(10)
        truth = gen_truth(GeneratorSpec("random-v-bounded", 6, 3, seed=11))
        p = Permutation.random(6, rng)
        y = gen_observation(truth, p, NoiseSpec("none"))
        from seriation.core import inverse

        assert np.array_equal(permute_rows(inverse(p), y), truth)

    def test_noise_is_reproducible_algebraically(self):
        truth = gen_truth(GeneratorSpec("random-v-bounded", 5, 4, seed=12))
        p = Permutation.identity(5)
        noise_spec = NoiseSpec("gaussian", 0.7, seed=13)
        y = gen_observation(truth, p, noise_spec)
        z = gen_noise(noise_spec, 5, 4)
        # identical up to the one rounding of the addition
        assert np.max(np.abs((y - permute_rows(p, truth)) - z)) < 1e-12

    def test_dimension_mismatch(self):
        truth = gen_truth(GeneratorSpec("identical-columns", 4, 2))
        with pytest.raises(ValueError):
            gen_observation(truth, Permutation.identity(3), NoiseSpec("none"))
