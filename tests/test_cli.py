import json
import math

import numpy as np
import pytest

from seriation.cli import main
from seriation.core import read_matrix_csv, read_permutation
from seriation.metrics import complexity_report
from seriation.synth import GeneratorSpec, gen_truth


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestGenerate:
    def test_writes_truth(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code, _, _ = run_cli(capsys, "generate", "--family", "triangular",
                             "--n", 4, "--m", 4, "--out", out)
        assert code == 0
        a = read_matrix_csv(out)
        assert np.array_equal(a, gen_truth(GeneratorSpec("triangular", 4, 4)))

    def test_observation_pipeline(self, tmp_path, capsys):
        out, pf, obs = tmp_path / "a.csv", tmp_path / "p.txt", tmp_path / "y.csv"
        code, _, _ = run_cli(capsys, "generate", "--family", "random-v-bounded",
                             "--n", 5, "--m", 3, "--seed", 9, "--out", out,
                             "--perm-out", pf, "--noise", "gaussian",
                             "--sigma", 0.5, "--obs-out", obs)
        assert code == 0
        assert read_permutation(pf).n == 5
        assert read_matrix_csv(obs).shape == (5, 3)

    def test_reproducible(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "generate", "--family", "random-k-blocks", "--n", 10,
                "--m", 2, "--seed", 3, "--out", pa)
        run_cli(capsys, "generate", "--family", "random-k-blocks", "--n", 10,
                "--m", 2, "--seed", 3, "--out", pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_non_finite_sigma_is_error_code(self, tmp_path, capsys):
        out, obs = tmp_path / "a.csv", tmp_path / "y.csv"
        code, _, err = run_cli(capsys, "generate", "--family", "triangular",
                               "--n", 4, "--m", 4, "--out", out,
                               "--sigma", "nan", "--obs-out", obs)
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert not out.exists() and not obs.exists()

    def test_bad_family_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "nope", "--n", "2", "--m", "2",
                  "--out", str(tmp_path / "x.csv")])


class TestMetrics:
    def test_json_matches_library(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        run_cli(capsys, "generate", "--family", "triangular", "--n", 5, "--m", 5,
                "--out", path)
        code, out, _ = run_cli(capsys, "metrics", path)
        assert code == 0
        payload = json.loads(out)
        report = complexity_report(read_matrix_csv(path))
        assert payload["K"] == report.k_total == 9
        assert payload["V"] == report.v_total
        assert payload["R"] == report.r_value
        assert payload["per_column_k"] == [int(k) for k in report.per_column_k]
        assert not payload["r_degenerate"]

    def test_quantize_flag(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("1.0\n1.0000000001\n2.0\n")
        _, out, _ = run_cli(capsys, "metrics", path)
        assert json.loads(out)["K"] == 3
        _, out, _ = run_cli(capsys, "metrics", path, "--quantize", "1e-6")
        assert json.loads(out)["K"] == 2

    def test_missing_file_is_error_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "metrics", tmp_path / "absent.csv")
        assert code == 2
        assert "error" in err


class TestEstimate:
    @pytest.fixture()
    def instance(self, tmp_path, capsys):
        truth, perm, obs = tmp_path / "a.csv", tmp_path / "p.txt", tmp_path / "y.csv"
        run_cli(capsys, "generate", "--family", "sparse-rows", "--n", 6, "--m", 144,
                "--seed", 2, "--out", truth, "--perm-out", perm,
                "--noise", "none", "--obs-out", obs)
        return truth, perm, obs

    def test_rankscore_defaults_to_tau_six(self, instance, capsys):
        truth, perm, obs = instance
        code, out, _ = run_cli(capsys, "estimate", "--method", "rankscore",
                               "--in", obs, "--truth", truth, "--perm", perm)
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == 6.0
        assert payload["losses"]["total"] == 0.0
        assert sorted(payload["p_hat"]) == list(range(6))

    def test_tau_rule(self, instance, capsys):
        _, _, obs = instance
        _, out, _ = run_cli(capsys, "estimate", "--method", "rankscore",
                            "--in", obs, "--tau-rule", "--tau-c", 1.0,
                            "--sigma", 1.0)
        payload = json.loads(out)
        assert payload["tau"] == pytest.approx(3.0 * np.sqrt(2 * np.log(6 * 144)))

    def test_oracle_requires_perm(self, instance, capsys):
        _, _, obs = instance
        code, _, err = run_cli(capsys, "estimate", "--method", "oracle", "--in", obs)
        assert code == 2
        assert "perm" in err

    def test_oracle_perm_length_mismatch(self, instance, tmp_path, capsys):
        _, _, obs = instance
        perm = tmp_path / "p10.txt"
        perm.write_text("".join(f"{i}\n" for i in range(10)))
        code, _, err = run_cli(capsys, "estimate", "--method", "oracle",
                               "--in", obs, "--perm", perm)
        assert code == 2
        assert err.startswith("error:") and "10 rows" in err

    @pytest.mark.parametrize("flags", [("--tau", "nan"), ("--tau", "inf"),
                                       ("--tau-rule", "--sigma", "nan"),
                                       ("--tau-rule", "--tau-c", "inf")])
    def test_non_finite_threshold_is_error_code(self, instance, capsys, flags):
        _, _, obs = instance
        code, out, err = run_cli(capsys, "estimate", "--method", "rankscore",
                                 "--in", obs, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_oracle_with_perm_and_fitted_out(self, instance, tmp_path, capsys):
        truth, perm, obs = instance
        fitted = tmp_path / "fit.csv"
        code, out, _ = run_cli(capsys, "estimate", "--method", "oracle",
                               "--in", obs, "--perm", perm, "--truth", truth,
                               "--fitted-out", fitted)
        assert code == 0
        payload = json.loads(out)
        assert payload["losses"]["total"] == 0.0
        assert np.array_equal(read_matrix_csv(fitted), read_matrix_csv(obs))

    def test_exhaustive_cap_message(self, tmp_path, capsys):
        obs = tmp_path / "y.csv"
        obs.write_text("\n".join(str(float(i)) for i in range(9)) + "\n")
        code, _, err = run_cli(capsys, "estimate", "--method", "exhaustive",
                               "--in", obs)
        assert code == 2
        assert "refused" in err

    def test_average(self, tmp_path, capsys):
        obs = tmp_path / "y.csv"
        obs.write_text("0\n2\n")
        _, out, _ = run_cli(capsys, "estimate", "--method", "average", "--in", obs)
        payload = json.loads(out)
        assert payload["sse"] == 2.0
        assert payload["p_hat"] == [0, 1]


class TestExperiment:
    def test_config_run(self, tmp_path, capsys):
        cfg = {
            "family": "random-v-bounded",
            "methods": ["oracle", "average"],
            "grid": [[4, 2], [8, 2]],
            "replications": 2,
            "sigma": 0.5,
            "seed": 11,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "records.csv"
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path,
                               "--out", out, "--slope")
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_config_needs_out_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "random-v-bounded", "methods": ["oracle"],
            "grid": [[4, 2]], "replications": 1,
        }))
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path)
        assert code == 2
        assert "out" in err

    def test_figure_preset_byte_identical(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (pa, pb):
            code, _, _ = run_cli(capsys, "experiment", "--figure", "3",
                                 "--n-min", 4, "--n-max", 8, "--n-points", 2,
                                 "--replications", 1, "--seed", 4, "--out", path)
            assert code == 0
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("fields", [{"sigma": math.nan},
                                        {"methods": ["rankscore"], "tau": None}])
    def test_invalid_config_is_error_code(self, tmp_path, capsys, fields):
        cfg = {"family": "random-v-bounded", "methods": ["oracle"],
               "grid": [[4, 2]], "replications": 1, **fields}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path, "--out", out)
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()

    def test_bad_config_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "random-v-bounded",
                                        "methods": ["oracle"], "grid": [[4, 2]],
                                        "volume": 11}))
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path,
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
