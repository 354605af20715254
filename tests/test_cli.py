import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import seriation
from seriation.cli import main
from seriation.core import read_matrix_csv, read_permutation
from seriation.estimators import METHODS, EstimatorConfig, fit
from seriation.metrics import complexity_report
from seriation.synth import gen_noise, gen_observation, gen_permutation, gen_truth


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
        assert np.array_equal(a, gen_truth("triangular", 4, 4))

    def test_observation_pipeline(self, tmp_path, capsys):
        out, pf, obs = tmp_path / "a.csv", tmp_path / "p.txt", tmp_path / "y.csv"
        code, _, _ = run_cli(capsys, "generate", "--family", "random-v-bounded",
                             "--n", 5, "--m", 3, "--seed", 9, "--out", out,
                             "--perm-out", pf, "--noise", "gaussian",
                             "--sigma", 0.5, "--obs-out", obs)
        assert code == 0
        truth = gen_truth("random-v-bounded", 5, 3, seed=9)
        p = gen_permutation(5, seed=9)
        assert np.array_equal(read_matrix_csv(out), truth)
        assert read_permutation(pf) == p
        y = gen_observation(truth, p, gen_noise("gaussian", 0.5, 5, 3, seed=9))
        assert np.array_equal(read_matrix_csv(obs), y)

    def test_reproducible(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "generate", "--family", "random-k-blocks", "--n", 10,
                "--m", 2, "--seed", 3, "--out", pa)
        run_cli(capsys, "generate", "--family", "random-k-blocks", "--n", 10,
                "--m", 2, "--seed", 3, "--out", pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("out_flag", ["--obs-out", "--perm-out"], ids=["obs-out", "perm-out"])
    @pytest.mark.parametrize("flags, message", [
        pytest.param(("--n", 0), "n and m", id="n-0"),
        pytest.param(("--m", 0), "n and m", id="m-0"),
        pytest.param(("--blocks", 0), "blocks", id="blocks-0"),
        pytest.param(("--family", "custom"), "path", id="custom-without-path"),
        pytest.param(("--family", "random-k-blocks", "--n", 3, "--blocks", 5), "blocks",
                     id="blocks-above-n"),
        pytest.param(("--sigma", "nan"), "finite", id="sigma-nan"),
        pytest.param(("--sigma", "inf"), "finite", id="sigma-inf"),
        pytest.param(("--sigma", -1), "finite", id="sigma-negative"),
    ])
    def test_rejected_call_is_error_code(self, tmp_path, capsys, flags, message, out_flag):
        # argparse keeps the last of a repeated option, so flags override
        # the defaults given first
        out, extra = tmp_path / "a.csv", tmp_path / "extra.txt"
        code, stdout, err = run_cli(capsys, "generate", "--family", "triangular",
                                    "--n", 4, "--m", 4, "--out", out,
                                    out_flag, extra, *flags)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

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

    def test_overflowing_variation_is_error_code(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("-1e308,-1e308\n1e308,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "metrics", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "variation V overflows" in err
        assert "Traceback" not in err

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

    def test_overflowing_unimodal_fit_is_error_code(self, tmp_path, capsys):
        obs, perm = tmp_path / "y.csv", tmp_path / "p.txt"
        obs.write_text("1,0\n1e308,0\n-1e308,0\n3,0\n2,0\n")
        perm.write_text("0\n1\n2\n3\n4\n")
        code, out, err = run_cli(capsys, "estimate", "--method", "oracle", "--shape",
                                 "unimodal", "--in", obs, "--perm", perm)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err

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

    def test_truth_requires_perm(self, tmp_path, capsys):
        # a noiseless instance that rankscore recovers exactly: scored against
        # the identity instead of the true permutation, its loss was not 0
        truth, obs = tmp_path / "a.csv", tmp_path / "y.csv"
        run_cli(capsys, "generate", "--family", "sparse-rows", "--n", 6, "--m", 16,
                "--seed", 2, "--out", truth, "--noise", "none", "--obs-out", obs)
        code, out, err = run_cli(capsys, "estimate", "--method", "rankscore",
                                 "--tau", 1, "--in", obs, "--truth", truth)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--perm" in err

    @pytest.mark.parametrize("method", ["ranksum", "average"])
    def test_monotone_only_methods_reject_unimodal(self, instance, capsys, method):
        _, _, obs = instance
        code, out, err = run_cli(capsys, "estimate", "--method", method,
                                 "--shape", "unimodal", "--in", obs)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "monotone" in err

    def test_sigma_checked_for_every_method(self, instance, capsys):
        _, perm, obs = instance
        code, _, err = run_cli(capsys, "estimate", "--method", "oracle", "--in", obs,
                               "--perm", perm, "--sigma", "nan")
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_library_dispatch(self, tmp_path, capsys, method):
        truth, perm, obs = tmp_path / "a.csv", tmp_path / "p.txt", tmp_path / "y.csv"
        run_cli(capsys, "generate", "--family", "random-v-bounded", "--n", 6, "--m", 5,
                "--seed", 3, "--out", truth, "--perm-out", perm, "--sigma", 0.5,
                "--obs-out", obs)
        code, out, _ = run_cli(capsys, "estimate", "--method", method, "--tau", 0.5,
                               "--in", obs, "--perm", perm)
        assert code == 0
        payload = json.loads(out)
        expect = fit(method, read_matrix_csv(obs), EstimatorConfig(tau=0.5),
                     read_permutation(perm))
        assert payload["p_hat"] == expect.p_hat.mapping.tolist()
        assert payload["sse"] == expect.sse
        if expect.scores is None:
            assert "scores" not in payload and payload["tau"] is None
        else:
            assert payload["scores"] == expect.scores.tolist()
            assert payload["tau"] == 0.5

    def test_overflowing_losses_are_error_code(self, tmp_path, capsys):
        obs, truth, perm = tmp_path / "y.csv", tmp_path / "a.csv", tmp_path / "p.txt"
        obs.write_text("1e200\n")
        truth.write_text("-1e200\n")
        perm.write_text("0\n")
        code, out, err = run_cli(capsys, "estimate", "--method", "average", "--in", obs,
                                 "--truth", truth, "--perm", perm)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

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

    @pytest.mark.parametrize("grid", [5, [4, 2], "44", [[4, 2, 1]]])
    def test_malformed_grid_is_error_code(self, tmp_path, capsys, grid):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "random-v-bounded", "methods": ["oracle"],
                                        "grid": grid, "replications": 1}))
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path,
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert err.startswith("error:") and "grid" in err
        assert "Traceback" not in err

    def test_bare_method_string_is_error_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "random-v-bounded", "methods": "oracle",
                                        "grid": [[4, 2]], "replications": 1}))
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path,
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert err.startswith("error:") and "methods" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fields", [{"sigma": math.nan},
                                        {"methods": ["rankscore"], "tau": None},
                                        {"replications": 1.5},
                                        {"grid": [[4.7, 2]]},
                                        {"sigma": 10**400}])
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

    @pytest.mark.parametrize("field", ["sigma", "tau", "tau_constant"])
    @pytest.mark.parametrize("value", ["1", "6", True, False, [1], [[1.0]]],
                             ids=["str-1", "str-6", "true", "false", "list", "nested-list"])
    def test_non_number_config_value_is_error_code(self, tmp_path, capsys, field, value):
        cfg = {"family": "random-v-bounded", "methods": ["oracle", "rankscore"],
               "grid": [[4, 2]], "replications": 1, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(capsys, "experiment", "--config", cfg_path, "--out", out)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {field} must be a real number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ([1, 2], "JSON object"),
        ("oracle", "JSON object"),
        ({"family": "random-v-bounded"}, "missing config fields ['methods']"),
        ({"family": "random-v-bounded", "methods": ["oracle"], "grid": [[4, 2]],
          "out_path": 3}, "out_path"),
    ], ids=["list", "bare-string", "missing-methods", "out-path-not-a-string"])
    def test_malformed_config_is_error_code(self, tmp_path, capsys, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, stdout, err = run_cli(capsys, "experiment", "--config", cfg_path)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_bad_config_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "random-v-bounded",
                                        "methods": ["oracle"], "grid": [[4, 2]],
                                        "volume": 11}))
        code, _, err = run_cli(capsys, "experiment", "--config", cfg_path,
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2


# Run in a fresh interpreter: the test session itself has long since
# imported scipy.
_STARTUP_SCRIPT = """
import json, sys, tempfile, os
import numpy as np
import seriation, seriation.cli
seriation.cli.build_parser()
seen = {"start-up": "scipy" in sys.modules}
with tempfile.TemporaryDirectory() as d:
    a, p, y = (os.path.join(d, f) for f in ("a.csv", "p.txt", "y.csv"))
    for name, argv in [
        ("generate", ["generate", "--family", "random-v-bounded", "--n", "12", "--m", "5",
                      "--out", a, "--perm-out", p, "--obs-out", y]),
        ("metrics", ["metrics", a]),
        ("estimate unimodal oracle", ["estimate", "--method", "oracle", "--shape", "unimodal",
                                      "--in", y, "--perm", p]),
    ]:
        assert seriation.cli.main(argv) == 0, name
        seen[name] = "scipy" in sys.modules
y = np.random.default_rng(0).normal(size=(12, 5))
out = seriation.project_columns(y, seriation.MONOTONE)
seen["monotone projection"] = "scipy" in sys.modules
seen["matches isotonic_fit"] = all(
    np.allclose(out[:, j], seriation.isotonic_fit(y[:, j]).fitted, atol=1e-12)
    for j in range(5))
print(json.dumps(seen), file=sys.stderr)
"""


class TestStartup:
    def test_scipy_loads_at_first_monotone_fit(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(seriation.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        r = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stderr.splitlines()[-1]) == {
            "start-up": False,
            "generate": False,
            "metrics": False,
            "estimate unimodal oracle": False,
            "monotone projection": True,
            "matches isotonic_fit": True,
        }
