import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import seriation
from seriation import cli, experiments
from seriation.cli import main
from seriation.core import read_matrix_csv, read_permutation
from seriation.estimators import METHODS, EstimatorConfig, fit
from seriation.experiments import M_RULES, _apply_m_rule, fit_loglog_slope, read_records_csv
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

    # every output path is checked before anything is drawn or written
    @pytest.mark.parametrize("flag, where, message", [
        ("--obs-out", "nodir/y.csv", "no directory"), ("--perm-out", "nodir/p.txt", "no directory"),
        ("--out", "nodir/a.csv", "no directory"), ("--obs-out", ".", "is a directory"),
        ("--out", "", "is empty"), ("--perm-out", "", "is empty"), ("--obs-out", "", "is empty")])
    def test_bad_output_path_writes_nothing(self, tmp_path, capsys, monkeypatch, flag,
                                            where, message):
        monkeypatch.chdir(tmp_path)
        paths = {"--out": "a.csv", "--perm-out": "p.txt", "--obs-out": "y.csv", flag: where}
        code, out, err = run_cli(capsys, "generate", "--family", "triangular", "--n", 4,
                                 "--m", 4, *[x for kv in paths.items() for x in kv])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert sorted(os.listdir(tmp_path)) == []

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

    @pytest.mark.parametrize("flags", [("--noise", "none"), ("--sigma", 2),
                                       ("--perm-out", "{dir}/p.txt", "--sigma", 2)],
                             ids=["noise", "sigma", "sigma-with-perm-out"])
    def test_noise_flags_need_obs_out(self, tmp_path, capsys, flags):
        # without --obs-out no noise is drawn, so these flags would do nothing
        code, out, err = run_cli(capsys, "generate", "--family", "triangular", "--n", 4,
                                 "--m", 4, "--out", tmp_path / "a.csv",
                                 *(str(f).replace("{dir}", str(tmp_path)) for f in flags))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flags[-2]}") and "--obs-out" in err
        assert list(tmp_path.iterdir()) == []

    def test_custom_path_needs_family_custom(self, tmp_path, capsys):
        # the path would be ignored, even one that does not exist
        code, out, err = run_cli(capsys, "generate", "--family", "triangular", "--n", 4,
                                 "--m", 4, "--out", tmp_path / "a.csv",
                                 "--custom-path", tmp_path / "missing.csv")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --custom-path") and "--family custom" in err
        assert list(tmp_path.iterdir()) == []

    def test_huge_sigma_is_error_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "triangular", "--n", 4,
                               "--m", 4, "--out", tmp_path / "a.csv", "--sigma", "1e308",
                               "--obs-out", tmp_path / "y.csv")
        assert code == 2
        assert err.startswith("error:") and "noise contains non-finite entries" in err

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

    @pytest.mark.parametrize("width, entry, message", [
        ("nan", "1", "finite and > 0"), ("inf", "1", "finite and > 0"),
        ("-1", "1", "finite and > 0"), ("0", "1", "finite and > 0"),
        ("1e-310", "1", "overflow"), ("0.5", "1e308", "overflow"),
    ])
    def test_bad_quantize_is_error_code(self, tmp_path, capsys, width, entry, message):
        path = tmp_path / "a.csv"
        path.write_text(f"0,1\n{entry},2\n")
        code, out, err = run_cli(capsys, "metrics", path, "--quantize", width)
        assert code == 2
        assert out == ""
        assert err.startswith("error: quantize width") and message in err

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

    def test_far_row_pair(self, tmp_path, capsys):
        # m ||u||^2 and ||u||_1^2 overflow float64: the unscaled score is
        # inf / inf, and R of the one pair is 1
        path = tmp_path / "a.csv"
        path.write_text(",".join(["0"] * 8192) + "\n" + ",".join([repr(2.0**499)] * 8192) + "\n")
        code, out, err = run_cli(capsys, "metrics", path)
        assert code == 0, err
        assert json.loads(out)["R"] == 1.0

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
        # C is 1 unless given
        _, out, _ = run_cli(capsys, "estimate", "--method", "rankscore",
                            "--in", obs, "--tau-rule", "--sigma", 1.0)
        assert json.loads(out)["tau"] == payload["tau"]

    def test_tau_and_tau_rule_are_exclusive(self, instance, capsys):
        _, _, obs = instance
        with pytest.raises(SystemExit) as exit_:
            run_cli(capsys, "estimate", "--method", "rankscore", "--in", obs,
                    "--tau", 0.01, "--tau-rule")
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --tau-rule: not allowed with argument --tau" in err

    def test_tau_c_needs_tau_rule(self, instance, capsys):
        _, _, obs = instance
        code, out, err = run_cli(capsys, "estimate", "--method", "rankscore", "--in", obs,
                                 "--tau-c", 2.0)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tau-c") and "--tau-rule" in err

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
        assert err.startswith("error:") and "permutation length 10" in err

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

    # the fitted path is checked before the fit, and the summary is printed
    # only once the fitted matrix is written
    @pytest.mark.parametrize("where, message", [("nodir/f.csv", "no directory"),
                                                (".", "is a directory"), ("", "is empty")])
    def test_bad_fitted_path_prints_nothing(self, instance, tmp_path, capsys, monkeypatch,
                                            where, message):
        _, _, obs = instance
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "estimate", "--method", "ranksum", "--in", obs,
                                 "--fitted-out", where)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_failed_fitted_write_prints_nothing(self, instance, tmp_path, capsys,
                                                monkeypatch):
        def write_matrix_csv(a, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_matrix_csv", write_matrix_csv)
        _, _, obs = instance
        code, out, err = run_cli(capsys, "estimate", "--method", "ranksum", "--in", obs,
                                 "--fitted-out", tmp_path / "f.csv")
        assert code == 2
        assert out == ""
        assert "disk full" in err

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

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "rankscore"])
    @pytest.mark.parametrize("flags", [("--tau", 0.5), ("--tau-rule",)],
                             ids=["tau", "tau-rule"])
    def test_threshold_flags_need_rankscore(self, instance, capsys, method, flags):
        _, perm, obs = instance
        code, out, err = run_cli(capsys, "estimate", "--method", method, "--in", obs,
                                 "--perm", perm, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flags[0]}") and "rankscore" in err

    @pytest.mark.parametrize("method", METHODS)
    def test_sigma_needs_tau_rule(self, instance, capsys, method):
        # sigma enters only the threshold rule
        _, perm, obs = instance
        code, out, err = run_cli(capsys, "estimate", "--method", method, "--in", obs,
                                 "--perm", perm, "--sigma", 2)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --sigma") and "--tau-rule" in err

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
        # only rankscore thresholds; the other methods reject --tau
        tau = ("--tau", 0.5) if method == "rankscore" else ()
        code, out, _ = run_cli(capsys, "estimate", "--method", method, *tau,
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

    def test_config_needs_out_path(self, tmp_path, capsys, monkeypatch):
        # the output path is resolved before any cell is drawn
        def run_experiment(*args, **kwargs):
            pytest.fail("experiment ran without an output path")

        monkeypatch.setattr(experiments, "run_experiment", run_experiment)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "random-v-bounded", "methods": ["oracle"],
            "grid": [[4, 2]], "replications": 1,
        }))
        code, stdout, err = run_cli(capsys, "experiment", "--config", cfg_path)
        assert code == 2
        assert stdout == ""
        assert "no output path" in err

    @pytest.mark.parametrize("where, message", [("no-dir/x.csv", "no directory"),
                                                (".", "is a directory"), ("", "is empty")])
    def test_unwritable_out_refused_before_run(self, tmp_path, capsys, monkeypatch,
                                               where, message):
        # a path that cannot take the records is refused before any preset runs
        def run_experiment(*args, **kwargs):
            pytest.fail("experiment ran with an unwritable output path")

        monkeypatch.setattr(experiments, "run_experiment", run_experiment)
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, "experiment", "--figure", "2-left",
                                    "--n-max", 64, "--out", where)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and message in err

    def test_failed_run_keeps_earlier_records(self, tmp_path, capsys, monkeypatch):
        # the records file is opened only once every run has finished
        def run_experiment(*args, **kwargs):
            raise ValueError("run failed")

        monkeypatch.setattr(experiments, "run_experiment", run_experiment)
        out = tmp_path / "records.csv"
        out.write_text("earlier records\n")
        code, _, err = run_cli(capsys, "experiment", "--figure", "2-left", "--out", out)
        assert code == 2
        assert "run failed" in err
        assert out.read_text() == "earlier records\n"

    @pytest.mark.parametrize("flags", [("--n-min", 4), ("--n-max", 99), ("--n-points", 2),
                                       ("--replications", 5), ("--seed", 7),
                                       ("--replications", 10, "--seed", 0)])
    def test_config_rejects_preset_flags(self, tmp_path, capsys, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "random-v-bounded", "methods": ["oracle"],
                                        "grid": [[4, 2]], "replications": 1}))
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(capsys, "experiment", "--config", cfg_path,
                                    "--out", out, *flags)
        assert code == 2
        assert stdout == ""
        named = ", ".join(str(f) for f in flags if str(f).startswith("--"))
        assert err.startswith(f"error: {named} apply to --figure presets only")
        assert not out.exists()

    def test_slope_per_regime(self, tmp_path, capsys):
        # figure 2 runs three m-regimes; each gets its own slope per method
        out = tmp_path / "r.csv"
        code, stdout, _ = run_cli(capsys, "experiment", "--figure", "2-left", "--n-min", 8,
                                  "--n-max", 32, "--n-points", 3, "--replications", 2,
                                  "--out", out, "--slope")
        assert code == 0
        records = read_records_csv(out)
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert [(d["regime"], d["method"]) for d in lines] == [
            (rule, meth) for rule in M_RULES for meth in ("rankscore", "oracle")]
        for d in lines:
            m_of = {n: _apply_m_rule(d["regime"], n) for n in (8, 16, 32)}
            subset = [r for r in records if r.method == d["method"] and r.m == m_of[r.n]]
            assert len(subset) == 3
            fit = fit_loglog_slope(subset)
            assert (d["slope"], d["intercept"], d["r_squared"]) == (
                fit.slope, fit.intercept, fit.r_squared)

    def test_slope_of_config_grid(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "random-v-bounded", "methods": ["oracle"],
                                        "grid": [[4, 2], [8, 3], [16, 4]], "replications": 1}))
        out = tmp_path / "r.csv"
        code, stdout, _ = run_cli(capsys, "experiment", "--config", cfg_path, "--out", out,
                                  "--slope")
        assert code == 0
        (line,) = [json.loads(s) for s in stdout.splitlines()]
        assert (line["regime"], line["method"]) == ("grid", "oracle")
        assert line["slope"] == fit_loglog_slope(read_records_csv(out)).slope

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
                                        {"sigma": 10**400},
                                        {"methods": ["rankscore"], "tau_constant": 1.0}])
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
import json, resource, sys, tempfile, os
import numpy as np
import seriation, seriation.cli
seriation.cli.build_parser()
seen = {"start-up": "scipy" in sys.modules,
        "concurrent.futures at start-up": "concurrent.futures" in sys.modules}
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
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out = seriation.project_columns(y, seriation.MONOTONE)
# ru_maxrss is in KB on Linux
seen["fit RSS growth under 10 MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss < 10 * 1024
seen["monotone projection"] = "scipy" in sys.modules
seen["scipy.optimize"] = "scipy.optimize" in sys.modules
seen["matches isotonic_fit"] = all(
    np.allclose(out[:, j], seriation.isotonic_fit(y[:, j]).fitted, atol=1e-12)
    for j in range(5))
kernel = sys.modules["scipy.optimize._pava_pybind"]
import scipy.optimize
from scipy.optimize import isotonic_regression
seen["same kernel module"] = (sys.modules["scipy.optimize._pava_pybind"] is kernel
                              and scipy.optimize._isotonic.pava is kernel.pava)
seen["bytes of isotonic_regression"] = all(
    isotonic_regression(y[:, j]).x.tobytes() == out[:, j].tobytes() for j in range(5))
print(json.dumps(seen), file=sys.stderr)
"""


class TestStartup:
    # The first monotone fit loads scipy's compiled PAVA kernel from its file
    # (shape._pava), not through scipy.optimize, whose import adds about
    # 48 MB of RSS; the direct load added about 1.5 MB on a 2-core host.
    def test_scipy_loads_at_first_monotone_fit(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(seriation.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        r = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stderr.splitlines()[-1]) == {
            "start-up": False,
            "concurrent.futures at start-up": False,
            "generate": False,
            "metrics": False,
            "estimate unimodal oracle": False,
            "fit RSS growth under 10 MB": True,
            "monotone projection": True,
            "scipy.optimize": False,
            "matches isotonic_fit": True,
            "same kernel module": True,
            "bytes of isotonic_regression": True,
        }
