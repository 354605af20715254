import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from seriation.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRecord,
    emit_csv,
    figure_configs,
    fit_loglog_slope,
    read_records_csv,
    run_experiment,
    run_figure,
)


def tiny_config(**overrides):
    base = dict(
        family="random-v-bounded",
        methods=("oracle",),
        grid=((4, 2), (8, 3)),
        replications=2,
        noise_kind="gaussian",
        sigma=0.5,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMemory:
    def test_peak_is_one_instance_and_one_fit(self):
        # truth, observation and a_hat are three n x m matrices (plus a
        # 128 KB column panel, or 0.5 MB of loss blocks); neither the
        # row-ordered observation nor m_hat is formed, and a second
        # replication or method must not add to them
        n = 512
        cfg = tiny_config(methods=("rankscore", "ranksum", "oracle"), grid=((n, n),),
                          replications=2)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n * n


class TestConfig:
    def test_log_grid_construction(self):
        cfg = tiny_config(grid=None, m_rule="n", n_min=10, n_max=1000, n_points=3)
        assert cfg.resolved_grid() == ((10, 10), (100, 100), (1000, 1000))

    def test_log_grid_deduplicates(self):
        cfg = tiny_config(grid=None, m_rule="n", n_min=4, n_max=6, n_points=10)
        ns = [n for n, _ in cfg.resolved_grid()]
        assert ns == sorted(set(ns))

    def test_m_rules(self):
        for rule, expect in (("n^1/2", 8), ("n", 64), ("n^3/2", 512)):
            cfg = tiny_config(grid=None, m_rule=rule, n_min=64, n_max=64, n_points=2)
            assert cfg.resolved_grid() == ((64, expect),)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tiny_config(grid=((8, 2), (4, 2)))

    def test_requires_grid_or_range(self):
        with pytest.raises(ValueError):
            tiny_config(grid=None)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            tiny_config(methods=("sorcery",))

    def test_malformed_grid_rejected(self):
        for grid in (5, [4, 2], "44", [[4, 2, 1]], [[4]], [(4, 2), 8]):
            with pytest.raises(ValueError, match="grid"):
                tiny_config(grid=grid)

    def test_grid_lists_become_tuples(self):
        assert tiny_config(grid=[[4, 2], [8, 3]]).grid == ((4, 2), (8, 3))

    def test_bare_method_string_rejected(self):
        for methods in ("oracle", 5):
            with pytest.raises(ValueError, match="methods must be a list"):
                tiny_config(methods=methods)

    def test_replications_positive(self):
        with pytest.raises(ValueError):
            tiny_config(replications=0)
        with pytest.raises(ValueError, match="blocks"):
            tiny_config(family="random-k-blocks", blocks=0)

    def test_integer_fields_must_be_integers(self):
        for kwargs in ({"replications": 1.5}, {"blocks": 2.0}, {"seed": 1.5},
                       {"replications": True}, {"grid": ((4.7, 2),)},
                       {"grid": ((4, 2.0),)}):
            with pytest.raises(ValueError, match="integer"):
                tiny_config(**kwargs)
        for kwargs in ({"n_min": 4.5}, {"n_max": 10.0}, {"n_points": 3.0}):
            with pytest.raises(ValueError, match="integer"):
                tiny_config(grid=None, m_rule="n", **{"n_min": 4, "n_max": 10, **kwargs})
        cfg = tiny_config(grid=((np.int64(4), np.int64(2)),), seed=np.int64(3))
        assert cfg.grid == ((4, 2),) and type(cfg.grid[0][0]) is int

    # refused when the config is built, not when the first run derives its rng
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_unsigned_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            ExperimentConfig(family="triangular", methods=["oracle"], grid=[[4, 4]], seed=seed)
        tiny_config(seed=2**64 - 1)

    def test_non_finite_noise_and_threshold_rejected(self):
        for kwargs in ({"sigma": math.nan}, {"sigma": math.inf}, {"tau": math.nan},
                       {"tau_constant": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                tiny_config(**kwargs)

    def test_rankscore_needs_a_threshold(self):
        with pytest.raises(ValueError, match="tau"):
            tiny_config(methods=("rankscore",), tau=None)
        tiny_config(methods=("rankscore",), tau=None, tau_constant=1.0)
        tiny_config(methods=("oracle",), tau=None)

    def test_tau_constant_needs_tau_null(self):
        # tau defaults to 6, which would otherwise override the rule
        with pytest.raises(ValueError, match='"tau": null'):
            tiny_config(methods=("rankscore",), tau_constant=1.0)


class TestRunExperiment:
    def test_noiseless_oracle_has_zero_loss(self):
        cfg = tiny_config(noise_kind="none", replications=1)
        records = run_experiment(cfg)
        assert len(records) == 2
        for r in records:
            assert r.loss_total == 0.0
            assert r.log10_loss_total == -math.inf

    def test_deterministic_records(self):
        cfg = tiny_config(methods=("rankscore", "oracle", "average"))
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_methods_share_replication_data(self):
        # the oracle can never lose to rankscore in SSE on shared data; with
        # independent draws this would fail occasionally
        cfg = tiny_config(methods=("exhaustive", "oracle"), grid=((5, 2),),
                          replications=6)
        records = {r.method: r for r in run_experiment(cfg)}
        assert records["exhaustive"].n == records["oracle"].n

    def test_exhaustive_cap_refused_before_work(self):
        # refused when the config is built, so no cell can run
        with pytest.raises(ValueError, match="not desk scale"):
            tiny_config(methods=("exhaustive",), grid=((12, 2),))

    def test_rearrangement_bounds_hold_per_record(self):
        cfg = tiny_config(methods=("rankscore", "ranksum"), grid=((6, 3),),
                          replications=5, sigma=1.0)
        for r in run_experiment(cfg):
            slack = 1e-9 * (1.0 + r.loss_total)
            assert r.loss_matrix <= r.loss_total + slack
            assert r.loss_perm <= 4.0 * r.loss_total + slack

    def test_timing_flag(self):
        cfg = tiny_config(replications=1)
        untimed = run_experiment(cfg)
        timed = run_experiment(cfg, timing=True)
        assert all(r.wall_time_ms == 0.0 for r in untimed)
        assert any(r.wall_time_ms > 0.0 for r in timed)


class TestSlope:
    def _records(self, losses, ns=None):
        ns = ns or [2 ** (k + 3) for k in range(len(losses))]
        return [
            ExperimentRecord(n=n, m=n, method="oracle", loss_total=l,
                             loss_perm=0.0, loss_matrix=l,
                             log10_loss_total=math.log10(l),
                             wall_time_ms=0.0, seed=0)
            for n, l in zip(ns, losses)
        ]

    def test_exact_power_law(self):
        ns = [8, 16, 32, 64, 128]
        fit = fit_loglog_slope(self._records([3.0 * n ** (-2 / 3) for n in ns], ns))
        assert fit.slope == pytest.approx(-2 / 3, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log10(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_losses(self):
        fit = fit_loglog_slope(self._records([0.5, 0.5, 0.5]))
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_zero_loss_rejected_with_guidance(self):
        records = self._records([0.5, 0.5, 0.5])
        records[1] = ExperimentRecord(n=16, m=16, method="oracle", loss_total=0.0,
                                      loss_perm=0.0, loss_matrix=0.0,
                                      log10_loss_total=-math.inf,
                                      wall_time_ms=0.0, seed=0)
        with pytest.raises(ValueError, match="noise"):
            fit_loglog_slope(records)

    def test_needs_three_records(self):
        with pytest.raises(ValueError, match="3 records"):
            fit_loglog_slope(self._records([1.0, 2.0]))

    def test_r_squared_in_unit_interval(self):
        fit = fit_loglog_slope(self._records([1.0, 5.0, 1.0, 5.0]))
        assert 0.0 <= fit.r_squared <= 1.0

    def test_generator_of_records(self):
        records = self._records([1.0, 0.5, 0.2])
        assert fit_loglog_slope(r for r in records) == fit_loglog_slope(records)

    def test_pooled_regimes_rejected(self):
        # figure 2 repeats each n once per m-regime: one line through all
        # three belongs to no regime
        cfgs = figure_configs("2-left", n_min=8, n_max=32, n_points=3, replications=1)
        runs = [run_experiment(cfg) for cfg in cfgs]
        oracle = [r for records in runs for r in records if r.method == "oracle"]
        with pytest.raises(ValueError, match=r"n = 8 repeats with m = 3 and m = 8"):
            fit_loglog_slope(oracle)
        # records without an m attribute carry no regime to check
        fit_loglog_slope([SimpleNamespace(n=r.n, loss_total=r.loss_total) for r in oracle])
        for cfg, records in zip(cfgs, runs):
            for method in cfg.methods:
                fit_loglog_slope([r for r in records if r.method == method])


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv([], path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    @pytest.mark.parametrize("records", [5, [1.0], "oracle"])
    def test_records_that_are_no_records_rejected(self, tmp_path, records):
        with pytest.raises(ValueError, match="record"):
            emit_csv(records, tmp_path / "r.csv")

    def test_roundtrip_identical(self, tmp_path):
        cfg = tiny_config(methods=("oracle", "average"))
        records = run_experiment(cfg)
        path = tmp_path / "r.csv"
        emit_csv(records, path)
        assert read_records_csv(path) == records

    def test_field_order_and_lf(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(run_experiment(tiny_config(replications=1)), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        first = raw.decode().splitlines()[0]
        assert first == "n,m,method,loss_total,loss_perm,loss_matrix,log10_loss_total,wall_time_ms,seed"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)

    @pytest.mark.parametrize("record", ["4,2,oracle", "4,2,oracle,x,0,1,0,0,0",
                                        "4,2,oracle,1,0,1,0,0,0,extra"])
    def test_bad_record_names_path_and_line(self, tmp_path, record):
        path = tmp_path / "r.csv"
        path.write_text(f"{CSV_HEADER}\n4,2,oracle,1,0,1,0,0,0\n\n{record}\n")
        with pytest.raises(ValueError, match=r"r\.csv: bad record at line 4: "):
            read_records_csv(path)

    @pytest.mark.parametrize("raw", [b"\xff\n", b"%s\n4,2,oracle,1,0,1,0,0,\xff\n"],
                             ids=["header", "record"])
    def test_undecodable_file_names_the_path(self, tmp_path, raw):
        path = tmp_path / "r.csv"
        path.write_bytes(raw.replace(b"%s", CSV_HEADER.encode()))
        with pytest.raises(ValueError, match=r"r\.csv: .*can't decode"):
            read_records_csv(path)


class TestFigures:
    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_configs("7-up")

    def test_figure_two_expands_to_three_regimes(self):
        cfgs = figure_configs("2-left", n_min=4, n_max=16, n_points=2, replications=1)
        assert [c.m_rule for c in cfgs] == ["n^1/2", "n", "n^3/2"]
        assert all(c.family == "random-k-blocks" for c in cfgs)

    def test_figure_one_methods(self):
        (cfg,) = figure_configs("1-left")
        assert cfg.methods == ("rankscore", "ranksum", "oracle")
        assert cfg.family == "sparse-rows"
        assert cfg.tau == 6.0

    def test_run_figure_small(self):
        records = run_figure("3", n_min=4, n_max=8, n_points=2, replications=1, seed=5)
        methods = {r.method for r in records}
        assert methods == {"rankscore", "oracle"}
        assert all(r.n == r.m for r in records)
