"""Acceptance gate: every numbered criterion as one test, cheapest first.

Each test prints one line `criterion <k> (<name>): PASS|FAIL ...` before
asserting, so a full run documents itself (use `pytest -v -s`). The heavy
figure run is shared between the qualitative check and the determinism
check through a module-scoped fixture.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import dykstra_cone_projection

from seriation.core import Permutation, derive_rng, permute_rows
from seriation.estimators import (
    EstimatorConfig,
    averaging_fit,
    estimation_losses,
    exhaustive_ls,
    oracle_fit,
    rank_score,
    rank_sum,
)
from seriation.experiments import (
    ExperimentConfig,
    emit_csv,
    fit_loglog_slope,
    run_experiment,
    run_figure,
)
from seriation.metrics import (
    count_levels,
    min_adjacent_row_gap,
    r_statistic,
    rearrangement_check,
)
from seriation.shape import (
    MONOTONE,
    fixed_mode_fit,
    isotonic_fit,
    unimodal_fit,
)
from seriation.synth import draw_noise, draw_truth


def report(k, name, ok, detail):
    print(f"criterion {k} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


def sorted_gaussian(rng, n, m, scale=1.0):
    return np.sort(rng.normal(0.0, scale, size=(n, m)), axis=0)


def test_c01_projection_oracle_equivalence():
    # 1e4 random vectors, n <= 8, entries U(-1,1): closed-form fits vs the
    # Dykstra oracle at 1e4 iterations; unimodal vs min over peak positions.
    t0 = time.time()
    rng = derive_rng(2024)
    groups = {}
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        # half the draws use l = n so the same oracle output also checks the
        # plain isotonic fit (the cone with the peak at the end is the
        # increasing cone)
        l = n if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        groups.setdefault((n, l), []).append(rng.uniform(-1.0, 1.0, n))

    worst_fixed = worst_iso = worst_uni = 0.0
    checked_iso = 0
    for (n, l), ys in sorted(groups.items()):
        batch = np.array(ys)
        oracle = dykstra_cone_projection(batch, l, iters=10_000)
        for y, ref in zip(batch, oracle):
            fit = fixed_mode_fit(y, l)
            worst_fixed = max(worst_fixed, float(np.max(np.abs(fit.fitted - ref))))
            if l == n:
                iso = isotonic_fit(y)
                worst_iso = max(worst_iso, float(np.max(np.abs(iso.fitted - ref))))
                checked_iso += 1
            uni = unimodal_fit(y)
            best = min(fixed_mode_fit(y, l2).sse for l2 in range(1, n + 1))
            worst_uni = max(worst_uni, abs(uni.sse - best) / (1.0 + best))
    elapsed = time.time() - t0
    ok = worst_fixed <= 1e-6 and worst_iso <= 1e-6 and worst_uni <= 1e-10 and elapsed < 60
    assert report(
        1, "projection oracle equivalence", ok,
        f"max dev: fixed-mode {worst_fixed:.2e}, isotonic {worst_iso:.2e} "
        f"({checked_iso} vectors), unimodal rel {worst_uni:.2e}; {elapsed:.0f}s < 60s",
    )


def test_c02_exhaustive_dominance():
    # 1e3 random monotone instances (n <= 6, m <= 4, sigma = 1): the global
    # least-squares SSE never exceeds any other estimator's, exactly.
    t0 = time.time()
    rng = derive_rng(2025)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        truth = sorted_gaussian(rng, n, m)
        p_true = Permutation.random(n, rng)
        y = permute_rows(p_true, truth) + rng.normal(0.0, 1.0, size=(n, m))
        ex = exhaustive_ls(y, MONOTONE)
        rivals = (
            rank_score(y, EstimatorConfig(tau=1.0)),
            rank_sum(y),
            oracle_fit(y, p_true, MONOTONE),
            averaging_fit(y),
        )
        if any(ex.sse > r.sse for r in rivals):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120
    assert report(
        2, "exhaustive LS dominance", ok,
        f"{violations}/1000 violations; {elapsed:.0f}s < 120s",
    )


def test_c03_rearrangement_inequality_suite():
    # 1e4 random monotone pairs with random permutations: both inequalities
    # hold with 1e-9 slack, zero violations.
    rng = derive_rng(2026)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        a_true = sorted_gaussian(rng, n, m)
        a_alt = sorted_gaussian(rng, n, m)
        p_true = Permutation.random(n, rng)
        p_alt = Permutation.random(n, rng)
        if not rearrangement_check(a_true, a_alt, p_true, p_alt).ok:
            violations += 1
    ok = violations == 0
    assert report(3, "rearrangement inequalities", ok, f"{violations}/10000 violations")


def test_c04_complexity_constants():
    rng = derive_rng(2027)
    tri_ok = all(
        count_levels(draw_truth("triangular", n, n, rng))[0] == 2 * n - 1
        for n in range(2, 65)
    )
    sparse_r = r_statistic(draw_truth("sparse-rows", 32, 16, rng))
    ident_r = r_statistic(draw_truth("identical-columns", 32, 16, rng))
    unit_ok = abs(sparse_r - 1.0) <= 1e-9 and abs(ident_r - 1.0) <= 1e-9
    bounds_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 13))
        r = r_statistic(sorted_gaussian(rng, n, m))
        if not (1.0 - 1e-9 <= r <= math.sqrt(m) + 1e-9):
            bounds_ok = False
    ok = tri_ok and unit_ok and bounds_ok
    assert report(
        4, "paper constants", ok,
        f"triangular 2n-1 {tri_ok}; R(sparse)={sparse_r:.10f}, "
        f"R(identical)={ident_r:.10f}; bounds on 1000 matrices {bounds_ok}",
    )


@pytest.fixture(scope="module")
def figure1_left_run():
    t0 = time.time()
    records = run_figure("1-left", seed=0)
    return records, time.time() - t0


def test_c05_figure1_left_qualitative(figure1_left_run):
    records, elapsed = figure1_left_run
    by_n = {}
    for r in records:
        by_n.setdefault(r.n, {})[r.method] = r.loss_total
    ratios = {n: d["rankscore"] / d["oracle"] for n, d in by_n.items()}
    n_top = max(by_n)
    ranksum_ratio = by_n[n_top]["ranksum"] / by_n[n_top]["rankscore"]
    ok = (
        max(ratios.values()) <= 3.0
        and n_top == 1024
        and ranksum_ratio >= 10.0
        and elapsed < 600
    )
    assert report(
        5, "figure 1-left qualitative", ok,
        f"max rankscore/oracle {max(ratios.values()):.2f} <= 3 over n={sorted(by_n)}; "
        f"ranksum/rankscore at n={n_top}: {ranksum_ratio:.1f} >= 10; {elapsed:.0f}s < 600s",
    )


def test_c06_global_rate_slope():
    # oracle on variation-bounded truths, n = m in {64..4096}, 10 reps:
    # log-log slope consistent with the n^(-2/3)-with-log rate.
    t0 = time.time()
    grid = tuple((n, n) for n in (64, 128, 256, 512, 1024, 2048, 4096))
    cfg = ExperimentConfig(
        family="random-v-bounded", methods=("oracle",), grid=grid,
        replications=10, sigma=1.0, seed=0,
    )
    fit = fit_loglog_slope(run_experiment(cfg))
    elapsed = time.time() - t0
    ok = -0.85 <= fit.slope <= -0.55 and fit.r_squared >= 0.95 and elapsed < 900
    assert report(
        6, "global rate check", ok,
        f"slope {fit.slope:.4f} in [-0.85,-0.55], r2 {fit.r_squared:.4f} >= 0.95; "
        f"{elapsed:.0f}s < 900s",
    )


def _monotone_tangent_statdim(a):
    """Per column of a column-increasing matrix: the statistical dimension
    sum_b H(s_b) of the increasing cone's tangent cone at that column, where
    s_b are the lengths of its runs of equal entries and
    H(s) = 1 + 1/2 + ... + 1/s."""
    n, m = a.shape
    starts = np.ones((m, n), dtype=bool)
    starts[:, 1:] = (a[1:] != a[:-1]).T
    flat = np.flatnonzero(starts)
    run_lengths = np.diff(flat, append=starts.size)
    column = flat // n
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))
    return np.bincount(column, weights=harmonic[run_lengths], minlength=m)


def test_c07_adaptive_rate_slope():
    """Oracle on 5-block truths (5 levels per column), same grid as c06,
    sigma small so the level structure, not the column variation, drives the
    loss over the whole grid.

    The paper's adaptive rate is K sigma^2 / n per entry up to logarithmic
    factors; the criterion checks that rate with the log factor divided out,
    and checks the constant against an exact bound.

    Bound. For a closed convex cone C and theta in C, the risk of the
    projection of theta + sigma g (g standard Gaussian) is at most sigma^2
    times the statistical dimension of the tangent cone of C at theta, with
    equality as sigma -> 0 (Oymak and Hassibi 2016). For the increasing cone
    the tangent cone at a column with runs of equal entries of lengths
    s_1..s_K is the product of the increasing cones of those lengths, and the
    increasing cone in R^s has statistical dimension H(s), the s-th harmonic
    number (Amelunxen, Lotz, McCoy and Tropp 2014). The oracle projects each
    column of the unpermuted observation, so its mean per-entry loss is at
    most sigma^2 sum_b H(s_b) / n. The run lengths are read from the drawn
    truths (the generator uses integer sizes, floor(n/5) or one more), not
    taken as n/5.

    Why the raw slope is not -1. The bound curve is K L(n) sigma^2 / n with
    L(n) = (1/K) sum_b H(s_b) ~ log(n/K), and its log-log OLS slope over this
    grid is -0.8016, at the edge of the pure-1/n band [-1.15, -0.80]. The
    measured raw slope at seeds 0-5 was -0.7973, -0.7978, -0.7976, -0.7935,
    -0.7937 and -0.8011, so a raw-slope criterion passes or fails with the
    seed. The criterion therefore fits the slope of loss_total / L(n), which
    the bound puts at -1 (measured: -0.992 to -0.9995 at seeds 0-5), in the
    unchanged band. Dividing by L(n) lowers any slope by 0.198 on this grid,
    so the band alone would also admit a non-adaptive n^(-2/3) curve (-0.865
    after the division). The bound check below rules that out: at this sigma
    the global-rate scale (sigma^2 / n)^(2/3) is already 5 times the bound at
    n = 64, and the gap grows like n^(1/3).

    Constant. At every n, mean loss <= (1 + delta) sigma^2 sum_b H(s_b) / n
    with delta = 0.05. The expected loss sits at about 0.97 of the bound
    (0.94-0.98 per cell at seeds 0-5). Over 200 replications per n, the
    per-replication loss has a relative standard deviation of 4.9% at n = 64,
    3.3% at 128 and 2.2% at 256, so the relative standard error of a 10-rep
    cell mean is 1.6%, 1.0% and 0.7%, and less at larger n. delta = 0.05 is
    about 3 standard errors above the bound itself at n = 64 (more than 5
    above the expected 0.97), so a correct oracle fails the check with
    negligible probability, while a loss inflated by 10% (0.97 * 1.1 = 1.07)
    fails it: at seed 0 it exceeds 1.05 at every n >= 128.
    """
    t0 = time.time()
    grid = tuple((n, n) for n in (64, 128, 256, 512, 1024, 2048, 4096))
    cfg = ExperimentConfig(
        family="random-k-blocks", methods=("oracle",), grid=grid,
        replications=10, sigma=0.01, seed=0,
    )
    records = run_experiment(cfg)
    # the bound and the log factor L(n), averaged over the same truths as the
    # losses: the experiment draws replication rep's truth first from
    # derive_rng(seed, n, m, rep)
    bound, log_factor = {}, {}
    for n, m in grid:
        statdim = np.mean([
            _monotone_tangent_statdim(
                draw_truth(cfg.family, n, m, derive_rng(cfg.seed, n, m, rep),
                           blocks=cfg.blocks)
            ).mean()
            for rep in range(cfg.replications)
        ])
        bound[n] = cfg.sigma**2 * statdim / n
        log_factor[n] = statdim / cfg.blocks
    fit = fit_loglog_slope(
        [SimpleNamespace(n=r.n, loss=r.loss_total / log_factor[r.n]) for r in records],
        y="loss",
    )
    raw = fit_loglog_slope(records)
    bound_slope = fit_loglog_slope(
        [SimpleNamespace(n=n, loss=b) for n, b in bound.items()], y="loss"
    ).slope
    ratios = {r.n: r.loss_total / bound[r.n] for r in records}
    delta = 0.05
    elapsed = time.time() - t0
    ok = (
        -1.15 <= fit.slope <= -0.80
        and fit.r_squared >= 0.95
        and max(ratios.values()) <= 1.0 + delta
        and elapsed < 900
    )
    assert report(
        7, "adaptive rate check", ok,
        f"slope of loss/L(n) {fit.slope:.4f} in [-1.15,-0.80], r2 {fit.r_squared:.4f} >= 0.95; "
        "loss/bound " + ", ".join(f"{v:.3f}" for v in ratios.values())
        + f" <= {1.0 + delta} at n={sorted(ratios)}; raw slope {raw.slope:.4f} "
        f"(bound curve {bound_slope:.4f}); {elapsed:.0f}s < 900s",
    )


def test_c08_noiseless_exact_recovery():
    # every family with distinct rows: score ordering with
    # tau = (min row gap)/8 recovers a noiseless permuted truth exactly,
    # 100/100 permutations.
    rng = derive_rng(2028)
    cases = {
        "sparse-rows": (16, 8),
        "identical-columns": (16, 8),
        "triangular": (16, 16),
        "random-v-bounded": (16, 8),
    }
    failures = {}
    for family, (n, m) in cases.items():
        truth = draw_truth(family, n, m, rng)
        tau = 0.5 * min_adjacent_row_gap(truth) / 4.0
        bad = 0
        for _ in range(100):
            p = Permutation.random(n, rng)
            y = permute_rows(p, truth)
            fit = rank_score(y, EstimatorConfig(tau=tau))
            if estimation_losses(fit, p, truth).total != 0.0:
                bad += 1
        failures[family] = bad
    ok = all(v == 0 for v in failures.values())
    assert report(
        8, "noiseless exact recovery", ok,
        "; ".join(f"{k}: {100 - v}/100" for k, v in failures.items()),
    )


def test_c09_averaging_regime():
    # constant-column truths: averaging loses sigma^2/n per entry, within a
    # factor 3 at every grid point.
    rng = derive_rng(2029)
    sigma = 1.0
    worst = 1.0
    for n in (64, 128, 256, 512, 1024):
        m = 16
        truth = np.tile(rng.uniform(size=(1, m)), (n, 1))
        total = 0.0
        for _ in range(10):
            p = Permutation.random(n, rng)
            y = permute_rows(p, truth) + draw_noise("gaussian", sigma, n, m, rng)
            total += estimation_losses(averaging_fit(y), p, truth).total
        mean_loss = total / 10
        ratio = mean_loss / (sigma**2 / n)
        worst = max(worst, ratio, 1.0 / ratio)
    ok = worst <= 3.0
    assert report(
        9, "averaging regime", ok, f"worst loss/(sigma^2/n) factor {worst:.2f} <= 3"
    )


def test_c10_figure_preset_byte_determinism(figure1_left_run, tmp_path):
    records_first, _ = figure1_left_run
    records_second = run_figure("1-left", seed=0)
    path_a = tmp_path / "run-a.csv"
    path_b = tmp_path / "run-b.csv"
    emit_csv(records_first, path_a)
    emit_csv(records_second, path_b)
    ok = path_a.read_bytes() == path_b.read_bytes()
    assert report(
        10, "figure preset determinism", ok,
        f"two runs, {len(records_first)} records, byte-identical={ok}",
    )
