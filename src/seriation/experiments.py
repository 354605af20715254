"""Batch experiment runner: loss-vs-size curves over seeded replications.

A run walks a grid of (n, m) cells; in each cell it draws ``replications``
independent instances (truth matrix, uniformly random true permutation,
noise), runs every requested method on the same instances, and averages the
per-entry squared losses. One output record per (cell, method).

Reproducibility contract: the record stream is a pure function of the
configuration. Every instance is generated from a generator derived from
``(seed, n, m, replication)``, so cells and replications are independent of
execution order and could run concurrently. Wall times are measured but
reported as 0.0 unless timing is requested, because real timings would break
byte-identical reruns of the output CSV.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import Permutation, _check_choice, _check_instance, _check_path, derive_rng
from .estimators import (
    EXHAUSTIVE_ROW_CAP,
    METHODS,
    EstimatorConfig,
    estimation_losses,
    fit,
)
from .synth import FAMILIES, _observe, check_noise, draw_noise, draw_truth

M_RULES = ("n^1/2", "n", "n^3/2")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, generator, noise and method selection for one run.

    The grid is either explicit (n, m) pairs with strictly increasing n, or
    derived from ``n_points`` values of n equally spaced on the base-10
    logarithmic scale between ``n_min`` and ``n_max`` (rounded, deduplicated)
    with m given by ``m_rule``.
    """

    family: str
    methods: tuple[str, ...]
    grid: tuple[tuple[int, int], ...] | None = None
    m_rule: str | None = None
    n_min: int | None = None
    n_max: int | None = None
    n_points: int = 30
    replications: int = 10
    blocks: int = 5
    noise_kind: str = "gaussian"
    sigma: float = 1.0
    tau: float | None = 6.0
    tau_constant: float | None = None
    seed: int = 0
    out_path: str | None = None

    def __post_init__(self):
        _check_choice(self.family, FAMILIES, "family")
        if self.family == "custom":
            raise ValueError("experiments generate their own truths; custom is CLI-only")
        # a bare string would be split into one-letter method names
        if isinstance(self.methods, str) or not hasattr(self.methods, "__iter__"):
            raise ValueError("methods must be a list of method names")
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("at least one method required")
        for m in methods:
            _check_choice(m, METHODS, "method")
        object.__setattr__(self, "methods", methods)
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise ValueError(f"out_path must be a path string, got {self.out_path!r}")
        check_noise(self.noise_kind, self.sigma)
        for name in ("replications", "blocks", "seed", "n_min", "n_max", "n_points"):
            value = getattr(self, name)
            if not _is_int(value) and not (value is None and name in ("n_min", "n_max")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1 or self.blocks < 1:
            raise ValueError("replications and blocks must be >= 1")
        # sigma scales the noise of every method and the rankscore threshold;
        # all three must be finite and >= 0, as the estimator requires
        EstimatorConfig(sigma=self.sigma, tau=self.tau, tau_constant=self.tau_constant)
        if "rankscore" in methods and self.tau is None and self.tau_constant is None:
            raise ValueError("rankscore needs tau or tau_constant")
        if self.grid is not None:
            # JSON gives lists; a string or a flat pair is no list of cells
            if not isinstance(self.grid, (list, tuple)) or not all(
                    isinstance(cell, (list, tuple)) and len(cell) == 2 for cell in self.grid):
                raise ValueError(f"grid must be a list of [n, m] pairs, got {self.grid!r}")
            if not all(_is_int(v) for cell in self.grid for v in cell):
                raise ValueError(f"grid entries must be integers, got {self.grid!r}")
            grid = tuple((int(n), int(m)) for n, m in self.grid)
            if any(n < 1 or m < 1 for n, m in grid):
                raise ValueError("grid entries must be positive")
            ns = [n for n, _ in grid]
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise ValueError("grid n values must be strictly increasing")
            object.__setattr__(self, "grid", grid)
        else:
            if self.n_min is None or self.n_max is None or self.m_rule is None:
                raise ValueError("either grid or (n_min, n_max, m_rule) required")
            _check_choice(self.m_rule, M_RULES, "m rule")
            if not 1 <= self.n_min <= self.n_max:
                raise ValueError("need 1 <= n_min <= n_max")
            if self.n_points < 2:
                raise ValueError("n_points must be >= 2")

    def resolved_grid(self) -> tuple[tuple[int, int], ...]:
        if self.grid is not None:
            return self.grid
        logs = np.linspace(math.log10(self.n_min), math.log10(self.n_max), self.n_points)
        ns = []
        for v in np.round(10.0 ** logs).astype(int):
            n = max(1, int(v))
            if not ns or n > ns[-1]:
                ns.append(n)
        return tuple((n, _apply_m_rule(self.m_rule, n)) for n in ns)


def _apply_m_rule(rule: str, n: int) -> int:
    """m for ``n`` rows under one of :data:`M_RULES`, checked by the config."""
    if rule == "n^1/2":
        return max(1, round(math.sqrt(n)))
    if rule == "n":
        return n
    return max(1, round(n ** 1.5))


@dataclass(frozen=True)
class ExperimentRecord:
    """Mean losses for one (cell, method): per-entry squared losses averaged
    over the replications, plus log10 of the total for plotting."""

    n: int
    m: int
    method: str
    loss_total: float
    loss_perm: float
    loss_matrix: float
    log10_loss_total: float
    wall_time_ms: float
    seed: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def run_experiment(cfg: ExperimentConfig, timing: bool = False) -> list[ExperimentRecord]:
    """Run the full grid and return one record per (cell, method).

    Within a cell, all methods see the same replications. Deterministic given
    the configuration; ``timing=True`` fills real wall times at the cost of
    byte-reproducible output.
    """
    grid = _check_instance(cfg, ExperimentConfig, "cfg").resolved_grid()
    if "exhaustive" in cfg.methods:
        worst = max(n for n, _ in grid)
        if worst > EXHAUSTIVE_ROW_CAP:
            raise ValueError(
                f"exhaustive method on a grid with n={worst} refused: "
                f"n! row orders beyond n={EXHAUSTIVE_ROW_CAP} is not desk scale"
            )
    est = EstimatorConfig(sigma=cfg.sigma, tau=cfg.tau, tau_constant=cfg.tau_constant)
    records = []
    for n, m in grid:
        sums = {meth: np.zeros(3) for meth in cfg.methods}
        times = dict.fromkeys(cfg.methods, 0.0)
        for rep in range(cfg.replications):
            rng = derive_rng(cfg.seed, n, m, rep)
            truth = draw_truth(cfg.family, n, m, rng, blocks=cfg.blocks)
            p_true = Permutation.random(n, rng)
            # the observation is built in the noise buffer
            y = _observe(truth, p_true, draw_noise(cfg.noise_kind, cfg.sigma, n, m, rng))
            for meth in cfg.methods:
                t0 = time.perf_counter()
                result = fit(meth, y, est, p_true)
                times[meth] += (time.perf_counter() - t0) * 1e3
                losses = estimation_losses(result, p_true, truth)
                sums[meth] += (losses.total, losses.perm_only, losses.matrix_only)
                # drop each fit and instance before the next is made: the
                # peak is one instance (truth, y) and one fit's a_hat
                del result
            del truth, y
        for meth in cfg.methods:
            total, perm, matrix = sums[meth] / cfg.replications
            records.append(
                ExperimentRecord(
                    n=n,
                    m=m,
                    method=meth,
                    loss_total=float(total),
                    loss_perm=float(perm),
                    loss_matrix=float(matrix),
                    log10_loss_total=math.log10(total) if total > 0 else -math.inf,
                    wall_time_ms=times[meth] if timing else 0.0,
                    seed=cfg.seed,
                )
            )
    return records


def fit_loglog_slope(records, x: str = "n", y: str = "loss_total") -> SlopeFit:
    """Ordinary least squares of log10(y) on log10(x) over the records.

    Requires at least three records, each with numeric attributes ``x``
    and ``y``, and finite, strictly positive values (a zero loss has no
    logarithm; add noise to the experiment if that happens). Records that
    carry an ``m`` must not repeat an x value with a different m: such
    records pool several (n, m) regimes into one line.
    """
    try:
        records = list(records)  # read once: records may be a generator
        xs = np.array([float(getattr(r, x)) for r in records])
        ys = np.array([float(getattr(r, y)) for r in records])
    except (AttributeError, TypeError) as e:  # also a field name that is no str
        raise ValueError(f"records need numeric fields {x!r} and {y!r}: {e}") from None
    if xs.size < 3:
        raise ValueError("need at least 3 records to fit a slope")
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError(f"{x} values must be finite and positive for a log-log slope")
    # a NaN or an inf has no place on the line either
    if not np.all(np.isfinite(ys) & (ys > 0)):
        raise ValueError(
            f"{y} contains non-positive values; log-log slope undefined "
            "(run the experiment with noise)"
        )
    m_at = {}
    for xv, r in zip(xs, records):
        if hasattr(r, "m") and m_at.setdefault(xv, r.m) != r.m:
            raise ValueError(f"{x} = {xv:g} repeats with m = {m_at[xv]} and m = {r.m}; "
                             "fit one m-regime at a time")
    lx = np.log10(xs)
    ly = np.log10(ys)
    vx = lx - lx.mean()
    denom = float(np.dot(vx, vx))
    if denom == 0.0:
        raise ValueError("all x values identical; slope undefined")
    slope = float(np.dot(vx, ly - ly.mean())) / denom
    intercept = float(ly.mean() - slope * lx.mean())
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.dot(resid, resid))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r_squared)


CSV_HEADER = "n,m,method,loss_total,loss_perm,loss_matrix,log10_loss_total,wall_time_ms,seed"


def emit_csv(records, path) -> None:
    """Write records with a fixed field order, 17-significant-digit floats
    and LF line endings."""
    try:
        records = [_check_instance(r, ExperimentRecord, "record") for r in records]
    except TypeError:  # not iterable
        raise ValueError(f"records must be a list of ExperimentRecord, "
                         f"got {type(records).__name__}") from None
    with open(_check_path(path), "w", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            f.write(
                f"{r.n},{r.m},{r.method},{r.loss_total:.17g},{r.loss_perm:.17g},"
                f"{r.loss_matrix:.17g},{r.log10_loss_total:.17g},"
                f"{r.wall_time_ms:.17g},{r.seed}\n"
            )


def read_records_csv(path) -> list[ExperimentRecord]:
    """Read a records CSV written by :func:`emit_csv`. Every rejection
    raises ``ValueError`` naming the path; a bad record also names its
    1-based line."""
    records = []
    with open(_check_path(path), "r") as f:
        try:
            header = f.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    # the fields in CSV_HEADER order, which is the record's
                    n, m, method, lt, lp, lm, l10, wt, seed = line.split(",")
                    records.append(ExperimentRecord(int(n), int(m), method, float(lt),
                                                    float(lp), float(lm), float(l10),
                                                    float(wt), int(seed)))
                except ValueError as e:
                    raise ValueError(f"{path}: bad record at line {lineno}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    return records


# ---------------------------------------------------------------------------
# Figure presets. Desk-scale ranges: a full preset runs in minutes; pass a
# larger n_max for paper-scale curves.
# ---------------------------------------------------------------------------

FIGURES = ("1-left", "1-right", "2-left", "2-right", "3")

_PRESET_BASE = {
    "1-left": dict(
        family="sparse-rows",
        methods=("rankscore", "ranksum", "oracle"),
        m_rule="n",
        n_min=64,
        n_max=1024,
        n_points=8,
    ),
    "1-right": dict(
        family="identical-columns",
        methods=("rankscore", "ranksum", "oracle"),
        m_rule="n",
        n_min=64,
        n_max=1024,
        n_points=8,
    ),
    "2-left": dict(
        family="random-k-blocks",
        methods=("rankscore", "oracle"),
        n_min=16,
        n_max=256,
        n_points=7,
    ),
    "2-right": dict(
        family="random-v-bounded",
        methods=("rankscore", "oracle"),
        n_min=16,
        n_max=256,
        n_points=7,
    ),
    "3": dict(
        family="triangular",
        methods=("rankscore", "oracle"),
        m_rule="n",
        n_min=16,
        n_max=1024,
        n_points=8,
    ),
}


def figure_configs(name: str, n_min: int | None = None, n_max: int | None = None,
                   n_points: int | None = None, replications: int = 10,
                   seed: int = 0) -> list[ExperimentConfig]:
    """Configurations reproducing one of the preset figures.

    Figure 2 compares three (n, m) regimes, so its presets expand to three
    configurations (m = sqrt(n), m = n, m = n^1.5); the other presets are a
    single configuration each.
    """
    _check_choice(name, FIGURES, "figure")
    base = dict(_PRESET_BASE[name])
    if n_min is not None:
        base["n_min"] = n_min
    if n_max is not None:
        base["n_max"] = n_max
    if n_points is not None:
        base["n_points"] = n_points
    rules = M_RULES if name.startswith("2-") else (base.pop("m_rule"),)
    return [
        ExperimentConfig(
            replications=replications, seed=seed, sigma=1.0, tau=6.0,
            m_rule=rule, **base,
        )
        for rule in rules
    ]


def run_figure(name: str, timing: bool = False, **preset_kwargs) -> list[ExperimentRecord]:
    records = []
    for cfg in figure_configs(name, **preset_kwargs):
        records.extend(run_experiment(cfg, timing=timing))
    return records
