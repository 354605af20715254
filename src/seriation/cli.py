"""Command-line interface.

Subcommands:

* ``generate``: write a ground-truth matrix (and optionally a random
  permutation and a noisy observation of it).
* ``metrics``: print the complexity report of a matrix CSV as JSON.
* ``estimate``: run one estimator on an observation CSV, print a JSON
  summary, optionally write the fitted observation.
* ``experiment``: run a figure preset or a JSON-configured grid and write
  the records CSV.

Matrices are headerless CSV (one row per line, '.' decimal, LF endings);
permutations are one 0-based image per line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import experiments, metrics, synth
from .core import read_matrix_csv, read_permutation, write_matrix_csv, write_permutation
from .estimators import METHODS, EstimatorConfig, estimation_losses, fit
from .shape import MONOTONE, UNIMODAL


def _check_out_path(path: str) -> None:
    """Refuse an output path that is a directory or lies in no directory.
    Commands call it before they compute or write anything."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"output path {path}: no directory {os.path.dirname(path)}")


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a ground-truth matrix (+ optional observation)")
    p.add_argument("--family", required=True, choices=synth.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--blocks", type=int, default=5)
    p.add_argument("--custom-path", help="matrix CSV for --family custom")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="truth matrix CSV path")
    p.add_argument("--perm-out", help="also draw a random row permutation and write it here")
    p.add_argument("--noise", choices=synth.NOISE_KINDS, default=None,
                   help="noise of --obs-out (default gaussian)")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise scale of --obs-out (default 1)")
    p.add_argument("--obs-out", help="write permuted truth + noise here (implies --perm-out semantics)")
    p.set_defaults(func=_cmd_generate)


def _cmd_generate(args) -> int:
    noise = "gaussian" if args.noise is None else args.noise
    sigma = 1.0 if args.sigma is None else args.sigma
    # checked before anything is drawn or written, even if no noise is drawn
    synth.check_noise(noise, sigma)
    if not args.obs_out:
        for flag, value in (("--noise", args.noise), ("--sigma", args.sigma)):
            if value is not None:
                raise ValueError(f"{flag} sets the noise of --obs-out, which was not given")
    if args.custom_path is not None and args.family != "custom":
        raise ValueError("--custom-path is the matrix of --family custom; "
                         f"{args.family} draws its own")
    for path in (args.out, args.perm_out, args.obs_out):
        if path:
            _check_out_path(path)
    truth = synth.gen_truth(args.family, args.n, args.m, seed=args.seed,
                            blocks=args.blocks, path=args.custom_path)
    write_matrix_csv(truth, args.out)
    if args.perm_out or args.obs_out:
        p = synth.gen_permutation(args.n, args.seed)
        if args.perm_out:
            write_permutation(p, args.perm_out)
        if args.obs_out:
            # the noise is not kept: the observation is built in its buffer
            y = synth._observe(truth, p, synth.gen_noise(noise, sigma, args.n, args.m, args.seed))
            write_matrix_csv(y, args.obs_out)
    return 0


def _add_metrics(sub):
    p = sub.add_parser("metrics", help="print K/V/R complexity report as JSON")
    p.add_argument("matrix", help="matrix CSV path")
    p.add_argument(
        "--quantize", type=float, default=None,
        help="snap values to multiples of this width before counting distinct levels",
    )
    p.set_defaults(func=_cmd_metrics)


def _cmd_metrics(args) -> int:
    a = read_matrix_csv(args.matrix)
    report = metrics.complexity_report(a, quantize=args.quantize)
    print(json.dumps(report.to_json_dict(), allow_nan=False))
    return 0


def _add_estimate(sub):
    p = sub.add_parser("estimate", help="run one estimator on an observation CSV")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--shape", choices=("monotone", "unimodal"), default="monotone")
    tau = p.add_mutually_exclusive_group()
    tau.add_argument("--tau", type=float, default=None,
                     help="score threshold (default 6 unless --tau-rule)")
    tau.add_argument("--tau-rule", action="store_true",
                     help="derive tau as 3*sigma*sqrt((C+1)*log(n*m))")
    p.add_argument("--tau-c", type=float, default=None,
                   help="constant C for --tau-rule (default 1)")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise level for --tau-rule (default 1)")
    p.add_argument("--in", dest="observation", required=True, help="observation CSV path")
    p.add_argument("--truth", help="true matrix CSV, enables loss reporting (needs --perm)")
    p.add_argument("--perm", help="true permutation file (required for oracle and --truth)")
    p.add_argument("--fitted-out", help="write the fitted observation matrix here")
    p.set_defaults(func=_cmd_estimate)


def _cmd_estimate(args) -> int:
    if args.truth and not args.perm:
        raise ValueError("--truth needs the true permutation (--perm) to score the fit")
    if args.tau_c is not None and not args.tau_rule:
        raise ValueError("--tau-c is the constant of --tau-rule, which was not given")
    shape = UNIMODAL if args.shape == "unimodal" else MONOTONE
    sigma = 1.0 if args.sigma is None else args.sigma
    if args.tau_rule:
        cfg = EstimatorConfig(shape=shape, sigma=sigma,
                              tau_constant=1.0 if args.tau_c is None else args.tau_c)
    else:
        cfg = EstimatorConfig(shape=shape, sigma=sigma,
                              tau=6.0 if args.tau is None else args.tau)
    # the values are checked above; a flag that would change nothing is an error
    if args.method != "rankscore":
        for flag, given in (("--tau", args.tau is not None), ("--tau-rule", args.tau_rule)):
            if given:
                raise ValueError(f"{flag} sets the score threshold of --method rankscore; "
                                 f"{args.method} has none")
    if args.sigma is not None and not args.tau_rule:
        raise ValueError("--sigma is the noise level of --tau-rule, which was not given")
    if args.fitted_out:
        _check_out_path(args.fitted_out)
    y = read_matrix_csv(args.observation)
    n, m = y.shape
    p_true = read_permutation(args.perm) if args.perm else None
    result = fit(args.method, y, cfg, p_true)

    summary = {
        "method": args.method,
        "n": n,
        "m": m,
        "shape": args.shape,
        # only the score-based estimator thresholds, and only it has scores
        "tau": None if result.scores is None else cfg.resolve_tau(n, m),
        "sse": result.sse,
        "p_hat": [int(v) for v in result.p_hat.mapping],
    }
    if result.scores is not None:
        summary["scores"] = [int(s) for s in result.scores]
    summary["losses"] = None
    if args.truth:
        losses = estimation_losses(result, p_true, read_matrix_csv(args.truth))
        summary["losses"] = dataclasses.asdict(losses)  # total, perm_only, matrix_only
    line = json.dumps(summary, allow_nan=False)
    # a call that fails prints nothing
    if args.fitted_out:
        write_matrix_csv(result.m_hat, args.fitted_out)
    print(line)
    return 0


# figure_configs keywords that --figure runs take from flags of the same name
_PRESET_KEYS = ("n_min", "n_max", "n_points", "replications", "seed")


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a preset figure or a JSON-configured grid")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", choices=experiments.FIGURES)
    group.add_argument("--config", help="JSON file mirroring ExperimentConfig fields")
    # left unset, the preset's own values hold (10 replications, seed 0)
    for key in _PRESET_KEYS:
        p.add_argument("--" + key.replace("_", "-"), type=int, default=None,
                       help="--figure only")
    p.add_argument("--out", help="records CSV path (default figure-<name>.csv)")
    p.add_argument("--timing", action="store_true",
                   help="record real wall times (breaks byte-identical reruns)")
    p.add_argument("--slope", action="store_true",
                   help="also print a log-log slope fit per m-regime and method as JSON")
    p.set_defaults(func=_cmd_experiment)


def _cmd_experiment(args) -> int:
    preset = {k: getattr(args, k) for k in _PRESET_KEYS if getattr(args, k) is not None}
    if args.figure:
        configs = experiments.figure_configs(args.figure, **preset)
        out = args.out or f"figure-{args.figure}.csv"
    else:
        if preset:
            flags = ", ".join("--" + k.replace("_", "-") for k in preset)
            raise ValueError(f"{flags} apply to --figure presets only; "
                             "with --config, set these fields in the config file")
        with open(args.config) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object of field values")
        fields = dataclasses.fields(experiments.ExperimentConfig)
        known = {f.name for f in fields}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown config fields {sorted(unknown)}; expected a subset of {sorted(known)}"
            )
        missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config fields {sorted(missing)}")
        configs = [experiments.ExperimentConfig(**raw)]
        out = args.out or configs[0].out_path
        if not out:
            raise ValueError("no output path: pass --out or set out_path in the config")
    # refused before any run; the file itself is first opened by emit_csv, so
    # a failed run leaves an earlier records file as it was
    _check_out_path(out)
    # one run per configuration, which keeps its own records for --slope
    runs = [(cfg, experiments.run_experiment(cfg, timing=args.timing)) for cfg in configs]
    records = [r for _, regime_records in runs for r in regime_records]
    experiments.emit_csv(records, out)
    print(f"wrote {len(records)} records to {out}", file=sys.stderr)
    if args.slope:
        # one slope per (regime, method)
        for cfg, regime_records in runs:
            regime = "grid" if cfg.grid is not None else cfg.m_rule
            for method in cfg.methods:
                line = {"regime": regime, "method": method}
                try:
                    fitres = experiments.fit_loglog_slope(
                        [r for r in regime_records if r.method == method])
                except ValueError as e:
                    print(json.dumps({**line, "error": str(e)}))
                    continue
                print(json.dumps({**line, "slope": fitres.slope, "intercept": fitres.intercept,
                                  "r_squared": fitres.r_squared}, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seriation",
        description="Noisy seriation: generators, estimators, metrics and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_metrics(sub)
    _add_estimate(sub)
    _add_experiment(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
