"""Write REPRODUCTION.md: what the five figure presets show at their defaults.

Runs `seriation experiment --figure NAME --slope --out FILE` once per preset,
in this interpreter through `seriation.cli.main`, then records per (regime,
method) the log-log slope of the mean loss against n and its r², and, at
the largest n of each regime, the loss ratios rankscore/oracle and
ranksum/rankscore. The seed and the package, numpy and scipy versions head
the file. The five presets take about 15 s together on a 2-core host.

    PYTHONPATH=src python scripts/make_reproduction.py
    git diff --exit-code REPRODUCTION.md   # exit 1 if the committed ledger was stale

Refresh the ledger only with an intended output change, and say why in
CHANGES.md.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import scipy

import seriation
from seriation import cli
from seriation.experiments import FIGURES, figure_configs, read_records_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "REPRODUCTION.md")


def run_preset(name: str, out: str) -> list[dict]:
    """One in-process CLI call; the JSON slope lines it prints."""
    argv = ["experiment", "--figure", name, "--slope", "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"seriation {' '.join(argv)} exited {rc}: {stderr.getvalue()}")
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _ratio(losses: dict, num: str, den: str) -> str:
    if num not in losses or den not in losses:
        return "–"
    return f"{losses[num] / losses[den]:.3f}"


def preset_section(name: str, tmp: str) -> list[str]:
    out = os.path.join(tmp, f"figure-{name}.csv")
    slopes = run_preset(name, out)
    records = read_records_csv(out)
    configs = figure_configs(name)
    cfg = configs[0]
    lines = [
        f"## Figure {name}",
        "",
        f"`seriation experiment --figure {name} --slope`: family `{cfg.family}`, "
        f"n from {cfg.n_min} to {cfg.n_max} ({cfg.n_points} points), "
        f"{cfg.replications} replications, σ = {cfg.sigma}, τ = {cfg.tau}.",
        "",
        "| regime (m) | method | slope | r² |",
        "|---|---|---|---|",
    ]
    for s in slopes:
        if "error" in s:
            lines.append(f"| {s['regime']} | {s['method']} | – | {s['error']} |")
        else:
            lines.append(f"| {s['regime']} | {s['method']} | {s['slope']:.4f} "
                         f"| {s['r_squared']:.4f} |")
    lines += [
        "",
        "| regime (m) | largest n | m | rankscore / oracle | ranksum / rankscore |",
        "|---|---|---|---|---|",
    ]
    for c in configs:
        # each regime's largest cell; the regimes' m differ at any n > 1
        n_max, m = c.resolved_grid()[-1]
        last = {r.method: r.loss_total for r in records if (r.n, r.m) == (n_max, m)}
        lines.append(f"| {c.m_rule} | {n_max} | {m} | {_ratio(last, 'rankscore', 'oracle')} "
                     f"| {_ratio(last, 'ranksum', 'rankscore')} |")
    return lines + [""]


def render() -> str:
    seeds = sorted({c.seed for name in FIGURES for c in figure_configs(name)})
    lines = [
        "# Reproduction ledger",
        "",
        "What the five figure presets of `seriation experiment` show at their",
        "defaults. Each slope is the least-squares line of log10(mean per-entry",
        "loss) on log10(n) over one regime's grid; a regime is one rule for m.",
        "The ratios compare the mean total losses of two methods at the largest",
        "n of the regime. Generated by `scripts/make_reproduction.py`; every",
        "number here is a deterministic function of the seed and the versions.",
        "",
        f"- seed: {', '.join(map(str, seeds))}",
        f"- seriation {seriation.__version__}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}",
        "",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIGURES:
            lines += preset_section(name, tmp)
    return "\n".join(lines).rstrip("\n") + "\n"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with open(LEDGER, "w", encoding="utf-8", newline="\n") as f:
        f.write(render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
