"""The three benchmark workloads: the `seriation` CLI calls each one makes, the
operations it counts, and the invariants its outputs must satisfy.

Every input comes from the workload seed: it is the experiment seed or the
generator seed, and the JSON configs written here carry it. The program sees
nothing else. This module imports no numpy at load time, so a worker can
import `seriation` first and measure its set-up cost.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

NAMES = ("score-sparse", "oracle-rate", "cli-pipeline")

# "full" is what a benchmark run measures; "smoke" runs the same calls at
# toy sizes for the benchmark's own self-test and for warm-up.
SIZES = {
    "full": {
        # The figure 1-left preset resolves to these n (m = n); the list lets
        # a run check the records without asking the program for its grid.
        "score-sparse": dict(ns=(64, 95, 141, 210, 312, 464, 689, 1024), extra=()),
        "oracle-rate": dict(grid=((256, 256), (512, 512), (1024, 1024),
                                  (2048, 2048), (4096, 4096)), replications=1),
        "cli-pipeline": dict(n=2048, m=256),
    },
    "smoke": {
        "score-sparse": dict(ns=(8, 16, 32),
                             extra=("--n-min", "8", "--n-max", "32", "--n-points", "3")),
        "oracle-rate": dict(grid=((16, 16), (32, 32)), replications=2),
        "cli-pipeline": dict(n=48, m=12),
    },
}


@dataclass(frozen=True)
class Invocation:
    """One `seriation` CLI call.

    ``files`` are the outputs it writes, digested in this order. ``records``
    is the expected (n, m, method) of each records-CSV line for an
    experiment, and None for any other command: an experiment counts one
    operation per line, any other command one operation.
    """

    argv: tuple[str, ...]
    files: tuple[str, ...] = ()
    records: tuple[tuple[int, int, str], ...] | None = None

    @property
    def ops(self) -> list[str]:
        if self.records is None:
            return [self.label]
        return [f"{self.label}:{n}x{m}:{meth}" for n, m, meth in self.records]

    @property
    def label(self) -> str:
        if self.argv[0] == "estimate":
            return f"estimate-{self.argv[self.argv.index('--method') + 1]}"
        return self.argv[0]


def _experiment_config(path, grid, methods, replications, seed) -> None:
    with open(path, "w") as f:
        json.dump({"family": "random-v-bounded", "methods": list(methods),
                   "grid": [list(c) for c in grid], "replications": replications,
                   "seed": seed}, f)


def plan(workload: str, size: str, seed: int, inputs: str, out: str) -> list[Invocation]:
    """The CLI calls of one workload repetition. Inputs derived from the seed
    are written under ``inputs``; outputs go under ``out``."""
    spec = SIZES[size][workload]
    o = lambda name: os.path.join(out, name)  # noqa: E731
    if workload == "score-sparse":
        methods = ("rankscore", "ranksum", "oracle")
        return [Invocation(
            ("experiment", "--figure", "1-left", "--replications", "1", "--seed", str(seed),
             *spec["extra"], "--out", o("records.csv")),
            files=("records.csv",),
            records=tuple((n, n, meth) for n in spec["ns"] for meth in methods),
        )]
    if workload == "oracle-rate":
        methods = ("oracle",)
        cfg = os.path.join(inputs, f"{workload}.json")
        _experiment_config(cfg, spec["grid"], methods, spec["replications"], seed)
        return [Invocation(
            ("experiment", "--config", cfg, "--out", o("records.csv")),
            files=("records.csv",),
            records=tuple((n, m, meth) for n, m in spec["grid"] for meth in methods),
        )]
    if workload == "cli-pipeline":
        common = ("--in", o("Y.csv"), "--truth", o("A.csv"), "--perm", o("perm.txt"))
        return [
            Invocation(("generate", "--family", "random-v-bounded", "--n", str(spec["n"]),
                        "--m", str(spec["m"]), "--seed", str(seed), "--out", o("A.csv"),
                        "--perm-out", o("perm.txt"), "--obs-out", o("Y.csv")),
                       files=("A.csv", "perm.txt", "Y.csv")),
            Invocation(("metrics", o("A.csv"))),
            Invocation(("estimate", "--method", "ranksum", *common,
                        "--fitted-out", o("F-ranksum.csv")), files=("F-ranksum.csv",)),
            Invocation(("estimate", "--method", "oracle", "--shape", "unimodal", *common,
                        "--fitted-out", o("F-oracle.csv")), files=("F-oracle.csv",)),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


# ---------------------------------------------------------------------------
# Invariants. A digest shows that outputs did not change; these show that
# they are right for seeds that have no stored digest.
# ---------------------------------------------------------------------------


def _record_ok(line: str, expected, seed: int) -> bool:
    f = line.split(",")
    if len(f) != 9 or (int(f[0]), int(f[1]), f[2]) != tuple(expected) or int(f[8]) != seed:
        return False
    total, perm, matrix, log10_total, wall_ms = map(float, f[3:8])
    if not all(math.isfinite(v) and v >= 0 for v in (total, perm, matrix)):
        return False
    # Gaussian noise makes every loss positive; timing is off in records.
    ok = total > 0 and log10_total == math.log10(total) and wall_ms == 0.0
    return ok and (f[2] != "oracle" or perm == 0.0)


def _matrix(path, n, m):
    import numpy as np

    with open(path) as f:
        text = f.read()
    a = np.array(text.replace("\n", ",").split(",")[:-1], dtype=np.float64)
    if a.size != n * m or text.count("\n") != n:
        raise ValueError(f"{path}: expected {n}x{m}")
    return a.reshape(n, m)


def _fit_ok(summary, y, fitted, n, m, method, shape, p_true) -> bool:
    import numpy as np

    p_hat = np.array(summary["p_hat"])
    if (summary["method"], summary["n"], summary["m"], summary["shape"]) != (method, n, m, shape):
        return False
    if not np.array_equal(np.sort(p_hat), np.arange(n)):
        return False
    losses = summary["losses"]
    if not all(math.isfinite(v) and v >= 0 for v in losses.values()):
        return False
    d = y - fitted
    if not math.isclose(summary["sse"], float(np.einsum("ij,ij->", d, d)), rel_tol=1e-11):
        return False
    a_hat = fitted[p_hat]  # shaped rows, in the estimated order
    # A least-squares fit onto these cones is piecewise constant, and each
    # constant piece is the mean of the observations it covers.
    for col, obs in zip(a_hat.T, y[p_hat].T):
        starts = np.concatenate(([0], np.flatnonzero(np.diff(col)) + 1))
        means = np.add.reduceat(obs, starts) / np.diff(np.append(starts, col.size))
        if not np.allclose(means, col[starts], rtol=1e-9, atol=1e-12):
            return False
    steps = np.diff(a_hat, axis=0)
    if shape == "monotone":
        # ranksum orders rows by increasing row sum, then fits increasing columns.
        return bool(np.all(steps >= 0) and np.all(np.diff(y[p_hat].sum(axis=1)) >= 0))
    # oracle: the true order, and every column rises then falls.
    unimodal = all(not np.any(np.diff(np.sign(c[c != 0])) > 0) for c in steps.T)
    return np.array_equal(p_hat, p_true) and losses["perm_only"] == 0.0 and unimodal


def bad_ops(invocations: list[Invocation], stdouts: list[str], out: str, seed: int) -> set[str]:
    """Names of the operations whose outputs under ``out`` break an
    invariant."""
    import numpy as np

    bad = set()
    if invocations[0].records is not None:  # an experiment: one call, one records file
        inv = invocations[0]
        try:
            with open(os.path.join(out, inv.files[0])) as f:
                lines = f.read().splitlines()[1:]
        except OSError:
            lines = []
        for k, (op, exp) in enumerate(zip(inv.ops, inv.records)):
            try:
                if not (k < len(lines) and _record_ok(lines[k], exp, seed)):
                    bad.add(op)
            except ValueError:
                bad.add(op)
        return bad

    argv = invocations[0].argv
    n, m = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--m") + 1])
    checks = {}
    try:
        a = _matrix(os.path.join(out, "A.csv"), n, m)
        y = _matrix(os.path.join(out, "Y.csv"), n, m)
        with open(os.path.join(out, "perm.txt")) as f:
            p = np.array([int(v) for v in f.read().split()])
        checks["generate"] = lambda: (stdouts[0] == "" and np.all(np.diff(a, axis=0) >= 0)
                                      and a.min() >= 0 and a.max() <= 1
                                      and np.array_equal(np.sort(p), np.arange(n)))
        rep = json.loads(stdouts[1])
        checks["metrics"] = lambda: (len(rep["per_column_k"]) == m and 0 <= rep["V"] <= m
                                     and 1 <= rep["R"] <= math.sqrt(m) and rep["K"] <= n * m)
        checks["estimate-ranksum"] = lambda: _fit_ok(
            json.loads(stdouts[2]), y, _matrix(os.path.join(out, "F-ranksum.csv"), n, m),
            n, m, "ranksum", "monotone", p)
        checks["estimate-oracle"] = lambda: _fit_ok(
            json.loads(stdouts[3]), y, _matrix(os.path.join(out, "F-oracle.csv"), n, m),
            n, m, "oracle", "unimodal", p)
    except (OSError, ValueError, IndexError):
        return bad | {inv.label for inv in invocations}
    for label, check in checks.items():
        try:
            if not check():
                bad.add(label)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            bad.add(label)
    return bad
