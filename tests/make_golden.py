"""Golden SHA-256 digests of CLI outputs, and the script that regenerates them.

Every case is one ``seriation`` CLI call, driven in-process through
``cli.main(argv)``; its digests cover what it prints on stdout and every
file it writes. ``tests/test_golden.py`` holds the package to the digests in
``tests/golden.json``. Regenerate them only for an intended output change,
and record the change and its reason in ``CHANGES.md``:

    PYTHONPATH=src python tests/make_golden.py

The numpy and scipy versions are stored next to the digests: other versions
may draw or round differently, so a mismatch is reported, never skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from seriation import cli, experiments, synth

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def plan(d: str) -> list[tuple[str, list[str], list[str]]]:
    """The cases, in run order: (name, argv, files written). Later cases read
    the files of earlier ones; every path is under ``d``."""
    p = lambda name: os.path.join(d, name)  # noqa: E731
    cases = []
    # the records of every preset; figure 2's three m-regimes reach m = 512
    for fig in experiments.FIGURES:
        out = p(f"fig-{fig}.csv")
        cases.append((f"experiment-{fig}", ["experiment", "--figure", fig, "--n-max", "64",
                                            "--out", out], [out]))
    # 300 x 70: three column panels and a partial 64-row tile
    base = p("base-A.csv")
    cases.append(("generate-base", ["generate", "--family", "random-v-bounded", "--n", "300",
                                    "--m", "70", "--seed", "11", "--out", base], [base]))
    for fam in synth.FAMILIES:
        for noise in synth.NOISE_KINDS:
            files = [p(f"{fam}-{noise}-{x}") for x in ("A.csv", "p.txt", "Y.csv")]
            argv = ["generate", "--family", fam, "--n", "300", "--m", "70", "--seed", "3",
                    "--out", files[0], "--perm-out", files[1], "--noise", noise,
                    "--obs-out", files[2]]
            if fam == "custom":
                argv += ["--custom-path", base]
            cases.append((f"generate-{fam}-{noise}", argv, files))
    # 600 x 70: two row blocks of the squared distances
    a, perm, y = p("est-A.csv"), p("est-p.txt"), p("est-Y.csv")
    cases.append(("generate-estimate-input",
                  ["generate", "--family", "random-v-bounded", "--n", "600", "--m", "70",
                   "--seed", "5", "--out", a, "--perm-out", perm, "--obs-out", y], [a, perm, y]))
    small_a, small_p, small_y = p("small-A.csv"), p("small-p.txt"), p("small-Y.csv")
    cases.append(("generate-exhaustive-input",
                  ["generate", "--family", "random-v-bounded", "--n", "6", "--m", "5",
                   "--seed", "2", "--sigma", "0.3", "--out", small_a, "--perm-out", small_p,
                   "--obs-out", small_y], [small_a, small_p, small_y]))
    runs = [
        ("rankscore", ["--method", "rankscore"]),
        ("rankscore-tau1", ["--method", "rankscore", "--tau", "1"]),
        ("rankscore-tau-rule", ["--method", "rankscore", "--tau-rule"]),
        ("rankscore-tau-rule-c", ["--method", "rankscore", "--tau-rule", "--tau-c", "0.1",
                                  "--sigma", "0.5"]),
        ("ranksum", ["--method", "ranksum"]),
        ("oracle-monotone", ["--method", "oracle"]),
        ("oracle-unimodal", ["--method", "oracle", "--shape", "unimodal"]),
        ("average", ["--method", "average"]),
    ]
    for name, flags in runs:
        fitted = p(f"fit-{name}.csv")
        cases.append((f"estimate-{name}", ["estimate", *flags, "--in", y, "--truth", a,
                                           "--perm", perm, "--fitted-out", fitted], [fitted]))
    for shape in ("monotone", "unimodal"):
        fitted = p(f"fit-exhaustive-{shape}.csv")
        cases.append((f"estimate-exhaustive-{shape}",
                      ["estimate", "--method", "exhaustive", "--shape", shape, "--in", small_y,
                       "--truth", small_a, "--perm", small_p, "--fitted-out", fitted], [fitted]))
    cases.append(("metrics-truth", ["metrics", a], []))
    cases.append(("metrics-observation", ["metrics", y], []))
    cases.append(("metrics-observation-quantized", ["metrics", y, "--quantize", "0.25"], []))
    # 800 x 16, five blocks: identical rows, and R's rows in 13 blocks, whose
    # pending scores wait in one panel per block
    blocks = p("blocks-A.csv")
    cases.append(("generate-blocks", ["generate", "--family", "random-k-blocks", "--n", "800",
                                      "--m", "16", "--seed", "4", "--out", blocks], [blocks]))
    cases.append(("metrics-blocks", ["metrics", blocks], []))
    return cases


def run_case(argv: list[str], files: list[str]) -> dict:
    """Run one CLI call; the SHA-256 of its stdout and of each file written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"seriation {' '.join(argv)} exited {rc}: {err.getvalue()}")
    digests = {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    for path in files:
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def compute(d: str) -> dict:
    """Run every case in the directory ``d``; digests by case name."""
    return {name: run_case(argv, files) for name, argv, files in plan(d)}


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        digests = compute(d)
    GOLDEN.write_text(json.dumps({"versions": versions(), "cases": digests}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
