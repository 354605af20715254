"""Bounded fuzz of ``seriation.cli.main(argv)``: every call ends in exit
code 0, or in exit code 2 with an ``error:`` line and no traceback, and
whatever it prints to stdout is strict JSON. Matrices stay at n, m <= 12.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seriation.cli import main
from seriation.estimators import METHODS
from seriation.synth import FAMILIES, NOISE_KINDS


def mostly(good, odd, one_in=8):
    """``odd`` about once in ``one_in`` draws, ``good`` otherwise: a call
    draws several of these, and most calls should still get through."""
    # hypothesis leans to the low end of a range, so the odd branch sits at
    # the top
    return st.integers(1, one_in).flatmap(lambda k: odd if k == one_in else good)


# One field of a CSV file replaced by a value past the float64 edge, or by a
# form a hand-made file gets wrong; "ragged" adds a field to one row.
CSV_FAULTS = ("nan", "inf", "1e308", "-1e308", "1_0", "#", "1 # c", '"1"', "x", "", " 2 ",
              "ragged")

# JSON values that are not what a config field expects
ODD_JSON = st.sampled_from(["1", "6", "oracle", True, False, None, [1], [[1.0]], {"a": 1},
                            -1, 0, 1.5, 1e308])

SIZES = st.integers(1, 12)


@st.composite
def csv_text(draw, n, m):
    a = draw(arrays(np.float64, (n, m), elements=st.floats(-1e3, 1e3)))
    rows = [[repr(v) for v in row] for row in a.tolist()]
    fault = draw(mostly(st.none(), st.sampled_from(CSV_FAULTS), one_in=3))
    k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    if fault == "ragged":
        rows[k].append("1")
    elif fault is not None:
        rows[k][j] = fault
    blank = draw(st.sampled_from(["", "\n", " \n"]))
    return blank + blank.join(",".join(row) + "\n" for row in rows)


@st.composite
def permutation_text(draw, n):
    p = draw(mostly(st.permutations(range(n)), st.sampled_from(
        [[0] * n, list(range(n + 1)), ["x"], [-1], [1.5], [], [2**63], ["1_0"], ["\u0661"]])))
    return "".join(f"{v}\n" for v in p)


@st.composite
def config_json(draw):
    fields = {
        "family": st.sampled_from([f for f in FAMILIES if f != "custom"]),
        "methods": st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True),
        "replications": st.integers(1, 2),
        "sigma": st.sampled_from([0, 0.5, 1]),
        "tau": st.sampled_from([None, 6, 0.5]),
        "tau_constant": st.sampled_from([None, 1.0]),
        "noise_kind": st.sampled_from(NOISE_KINDS),
        "blocks": st.integers(1, 3),
        "seed": st.integers(0, 3),
    }
    # exhaustive fits n! orders per cell: grids stop at n = 5, or go past
    # its cap of 8
    if draw(st.booleans()):
        fields["grid"] = st.sets(st.tuples(st.integers(1, 5), SIZES), min_size=1,
                                 max_size=3).map(lambda cells: [list(c) for c in sorted(cells)])
    else:
        fields.update(n_min=st.integers(1, 5), n_max=st.one_of(st.just(5), st.integers(9, 12)),
                      n_points=st.integers(2, 3), m_rule=st.sampled_from(["n^1/2", "n"]))
    # each field is odd about once in twelve configs
    cfg = {name: draw(mostly(good, ODD_JSON, one_in=12)) for name, good in fields.items()}
    # tau and tau_constant together are an error: keep both in about one
    # such config in twelve, so that most rule configs still run
    if cfg["tau"] in (6, 0.5) and cfg["tau_constant"] == 1.0 and \
            draw(mostly(st.just(True), st.just(False), one_in=12)):
        cfg["tau"] = None
    fault = draw(mostly(st.none(), st.sampled_from(["unknown", "missing", "list", "bare-string"])))
    if fault == "unknown":
        cfg["volume"] = 11
    elif fault == "missing":
        del cfg["methods"]
    elif fault == "list":
        cfg = [cfg]
    elif fault == "bare-string":
        cfg = "oracle"
    return cfg


NUMBERS = mostly(st.sampled_from(["0", "0.5", "1", "6"]),
                 st.sampled_from(["-1", "nan", "inf", "1e308"]))


@st.composite
def cli_calls(draw):
    """(argv with {dir} for the work directory, {file name: content})."""
    command = draw(st.sampled_from(["generate", "metrics", "estimate", "experiment"]))
    files = {}
    if command == "generate":
        family = draw(st.sampled_from(FAMILIES))
        n, m = draw(mostly(SIZES, st.just(0))), draw(SIZES)
        argv = ["generate", "--family", family, "--n", str(n), "--m", str(m),
                "--out", "{dir}/a.csv", "--blocks", str(draw(st.integers(0, 13))),
                "--seed", draw(mostly(st.sampled_from(["0", "7"]),
                                      st.sampled_from(["-1", str(2**64)])))]
        if family == "custom" and draw(st.integers(0, 3)):
            # a sorted CSV is a monotone truth, unless a fault breaks it
            files["c.csv"] = draw(csv_text(max(n, 1), m)) if draw(st.booleans()) else \
                "".join(",".join(str(i) for _ in range(m)) + "\n" for i in range(n))
            argv += ["--custom-path", "{dir}/c.csv"]
        outputs = draw(st.sampled_from([[], ["--perm-out", "{dir}/p.txt"],
                                        ["--obs-out", "{dir}/y.csv"]]))
        argv += outputs
        # the noise flags are an error without --obs-out
        if draw(mostly(st.just(bool(outputs) and outputs[0] == "--obs-out"),
                       st.just(not outputs or outputs[0] != "--obs-out"))):
            argv += ["--noise", draw(st.sampled_from(NOISE_KINDS)), "--sigma", draw(NUMBERS)]
    elif command == "metrics":
        files["y.csv"] = draw(csv_text(draw(SIZES), draw(SIZES)))
        argv = ["metrics", "{dir}/y.csv"]
        if draw(st.booleans()):
            argv += ["--quantize", draw(NUMBERS)]
    elif command == "estimate":
        method = draw(st.sampled_from(METHODS))
        # exhaustive fits n! orders: small n, or n past its cap
        n = draw(st.one_of(st.integers(1, 4), st.integers(9, 12))) if method == "exhaustive" \
            else draw(SIZES)
        m = draw(SIZES)
        files["y.csv"] = draw(csv_text(n, m))
        argv = ["estimate", "--method", method, "--in", "{dir}/y.csv",
                "--shape", draw(st.sampled_from(["monotone", "unimodal"]))]
        # only rankscore has a threshold, and --sigma only enters --tau-rule;
        # "both" is an argparse error
        thresholds = st.sampled_from(["default", "tau", "rule"])
        threshold = draw(mostly(thresholds, st.sampled_from(["tau", "rule", "both"]))
                         if method == "rankscore" else
                         mostly(st.just("default"), thresholds))
        if threshold in ("tau", "both"):
            argv += ["--tau", draw(NUMBERS)]
        if threshold in ("rule", "both"):
            argv += ["--tau-rule", "--tau-c", draw(NUMBERS)]
        if draw(mostly(st.just(threshold == "rule"), st.just(threshold != "rule"))):
            argv += ["--sigma", draw(NUMBERS)]
        if draw(mostly(st.just(method == "oracle"), st.booleans())):
            files["p.txt"] = draw(permutation_text(n))
            argv += ["--perm", "{dir}/p.txt"]
            if draw(st.booleans()):
                files["a.csv"] = draw(csv_text(n, m))
                argv += ["--truth", "{dir}/a.csv"]
        if draw(st.booleans()):
            argv += ["--fitted-out", "{dir}/f.csv"]
    else:
        files["cfg.json"] = json.dumps(draw(config_json()))
        argv = ["experiment", "--config", "{dir}/cfg.json"]
        if draw(mostly(st.just(True), st.just(False))):
            argv += ["--out", "{dir}/r.csv"]
        if draw(st.booleans()):
            argv.append("--slope")
    return argv, files


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=cli_calls())
def test_cli_exits_cleanly(tmp_path_factory, call):
    argv, files = call
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (work / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{dir}", str(work)) for a in argv])
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert any("error:" in line for line in err.splitlines()), (argv, err)
    assert "Traceback" not in err
    for line in out.splitlines():
        json.loads(line, parse_constant=_strict_constant)
