"""Run one benchmark workload inside this fresh interpreter.

Started by run.py, never imported. `seriation` is imported before anything
else, so the clock reading taken once it is ready covers exactly the
program's own set-up. Each CLI call of the workload goes through
`seriation.cli.main(argv)` in-process. Outputs are digested and checked
after each repetition's timing stops. The last line of stdout is one JSON
object for run.py.

    python3 bench/worker.py --probe    # print the monotonic clock once seriation is ready
"""

import time

import seriation
import seriation.cli

seriation.cli.build_parser()
READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def invoke(argv, rec=None):
    """One CLI call: (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if rec is None:
                rc = seriation.cli.main(list(argv))
            else:
                rc = rec.call(rec.intern(f"cli.{argv[0]}"), seriation.cli.main, (list(argv),), {})[1]
        except SystemExit as e:  # argparse rejects arguments by exiting
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def run_rep(invs, out, rec=None):
    """Run the workload's CLI calls once; returns (seconds, results)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    results = []
    t0 = time.perf_counter()
    for k, inv in enumerate(invs):
        if rec is not None:
            rec.run_id = k
        results.append(invoke(inv.argv, rec))
    return time.perf_counter() - t0, results


def _sha(*pieces: bytes) -> str:
    h = hashlib.sha256()
    for p in pieces:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _op_digests(inv, stdout: bytes, files: list) -> dict:
    """Digest per operation: one per records line (with the header), or one
    over the stdout and every file of a call."""
    if inv.records is None:
        pieces = [stdout]
        for name, data in zip(inv.files, files):
            pieces += [name.encode(), data]
        return {inv.label: _sha(*pieces)}
    lines = files[0].splitlines(keepends=True)
    if len(lines) != len(inv.ops) + 1:
        return dict.fromkeys(inv.ops)
    return {op: _sha(lines[0], line) for op, line in zip(inv.ops, lines[1:])}


def _outputs(inv, out):
    files = []
    for name in inv.files:
        with open(os.path.join(out, name), "rb") as f:
            files.append(f.read())
    return files


def digest_rep(invs, results, out) -> dict:
    digests = {}
    for inv, (rc, stdout, _) in zip(invs, results):
        try:
            if rc != 0:
                raise OSError(f"exit code {rc}")
            digests.update(_op_digests(inv, stdout.encode(), _outputs(inv, out)))
        except OSError:
            digests.update(dict.fromkeys(inv.ops))
    return digests


def failed_ops(digests: dict, ref: dict, bad: set) -> list:
    return [op for op, h in digests.items() if h is None or h != ref.get(op) or op in bad]


def _flip(data: bytes) -> bytes:
    """The same bytes with one changed: the first byte of the second line."""
    if not data:
        return b"\x01"
    i = data.find(b"\n") + 1
    i = i if 0 < i < len(data) else 0
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def self_check(inv, stdout: bytes, out, ref: dict) -> bool:
    """A perturbed copy of the first operation's output must count as failed."""
    files = _outputs(inv, out)
    if files:
        files[0] = _flip(files[0])
    else:
        stdout = _flip(stdout)
    digests = _op_digests(inv, stdout, files)
    return inv.ops[0] in failed_ops(digests, ref, set())


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(rec, wall_traced: float, wall_untraced: float) -> dict:
    s = spans.summarize(rec)
    names = s["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    m = {}
    for layer, v in s["layers"].items():
        m[f"{layer}.busy_s"] = v["busy_s"]
        m[f"{layer}.self_s"] = v["self_s"]
    for name in ("core.check_matrix", "core.permute_rows", "core.frobenius_sq_dist",
                 "core.write_matrix_csv", "core.read_matrix_csv", "synth.draw_truth",
                 "synth.draw_noise", "shape.project_columns.monotone",
                 "shape.project_columns.unimodal", "metrics.pairwise_gaps",
                 "metrics.complexity_report", "estimators.estimation_losses",
                 "experiments.emit_csv", "cli.generate", "cli.metrics", "cli.estimate"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("estimators.rank_score", "estimators.oracle_fit",
                 "experiments.run_experiment", "cli.experiment"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["core.check_matrix.calls"] = get("core.check_matrix", "calls")
    m["shape.project_columns.monotone.calls"] = get("shape.project_columns.monotone", "calls")

    t = rec.totals
    for key in ("core.csv_written_bytes", "core.csv_read_bytes", "synth.bytes_out",
                "shape.project_columns.columns", "shape.project_columns.bytes",
                "metrics.pairwise_gaps.bytes_computed", "metrics.pairwise_gaps.peak_alloc_mb"):
        m[key] = t.get(key, 0)
    m["estimators.rank_score.pairs_hit_frac"] = t["rank_score.hits"] / t["rank_score.pairs"] \
        if t.get("rank_score.pairs") else 0.0
    m["estimators.rank_score.tied_rows_frac"] = t["rank_score.tied_rows"] / t["rank_score.rows"] \
        if t.get("rank_score.rows") else 0.0

    by_n = rec.by_n
    for n in (464, 1024):
        m[f"metrics.pairwise_gaps.ns_per_entry.n{n}"] = _mean(
            by_n["metrics.pairwise_gaps.ns_per_entry"].get(n, []))
    # the same calls at the sizes the ROADMAP quotes, per call
    m["estimators.rank_score.s_n1024"] = _mean(by_n["estimators.rank_score"].get(1024, []))
    m["shape.project_columns.monotone.s_n4096"] = _mean(
        by_n["shape.project_columns.monotone"].get(4096, []))
    draws = by_n["synth.truth_noise"].get(4096, [])  # one truth and one noise draw per instance
    m["synth.truth_noise.s_n4096"] = sum(draws) / (len(draws) / 2) if draws else 0.0

    m["trace.overhead_frac"] = (wall_traced - wall_untraced) / wall_untraced
    # cli.self_s plus the harness's own time around each CLI call
    m["trace.unattributed_s"] = wall_traced - s["library_s"]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--reference", help="JSON file of stored digests for this seed")
    p.add_argument("--spans-out", help="where the traced run writes its spans")
    args = p.parse_args(argv)

    if not os.path.abspath(seriation.__file__).startswith(SRC + os.sep):
        print(f"seriation was imported from {seriation.__file__}, not {SRC}", file=sys.stderr)
        return 3
    if args.probe:
        print(repr(READY))
        return 0

    inputs = os.path.join(args.workdir, "inputs")
    out = os.path.join(args.workdir, "out")
    os.makedirs(inputs)
    # Warm-up at toy size: lazy imports and first-call costs finish untimed.
    run_rep(workloads.plan(args.workload, "smoke", args.seed, inputs, out), out)
    invs = workloads.plan(args.workload, args.size, args.seed, inputs, out)

    walls, reps = [], []
    results = None

    def rep(rec=None):
        nonlocal results
        wall, results = run_rep(invs, out, rec)
        walls.append(wall)
        reps.append(digest_rep(invs, results, out))

    rec = None
    if args.trace:
        # The traced repetition between two untraced ones, so that a steady
        # drift in host speed cancels out of trace.overhead_frac.
        rep()
        rec = spans.Recorder()
        restore = spans.install(rec, {layer: getattr(seriation, layer) for layer in spans.LAYERS})
        try:
            rep(rec)
        finally:
            restore()
        rep()
    else:
        # Whole repetitions, at least two, while they fit in the run length.
        while len(walls) < 2 or sum(walls) + statistics.median(walls) <= args.seconds:
            rep()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ref = reps[0]
    if args.reference:
        with open(args.reference) as f:
            ref = json.load(f)
    stdouts = [r[1] for r in results]
    bad = workloads.bad_ops(invs, stdouts, out, args.seed)
    failures = [failed_ops(d, ref, bad) for d in reps]
    for rc, _, err in results:
        if rc != 0:
            print(f"worker: CLI call failed ({rc}): {err.strip()[-2000:]}", file=sys.stderr)
    result = {
        "walls": walls,
        "attempted": sum(len(d) for d in reps),
        "failed": sum(len(f) for f in failures),
        "failures": sorted({op for f in failures for op in f})[:20],
        "reference": "stored" if args.reference else "first repetition",
        "self_check": self_check(invs[0], stdouts[0].encode(), out, ref),
        "digests": reps[0],
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(),
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "seriation": seriation.__version__},
    }
    if rec is not None:
        result["layers"] = layer_metrics(rec, walls[1], (walls[0] + walls[2]) / 2)
        if args.spans_out:
            result["spans"] = rec.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
