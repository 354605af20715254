"""Benchmark of the `seriation` CLI: three seeded workloads, digest-checked.

    python3 bench/run.py --workload score-sparse --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --smoke        # self-test of every workload path at toy sizes

Run from anywhere; the program is taken from src/ beside this directory, and
nothing is installed. Every run starts fresh interpreters with one BLAS
thread: set-up probes (`setup_s`, the median), half of them before and half
after one worker that runs the workload's CLI calls in-process (see
worker.py). `--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` runs a traced repetition between two untraced ones and reports
the per-layer metrics. The line before the last is the provenance stamp; the
last line is the result. The run record and the traced spans are kept under
bench/_runs/.

Stdlib only: this process never imports numpy or scipy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH, "_runs")
WORKER = os.path.join(BENCH, "worker.py")
DIGESTS = os.path.join(BENCH, "digests.json")

sys.path.insert(0, BENCH)
import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = {"full": 8, "smoke": 1}
TIME_LIMIT_S = 170  # a run must end within 180 s


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts the child interpreters, each waited for and killed at the
    deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, cmd, **kwargs) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError("out of time")
        try:
            r = subprocess.run([sys.executable, *cmd], env=self.env, cwd=ROOT, text=True,
                               stdout=subprocess.PIPE, timeout=left, **kwargs)
        except subprocess.TimeoutExpired:
            raise RunError(f"timed out: {cmd}") from None
        if r.returncode != 0:
            raise RunError(f"exit code {r.returncode}: {cmd}")
        return r

    def setup_seconds(self, probes: int) -> list[float]:
        """Interpreter start until `seriation` and `seriation.cli` are ready."""
        samples = []
        for _ in range(probes):
            t0 = time.monotonic()
            r = self.run([WORKER, "--probe"])
            samples.append(float(r.stdout.split()[-1]) - t0)
        return samples

    def import_seconds(self) -> dict:
        """Import time of each seriation module, from `python -X importtime`:
        cumulative, less the seriation modules it imported itself, so
        third-party imports stay with the module that pulled them in."""
        r = self.run(["-X", "importtime", WORKER, "--probe"], stderr=subprocess.PIPE)
        out, pending = {}, []  # pending: (depth, seconds) not yet claimed by a parent
        for line in r.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "[us]" in line:
                continue
            _, cum, name = line.split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            nested = sum(s for d, s in pending if d > depth)
            pending = [(d, s) for d, s in pending if d <= depth]
            cum_s = int(cum) / 1e6
            if name.strip().startswith("seriation."):
                out[name.strip().split(".", 1)[1]] = cum_s - nested
                pending.append((depth, cum_s))
            else:
                pending.append((depth, nested))
        return out


def _sysfs(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def provenance(seed: int, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    git = {"revision": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            st = subprocess.run(["git", "--no-optional-locks", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
            git = {"revision": rev.stdout.strip() or None, "dirty": bool(st.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()  # identifies the program where there is no git checkout
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            with open(os.path.join(dirpath, fn), "rb") as f:
                src.update(fn.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": _sysfs(cache.format(2)),
        "l3_cache": _sysfs(cache.format(3)),
        **versions,
        "platform": platform.platform(),
        "git_revision": git["revision"],
        "git_dirty": git["dirty"],
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_digests() -> dict:
    with open(DIGESTS) as f:
        return json.load(f)


def run_once(args) -> tuple[dict, dict, dict]:
    """One benchmark run; returns (result, provenance, check details)."""
    if not os.path.isfile(os.path.join(SRC, "seriation", "__init__.py")):
        raise RunError(f"no program at {SRC}")
    spec = load_spec()
    runner = Runner(time.monotonic() + TIME_LIMIT_S)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, f"{stem}.work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)  # and RUNS with it
    # Half the set-up probes before the workload and half after it, so that
    # their median does not rest on one stretch of host load.
    probes = 0 if args.trace else SETUP_PROBES[args.size]
    setup = runner.setup_seconds(probes // 2)
    try:
        stored = load_digests().get(args.size, {}).get(args.workload, {}).get(str(args.seed))
        cmd = [WORKER, "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
               "--spans-out", os.path.join(RUNS, f"{stem}.spans")]
        if stored is not None and not args.write_reference:
            ref = os.path.join(workdir, "reference.json")
            with open(ref, "w") as f:
                json.dump(stored, f)
            cmd += ["--reference", ref]
        w = json.loads(runner.run(cmd).stdout.splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup += runner.setup_seconds(probes - probes // 2)

    attempted, failed = w["attempted"], w["failed"]
    if args.trace:
        values = dict(w["layers"])
        for module, seconds in runner.import_seconds().items():
            values[f"{module}.import_s"] = seconds
        values["ops_failed_frac"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(w["walls"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": w["peak_rss_mb"],
                  "ops_ok_frac": 1 - failed / attempted}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0 and w["self_check"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    check = {"reference": w["reference"], "self_check": w["self_check"],
             "failures": w["failures"], "walls_s": w["walls"], "setup_s": setup}
    prov = provenance(args.seed, w["versions"])
    with open(os.path.join(RUNS, f"{stem}.json"), "w") as f:
        json.dump({"provenance": prov, "check": check, "result": result,
                   "spans": w.get("spans")}, f, indent=1)
    if args.write_reference:
        if failed:
            raise RunError("not writing digests of a run with failed operations")
        table = load_digests()
        table.setdefault(args.size, {}).setdefault(args.workload, {})[str(args.seed)] = w["digests"]
        with open(DIGESTS, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
    return result, prov, check


def smoke() -> int:
    """Every workload, traced and untraced, at toy sizes: every metric is
    printed by name with its unit, stored digests are checked, and the
    run's self-check counted a perturbed output as failed."""
    spec = load_spec()
    problems = []

    def bench(*extra):
        r = subprocess.run([sys.executable, __file__, "--size", "smoke", "--seed", "0",
                            "--seconds", "1", *extra], capture_output=True, text=True,
                           timeout=TIME_LIMIT_S, cwd=ROOT)
        if r.returncode != 0:
            problems.append(f"{extra}: exit code {r.returncode}: {r.stderr[-2000:]}")
            return None, None
        lines = r.stdout.splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])

    for name in workloads.NAMES:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            stamp, res = bench("--workload", name, "--trace", trace)
            if res is None:
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}/{trace}: result keys {sorted(res)}")
            expect = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect:
                problems.append(f"{name}/{trace}: metrics {got} != {expect}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] > 0):
                problems.append(f"{name}/{trace}: not correct: {stamp['check']}")
            if stamp["check"]["reference"] != "stored":
                problems.append(f"{name}/{trace}: no stored digests were checked")
            if stamp["check"]["self_check"] is not True:
                problems.append(f"{name}/{trace}: a perturbed output was not counted as failed")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="smoke: toy sizes for the self-test")
    p.add_argument("--smoke", action="store_true", help="run the self-test")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's digests as the reference for its seed")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        result, prov, check = run_once(args)
    except (RunError, OSError, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    if check["failures"]:
        print(f"bench: failed operations: {check['failures']}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "check": check}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
