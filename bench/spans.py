"""Span recording for the traced benchmark run.

`install` replaces the public functions of the seriation modules with
wrappers at every name a seriation module binds them to (so
`estimators.pairwise_gaps` and `metrics.pairwise_gaps` are both wrapped), and
calls between modules nest: `rank_score` contains `pairwise_gaps`, which
contains `check_matrix`. A span is (name, parent, run id, start, end); the
run id is the index of the CLI call that caused it. Spans stay in compact
arrays in memory and are written out once, at the end of the run.

Counters are taken at the same boundaries: bytes of CSV written and read,
array bytes computed from shapes and the score statistics of `rank_score`.
The src/ tree is not edited.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

LAYERS = ("core", "synth", "shape", "metrics", "estimators", "experiments", "cli")

PUBLIC = {
    "core": ("check_matrix", "permute_rows", "frobenius_sq_dist", "write_matrix_csv",
             "read_matrix_csv", "write_permutation", "read_permutation"),
    "synth": ("draw_truth", "draw_noise", "gen_truth", "gen_noise", "gen_observation"),
    "shape": ("project_columns", "has_monotone_columns"),
    "metrics": ("pairwise_gaps", "complexity_report", "r_statistic", "count_levels",
                "variation"),
    "estimators": ("rank_score", "rank_sum", "exhaustive_ls", "oracle_fit",
                   "averaging_fit", "estimation_losses"),
    "experiments": ("run_figure", "run_experiment", "emit_csv"),
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = 0
        self.totals: dict[str, float] = defaultdict(int)
        # seconds per call, by input row count, for figures quoted at one size
        self.by_n: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span; returns (span index, result)."""
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return idx, fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def seconds(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def write(self, path) -> dict:
        """Write the spans as five native-endian arrays, one after another
        (name i32, parent i32, run i32, start f64, end f64); returns the
        header that describes the file."""
        with open(path, "wb") as f:
            for arr in (self.name, self.parent, self.run, self.start, self.end):
                arr.tofile(f)
        return {"path": os.path.basename(path), "count": len(self.start), "names": self.names,
                "layout": ["name:i32", "parent:i32", "run:i32", "start:f64", "end:f64"]}


# Counters taken when a wrapped call returns: hook(recorder, span, args, result).

def _written(rec, i, args, out):
    rec.totals["core.csv_written_bytes"] += os.path.getsize(args[1])


def _read(rec, i, args, out):
    rec.totals["core.csv_read_bytes"] += os.path.getsize(args[0])


def _drawn(rec, i, args, out):
    rec.totals["synth.bytes_out"] += out.nbytes
    rec.by_n["synth.truth_noise"][out.shape[0]].append(rec.seconds(i))


def _projected(rec, i, args, out):
    a = args[0]
    rec.totals["shape.project_columns.columns"] += a.shape[1]
    rec.totals["shape.project_columns.bytes"] += a.nbytes + out.nbytes
    rec.by_n[f"shape.project_columns.{args[1].kind}"][a.shape[0]].append(rec.seconds(i))


def _gaps(rec, i, args, out):
    n, m = args[0].shape
    # per column: write the n*n difference buffer, read it and the running
    # maximum, write the maximum back
    rec.totals["metrics.pairwise_gaps.bytes_computed"] += 32 * n * n * m
    rec.by_n["metrics.pairwise_gaps.ns_per_entry"][n].append(rec.seconds(i) / (n * n * m) * 1e9)


def _scored(rec, i, args, out):
    scores = out.scores.tolist()
    n = len(scores)
    counts = Counter(scores)
    rec.totals["rank_score.hits"] += sum(scores)
    rec.totals["rank_score.pairs"] += n * n
    rec.totals["rank_score.tied_rows"] += sum(c for c in counts.values() if c > 1)
    rec.totals["rank_score.rows"] += n
    rec.by_n["estimators.rank_score"][n].append(rec.seconds(i))


HOOKS = {
    "core.write_matrix_csv": _written,
    "core.write_permutation": _written,
    "core.read_matrix_csv": _read,
    "core.read_permutation": _read,
    "synth.draw_truth": _drawn,
    "synth.draw_noise": _drawn,
    "shape.project_columns": _projected,
    "metrics.pairwise_gaps": _gaps,
    "estimators.rank_score": _scored,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)
    nid = rec.intern(name)

    if name == "shape.project_columns":  # one span name per cone
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i, out = rec.call(rec.intern(f"{name}.{args[1].kind}"), fn, args, kwargs)
            hook(rec, i, args, out)
            return out
    elif name == "metrics.pairwise_gaps":  # allocation peak of the n*n buffers
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                i, out = rec.call(nid, fn, args, kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            key = "metrics.pairwise_gaps.peak_alloc_mb"
            rec.totals[key] = max(rec.totals[key], peak / 2**20)
            hook(rec, i, args, out)
            return out
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i, out = rec.call(nid, fn, args, kwargs)
            if hook is not None:
                hook(rec, i, args, out)
            return out
    return traced


def install(rec: Recorder, modules: dict):
    """Wrap every public function of ``modules`` (layer name -> module) at
    each binding in those modules; returns a function that restores them."""
    wrappers = {}
    for layer, names in PUBLIC.items():
        for fname in names:
            fn = getattr(modules[layer], fname)
            wrappers[id(fn)] = (fn, _wrap(rec, f"{layer}.{fname}", fn))
    undo = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, entry[1])

    def restore():
        for mod, attr, value in undo:
            setattr(mod, attr, value)
    return restore


def summarize(rec: Recorder) -> dict:
    """Per span name and per layer: calls, busy time (time inside at least
    one span of that name or layer) and self time (span time not covered by
    child spans). Also the time the library spans cover: every span of a
    layer other than cli that is not inside another such span."""
    names = rec.names
    layer_of = [LAYERS.index(nm.split(".")[0]) for nm in names]
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            covered[p] += dur[i]
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    self_s = [0.0] * len(names)
    layer_busy = [0.0] * len(LAYERS)
    layer_self = [0.0] * len(LAYERS)
    # bit masks of the names and layers above each span
    name_above = [0] * len(dur)
    layer_above = [0] * len(dur)
    cli = LAYERS.index("cli")
    library = 0.0
    for i, (nid, p) in enumerate(zip(rec.name, rec.parent)):
        lay = layer_of[nid]
        if p < 0:
            na = la = 0
        else:
            na = name_above[i] = name_above[p] | 1 << rec.name[p]
            la = layer_above[i] = layer_above[p] | 1 << layer_of[rec.name[p]]
        calls[nid] += 1
        self_s[nid] += dur[i] - covered[i]
        layer_self[lay] += dur[i] - covered[i]
        if not na >> nid & 1:
            busy[nid] += dur[i]
        if not la >> lay & 1:
            layer_busy[lay] += dur[i]
        if lay != cli and not la & ~(1 << cli):
            library += dur[i]
    return {
        "library_s": library,
        "names": {nm: {"calls": calls[k], "busy_s": busy[k], "self_s": self_s[k]}
                  for k, nm in enumerate(names)},
        "layers": {lay: {"busy_s": layer_busy[k], "self_s": layer_self[k]}
                   for k, lay in enumerate(LAYERS)},
    }
