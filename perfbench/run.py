"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload cover_solve --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` and
the brute-force oracle from ``tests/oracles.py``.  Load is a closed loop in
this single thread: each library call starts when the previous one returns.

With ``--trace 0`` the run repeats passes over the workload's operations
until ``--seconds`` of timed calls are spent (at least one pass).  Every pass
starts from a fresh import of the library and freshly generated inputs, so
library caches start cold each time and every pass is the same work.  The
end-to-end metrics are medians over those passes and setups.  Every time is
scaled to a nominal machine speed measured by probes all through the run
(see ``Speed``); the raw values are in the info line.

With ``--trace 1`` the run does a fixed amount of work, so call counts
repeat exactly: one untraced pass, then one traced setup and pass whose spans
give the per-layer metrics.  ``--seconds`` is not used.

Outputs are checked outside the timed region.  The last stdout line is the
result object; the line before it carries the machine, the output digest and
the details behind the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIB_MODULES = ("graphs", "bigraph", "covers", "solver", "constructive", "lemmas")
MIN_SETUPS = 3

sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, LemmaTrials  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: (span name, fields).  Every workload
# reports all of them; a layer the workload leaves idle reads 0.
LAYER_FIELDS = (
    ("solver.adversarial_list_search", ("calls", "total_s", "self_s")),
    ("solver._realize_lists", ("calls", "total_s")),
    ("solver._core_solve", ("calls", "total_s", "self_s")),
    ("solver.solve_packing", ("calls", "total_s", "self_s")),
    ("solver.adversarial_cover_search", ("calls", "total_s", "self_s")),
    ("bigraph._raw_max_matching", ("calls", "total_s")),
    ("bigraph.classify_obstruction", ("calls", "total_s")),
    ("bigraph.has_one_factor", ("calls", "total_s")),
    ("bigraph._raw_has_one_factor", ("calls", "total_s")),
    ("bigraph.max_matching", ("calls", "total_s")),
    ("bigraph.allowed_edges", ("calls", "total_s")),
    ("bigraph.removable_edges", ("calls", "total_s")),
    ("bigraph.iter_one_factors", ("calls", "total_s")),
    ("bigraph.one_factor_with", ("calls", "total_s")),
    ("bigraph.hall_violator", ("calls", "total_s")),
    ("covers.validate_packing", ("calls", "total_s")),
    ("covers.extension_bigraph", ("calls", "total_s")),
    ("covers.random_cover", ("calls", "total_s")),
    ("graphs.mad", ("calls", "total_s")),
    ("graphs.girth", ("calls", "total_s")),
    ("graphs.degeneracy", ("calls", "total_s")),
    ("graphs.random_planar_triangulation_min5", ("calls", "total_s")),
    ("constructive.pack_constructive", ("calls", "total_s", "self_s")),
    ("constructive.find_reduction", ("calls", "total_s")),
    ("constructive.extend_with_repair", ("calls", "total_s", "self_s")),
)
REPAIR_COUNTERS = ("steps", "steps_budget1", "steps_budget2", "factors_tried", "repair_rate")
LEMMA_NAMES = LemmaTrials.RANDOMIZED + tuple(LemmaTrials.EXHAUSTIVE)
# Calls counted per operation label in the traced run, for the check values.
COUNTED = ("solver._realize_lists", "solver._core_solve", "bigraph._raw_max_matching")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, fields in LAYER_FIELDS:
        for field in fields:
            units[f"{name}.{field}"] = "count" if field == "calls" else "s"
    for counter in REPAIR_COUNTERS:
        units[f"constructive.{counter}"] = "ratio" if counter == "repair_rate" else "count"
    for lemma in LEMMA_NAMES:
        units[f"lemmas.{lemma}.self_s"] = "s"
        units[f"lemmas.{lemma}.check_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Machine and library.
# ---------------------------------------------------------------------------


def loadavg_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_state() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def machine() -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git": git_state(),
    }


def load_library() -> SimpleNamespace:
    """A fresh import of the library: every module-level cache starts empty."""

    for name in [m for m in sys.modules if m == "listpacking" or m.startswith("listpacking.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"listpacking.{m}") for m in LIB_MODULES})


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


def setup(workload, seed: int, speed: "Speed", tracer: Tracer | None = None):
    """Import the library and make the inputs; returns (ops, timing).

    The inputs are then frozen out of the cyclic garbage collector's view:
    a caller asking one question at a time does not hold thousands of
    inputs, so full collections should not have to scan them.  Garbage the
    library makes is still collected as usual."""

    gc.unfreeze()
    gc.collect()
    with speed.timing() as timing:
        lib = load_library()
        if tracer is not None:
            tracer.install(lib)
        inputs = workload.inputs(lib, seed)
    ops = workload.ops(lib, inputs, seed)
    gc.freeze()
    return ops, timing


def _probe_search(depth: int, used: set, found: list) -> None:
    if depth == 4:
        found.append(tuple(sorted(used)))
        return
    for c in range(4):
        if c not in used:
            used.add(c)
            _probe_search(depth + 1, used, found)
            used.discard(c)


def _probe_kernel() -> int:
    """Fixed pure-Python work of the library's kinds, about a millisecond:
    bit loops over small integer rows, then a small backtracking search
    through sets, tuples and a dict.  It uses nothing from the library, so a
    change to the library cannot change it."""

    acc = 0
    rows = [0b1011, 0b0110, 0b1101, 0b0011, 0b1110]
    for i in range(300):
        seen = 0
        for r in rows:
            m = (r ^ i) & 0x1F
            while m:
                low = m & -m
                seen |= low
                m ^= low
        acc += seen.bit_length() + len(rows)
        rows.append(rows.pop(0))
    for _ in range(6):
        found: list = []
        _probe_search(0, set(), found)
        acc += sum({t: len(t) for t in found}.values())
    return acc


class Timing:
    __slots__ = ("start", "end", "raw")


class Speed:
    """Machine-speed probes, taken on a timer all through the run.

    On a shared machine the interpreter's speed drifts by tens of percent,
    over seconds and over minutes.  Every EVERY_S seconds a SIGALRM handler
    runs a fixed probe kernel, also in the middle of a library call, and
    records how long it took.  Handler time is subtracted from the call it
    interrupted.  A call's speed factor is the median probe time, over
    NOMINAL_S, of the probes taken during the call, or of the NEAREST probes
    when fewer fell inside it.  Reported times are raw times divided by that
    factor: seconds at the nominal speed.  Raw values stay in the info line.
    The library's time moves less than the probe's when the machine drifts,
    so the scaling over-corrects a little: a run in a slow period reads
    somewhat fast.  Compare the raw values too before claiming a change.
    """

    EVERY_S = 0.05
    NEAREST = 4
    NOMINAL_S = 0.001

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the handler is skipped
            return
        self._busy = True
        t = time.perf_counter()
        _probe_kernel()
        done = time.perf_counter()
        self.starts.append(t)
        self.stamps.append((t + done) / 2)
        self.samples.append(done - t)
        self.stolen += done - t
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def timing(self):
        timing = Timing()
        stolen = self.stolen
        timing.start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.end = time.perf_counter()
            timing.raw = timing.end - timing.start - (self.stolen - stolen)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        stamps = self.stamps
        lo, hi = bisect.bisect_left(stamps, start), bisect.bisect_right(stamps, end)
        mid = (start + end) / 2
        while hi - lo < self.NEAREST and (lo > 0 or hi < len(stamps)):
            if hi == len(stamps) or (lo > 0 and mid - stamps[lo - 1] <= stamps[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi]) / self.NOMINAL_S

    def normalized(self, timing: Timing) -> float:
        return timing.raw / self.factor(timing.start, timing.end)


def run_pass(ops, speed: Speed, tracer: Tracer | None = None):
    """Call every operation once; returns outputs, errors, timings and, when
    traced, the counted calls of each label's first operation."""

    outs, errors, timings = [], [], []
    counted = {}
    for op in ops:
        if tracer is None:
            with speed.timing() as timing:
                out, err = _call(op)
        else:
            before = list(tracer.calls)
            with tracer.span(op.span), speed.timing() as timing:
                out, err = _call(op)
            if op.label not in counted:
                ids = {name: tracer.intern(name) for name in COUNTED}
                counted[op.label] = {name: tracer.calls[nid] - before[nid] for name, nid in ids.items()}
        outs.append(out)
        errors.append(err)
        timings.append(timing)
    return outs, errors, timings, counted


def _call(op):
    try:
        return op.call(), None
    except Exception:  # one failing operation must not end the run
        return None, traceback.format_exc(limit=3)


class Checker:
    """Checks outputs outside the timed region.  Later passes of a run repeat
    the first pass's inputs, so an output equal to an already-checked one
    needs no second check."""

    def __init__(self) -> None:
        self.reference: list[str] | None = None
        self.reference_ok: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def check_pass(self, ops, outs, errors) -> None:
        canon = []
        for i, (op, out, err) in enumerate(zip(ops, outs, errors)):
            self.attempted += 1
            if err is not None:
                text = None
                problem = f"{op.label}: raised {err.strip().splitlines()[-1]}"
                print(f"[{op.label}] {err}", file=sys.stderr)
            else:
                text = json.dumps(op.canon(out), sort_keys=True)
                if self.reference is not None and self.reference[i] == text and self.reference_ok[i]:
                    problem = None
                else:
                    try:
                        problem = op.check(out)
                    except Exception:
                        problem = f"{op.label}: check raised {traceback.format_exc(limit=2)}"
            canon.append(text)
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(problem)
            if self.reference is None:
                self.reference_ok.append(problem is None)
        if self.reference is None:
            self.reference = canon
        digest = hashlib.sha256()
        for op, text in zip(ops, canon):
            digest.update(f"{op.label}\t{text}\n".encode())
        self.digests.append(digest.hexdigest())


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""

    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_timed(workload, seed: int, seconds: float) -> tuple[dict, dict, Checker]:
    checker = Checker()
    setups, passes, op_timings = [], [], []
    units = 0
    record = {}
    with Speed() as speed:
        while True:
            ops, timing = setup(workload, seed, speed)
            setups.append(timing)
            outs, errors, timings, _ = run_pass(ops, speed)
            passes.append(timings)
            op_timings += timings
            units += sum(op.units for op in ops)
            checker.check_pass(ops, outs, errors)
            if len(passes) == 1:
                record = workload.record(ops, outs)
            del outs
            timed = sum(t.raw for t in op_timings)
            if timed + statistics.median(sum(t.raw for t in p) for p in passes) > seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(setup(workload, seed, speed)[1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def summary(seconds_of) -> dict:
        op_s = sorted(seconds_of(t) for t in op_timings)
        return {
            "setup_s": statistics.median(seconds_of(t) for t in setups),
            "wall_s": statistics.median(sum(seconds_of(t) for t in p) for p in passes),
            "ops_per_s": units / sum(op_s),
            "op_p50_ms": percentile(op_s, 0.50) * 1e3,
            "op_p99_ms": percentile(op_s, 0.99) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    metrics = summary(speed.normalized)
    details = {
        "passes": len(passes),
        "raw": summary(lambda t: t.raw),
        "raw_pass_wall_s": [sum(t.raw for t in p) for p in passes],
        "raw_setups_s": [t.raw for t in setups],
        "op_samples": len(op_timings),
        "op_samples_beyond_p99": len(op_timings) - max(1, math.ceil(0.99 * len(op_timings))),
        "speed_factor_median": speed.factor(),
        "speed_probes": len(speed.samples),
        "record": record,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, details, checker


def run_traced(workload, seed: int) -> tuple[dict, dict, Checker]:
    checker = Checker()
    with Speed() as speed:
        ops, _ = setup(workload, seed, speed)
        outs, errors, timings, _ = run_pass(ops, speed)
    untraced = sum(map(speed.normalized, timings))
    checker.check_pass(ops, outs, errors)
    del outs

    tracer = Tracer()
    with Speed() as speed:
        with tracer.span("setup"):
            ops, _ = setup(workload, seed, speed, tracer)
        outs, errors, timings, counted = run_pass(ops, speed, tracer)
    traced = sum(map(speed.normalized, timings))
    checker.check_pass(ops, outs, errors)

    agg = tracer.aggregate(list(zip(speed.starts, speed.samples)))
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for name, fields in LAYER_FIELDS:
        row = agg.get(name, empty)
        for field in fields:
            values[f"{name}.{field}"] = row[field]
    record = workload.record(ops, outs)
    repair = record.get("repair", {})
    for counter in REPAIR_COUNTERS:
        values[f"constructive.{counter}"] = repair.get(counter, 0)
    for lemma in LEMMA_NAMES:
        row = agg.get(f"lemmas.{lemma}", empty)
        values[f"lemmas.{lemma}.self_s"] = row["self_s"]
        values[f"lemmas.{lemma}.check_s"] = row["total_s"] - row["self_s"]
    values["trace_overhead"] = traced / untraced
    units = per_layer_units()
    details = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tracer.start),
        "unpatched": tracer.unpatched,
        "calls_by_label": counted,
        "record": record,
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, details, checker


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "listpacking" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'listpacking'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no brute-force oracle at {ROOT / 'tests' / 'oracles.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))

    workload = WORKLOADS[args.workload]
    load_start = loadavg_1min()
    if args.trace:
        metrics, details, checker = run_traced(workload, args.seed)
    else:
        metrics, details, checker = run_timed(workload, args.seed, args.seconds)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "loadavg_1min": {"start": load_start, "end": loadavg_1min()},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "digest": checker.digests[0],
        "passes_agree": len(set(checker.digests)) == 1,
        "fail_frac": checker.failed / checker.attempted,
        "failures": checker.failures,
        **details,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
