"""Repeated runs of the benchmark, with spreads, digests and trace checks.

    python3 perfbench/report.py                 # every workload, seeds 1..10
    python3 perfbench/report.py --runs 1        # one run each: every metric, checked
    python3 perfbench/report.py --workloads cover_solve --runs 5 --out /tmp/r.json

Runs go one at a time, each in its own process (``run.py``), from the root of
the checkout.  For each workload and end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  It then

* reruns seed 1 under ``PYTHONHASHSEED`` 0 and 1 and checks that the output
  digest matches the run under the default hash seed;
* makes two traced runs of seed 1, checks that every per-layer ``.calls``
  count repeats exactly, reports the tracing overhead (traced over
  untraced wall time of the same pass), and flags every traced function the
  library no longer has: its per-layer metrics read 0 unmeasured;
* with ``--baseline``, compares each metric's median with the recorded one,
  against the metric's bound, prints the same comparison of the raw
  (unscaled) medians next to it, and reports every digest that differs from
  a recorded one.  A changed digest is reported, not counted as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int, hashseed: str | None = None) -> dict:
    env = dict(os.environ)
    if hashseed is None:
        env.pop("PYTHONHASHSEED", None)
    else:
        env["PYTHONHASHSEED"] = hashseed
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {"info": info, "result": result, "process_s": elapsed}


def spread_row(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def raw_median(runs: list[dict], name: str) -> float:
    """Median of a metric's unscaled values, from the runs' info lines."""

    return statistics.median(r["info"]["raw"][name] for r in runs)


def calls_of(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


def check_manifest(manifest: dict) -> list[str]:
    """Metric names in BENCHMARK.json against the ones run.py reports."""

    sys.path.insert(0, str(HERE))
    import run

    problems = []
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        problems.append(f"end_to_end differs from run.py: {declared} vs {run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if declared != run.per_layer_units():
        problems.append("per_layer differs from run.py")
    workloads = [w["name"] for w in manifest["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        problems.append(f"workloads differ from run.py: {workloads}")
    return problems


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS, one run each")
    parser.add_argument("--baseline", type=Path, help="earlier --out file to compare medians and digests with")
    parser.add_argument("--out", type=Path, help="write every run and summary as JSON")
    args = parser.parse_args(argv)

    problems = check_manifest(manifest)
    for p in problems:
        print(f"manifest: {p}")
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None
    seconds = manifest["run_seconds"]
    report = {"machine": None, "seconds": seconds, "workloads": {}}
    all_ok = not problems

    for workload in args.workloads:
        seeds = list(range(1, args.runs + 1))
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, 0)
            runs.append(r)
            res = r["result"]
            print(f"{workload} seed={seed} correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  f"passes={r['info']['passes']} process={r['process_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        report["machine"] = report["machine"] or runs[0]["info"]["machine"]
        summary = {}
        for name, bound in bounds.items():
            row = spread_row([r["result"]["metrics"][name]["value"] for r in runs])
            row.update(bound=bound, unit=runs[0]["result"]["metrics"][name]["unit"],
                       steady=row["spread"] < bound / 3, raw_median=raw_median(runs, name))
            summary[name] = row
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "fail_frac": sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs),
            "digests": {str(s): r["info"]["digest"] for s, r in zip(seeds, runs)},
            "passes_agree": all(r["info"]["passes_agree"] for r in runs),
            "metrics": summary,
            "runs": runs,
        }
        all_ok &= entry["correct"]

        seed = seeds[0]
        digests = {"default": entry["digests"][str(seed)]}
        for hs in ("0", "1"):
            digests[f"PYTHONHASHSEED={hs}"] = run_once(workload, seed, 1, 0, hashseed=hs)["info"]["digest"]
        traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
        for i, t in enumerate(traced):
            digests[f"traced run {i + 1}"] = t["info"]["digest"]
        entry["hashseed_digests"] = digests
        entry["digest_stable"] = len(set(digests.values())) == 1
        entry["trace"] = {
            "calls_repeat": calls_of(traced[0]["result"]) == calls_of(traced[1]["result"]),
            "overhead": [t["info"]["traced_wall_s"] / t["info"]["untraced_wall_s"] for t in traced],
            "correct": all(t["result"]["correct"] for t in traced),
            "unpatched": traced[0]["info"]["unpatched"],
            "runs": traced,
        }
        if workload == "list_search":
            counted = traced[0]["info"]["calls_by_label"]
            entry["trace"]["check_C3_C4_C5_K3"] = {
                name: sum(counted[g][name] for g in ("C3", "C4", "C5", "K3")) for name in counted["C3"]
            }
        all_ok &= entry["digest_stable"] and entry["trace"]["calls_repeat"] and entry["trace"]["correct"]

        if baseline is not None and workload in baseline["workloads"]:
            recorded = baseline["workloads"][workload]
            old = recorded["digests"]
            entry["digest_changes"] = {s: [old[s], d] for s, d in entry["digests"].items() if s in old and old[s] != d}
            for name, row in entry["metrics"].items():
                before = recorded["metrics"][name]["median"]
                change = (row["median"] - before) / before
                row["worse_than_baseline_by"] = change if better[name] == "lower" else -change
                row["within_bound_of_baseline"] = row["worse_than_baseline_by"] <= row["bound"]
                raw_before = raw_median(recorded["runs"], name)
                raw_change = (row["raw_median"] - raw_before) / raw_before
                row["raw_worse_than_baseline_by"] = raw_change if better[name] == "lower" else -raw_change
                all_ok &= row["within_bound_of_baseline"]
        report["workloads"][workload] = entry
        print_summary(workload, entry)

    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all_ok else 1


def print_summary(workload: str, entry: dict) -> None:
    print(f"\n== {workload}: correct={entry['correct']} fail_frac={entry['fail_frac']} "
          f"passes_agree={entry['passes_agree']}")
    print(f"{'metric':<12} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, row in entry["metrics"].items():
        flag = "" if row["steady"] else "  (spread >= bound/3)"
        if "worse_than_baseline_by" in row:
            flag += f"  worse than baseline by {row['worse_than_baseline_by']:+.3f}"
            flag += "" if row["within_bound_of_baseline"] else " (beyond bound)"
            flag += f"; raw {row['raw_median']:.6g}, worse by {row['raw_worse_than_baseline_by']:+.3f}"
        print(f"{name:<12} {row['unit']:<6} {row['median']:>12.6g} {row['q1']:>12.6g} {row['q3']:>12.6g} "
              f"{row['spread']:>8.3f} {row['bound']:>6}{flag}")
    print(f"digest stable across hash seeds and traced runs: {entry['digest_stable']}")
    t = entry["trace"]
    print(f"trace: calls repeat={t['calls_repeat']} overhead={', '.join(f'{x:.3f}' for x in t['overhead'])}")
    if t["unpatched"]:
        print(f"trace: NOT MEASURED, the library has no {', '.join(t['unpatched'])}; "
              "their per-layer metrics read 0")
    if "check_C3_C4_C5_K3" in t:
        print(f"trace calls on C3, C4, C5, K3: {t['check_C3_C4_C5_K3']}")
    if entry.get("digest_changes"):
        print(f"digest changed against the baseline for seeds {sorted(entry['digest_changes'])}")
    print(flush=True)


if __name__ == "__main__":
    sys.exit(main())
