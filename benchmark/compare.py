#!/usr/bin/env python3
"""Compare benchmark runs of two commits, metric by metric.

    python3 benchmark/compare.py PARENT CHANGE
    python3 benchmark/compare.py --summarize RUNS > benchmark/baseline.json

PARENT and CHANGE are directories holding the BENCH_<workload>.json files
of several `run.py --out DIR/<n>` runs (searched recursively), or a baseline
file written by --summarize. Runs pair up by workload and seed.

One row per workload x end-to-end metric: each side's median and quartiles,
the share of seed-matched pairs the change won (ties count for neither), and
a verdict against the metric's bound in BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own quartile spread exceeds the bound, so no
              verdict is possible, unless every change run beats every
              parent run;
  ok          neither.

Deterministic metrics (sim latencies, ok_ratio, allocs_per_unit) also get
an exact-match flag: '=' when every seed-matched pair reads the same.

A run that failed a correctness check does not enter the medians, but it is
counted: a workload fails the comparison when the change has more failed
runs than the parent, or when either side has no correct run of it.
Exit code 1 when any row is a regression or any workload fails.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = {"sim_latency_p50_ms", "sim_latency_p99_ms", "ok_ratio", "allocs_per_unit"}


def load_runs(path):
    """{workload: {"runs": [(seed, {metric: value})], "failed": n}} from a run
    directory or baseline; "runs" holds the correct runs, "failed" counts the
    others."""
    runs = {}
    if path.is_file():
        for workload, entry in json.loads(path.read_text())["workloads"].items():
            runs[workload] = {"runs": [(r["seed"], r["metrics"]) for r in entry["runs"]],
                              "failed": entry["failed_runs"]}
        return runs
    for bench in sorted(path.rglob("BENCH_*.json")):
        record = json.loads(bench.read_text())
        if record.get("trace"):
            continue
        side = runs.setdefault(record["workload"], {"runs": [], "failed": 0})
        if not record.get("correct"):
            side["failed"] += 1
            continue
        metrics = {name: m["value"] for name, m in record["metrics"].items()}
        side["runs"].append((record["seed"], metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(parent, change):
    """Seed-matched (parent, change) value pairs, in run order per seed."""
    by_seed = {}
    for seed, value in parent:
        by_seed.setdefault(seed, []).append(value)
    out = []
    for seed, value in change:
        if by_seed.get(seed):
            out.append((by_seed[seed].pop(0), value))
    return out


def compare(parent_runs, change_runs, spec):
    regressions = 0
    unresolved = 0
    failed = 0
    header = (f"{'workload':12s} {'metric':19s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'worse':>7s} {'bound':>6s} {'won':>5s} "
              f"{'exact':>5s}  verdict")
    print(header)
    empty = {"runs": [], "failed": 0}
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent_side = parent_runs.get(workload, empty)
        change_side = change_runs.get(workload, empty)
        parent, change = parent_side["runs"], change_side["runs"]
        problems = [f"no correct run on the {side} side"
                    for side, runs in (("parent", parent), ("change", change)) if not runs]
        if change_side["failed"] > parent_side["failed"]:
            problems.append(f"{change_side['failed']} failed run(s) against the parent's "
                            f"{parent_side['failed']}")
        counts = [f"{len(s['runs'])} ({s['failed']} failed)" for s in (parent_side, change_side)]
        print(f"{workload:12s} {'correct runs':19s} {counts[0]:>30s} {counts[1]:>30s}  "
              f"{'FAILED: ' + '; '.join(problems) if problems else 'ok'}")
        if problems:
            failed += 1
        if not parent or not change:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            p_vals = [m[name] for _, m in parent]
            c_vals = [m[name] for _, m in change]
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            worse = sign * (c_med - p_med) / p_med if p_med else 0.0
            matched = pairs([(s, m[name]) for s, m in parent],
                            [(s, m[name]) for s, m in change])
            won = sum(1 for p, c in matched if sign * (c - p) < 0)
            share = f"{won / len(matched):.0%}" if matched else "-"
            exact = ""
            if name in DETERMINISTIC and matched:
                exact = "=" if all(p == c for p, c in matched) else "!="
            change_always_better = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
            if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not change_always_better:
                verdict = "unresolved"
                unresolved += 1
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:12s} {name:19s} "
                  f"{f'{p_q1:.5g}/{p_med:.5g}/{p_q3:.5g}':>30s} "
                  f"{f'{c_q1:.5g}/{c_med:.5g}/{c_q3:.5g}':>30s} "
                  f"{worse:+7.2%} {bound:6.2%} {share:>5s} {exact:>5s}  {verdict}")
    print(f"\n{regressions} regression(s), {unresolved} unresolved, "
          f"{failed} workload(s) failed")
    return regressions + failed


def summarize(runs_dir, spec):
    """Baseline: every correct run's metrics, the failed-run count, and each
    metric's median and spread."""
    runs = load_runs(runs_dir)
    records = sorted(runs_dir.rglob("BENCH_*.json"))
    first = json.loads(records[0].read_text()) if records else {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {"nproc": first.get("nproc", os.cpu_count()), "compiler": first.get("compiler"),
           "workloads": {}}
    for workload, side in sorted(runs.items()):
        entries = side["runs"]
        if not entries:
            raise SystemExit(f"{workload}: no correct run to summarize")
        summary = {}
        for name, unit in units.items():
            q1, median, q3 = quartiles([m[name] for _, m in entries])
            summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit,
                             "iqr_share": (q3 - q1) / abs(median) if median else 0.0}
        out["workloads"][workload] = {
            "summary": summary,
            "failed_runs": side["failed"],
            "runs": [{"seed": seed, "metrics": metrics} for seed, metrics in entries],
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summarize", type=Path, metavar="RUNS",
                        help="print a baseline file built from a directory of runs")
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.summarize:
        print(json.dumps(summarize(args.summarize, spec), indent=1, sort_keys=True))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    return 1 if compare(load_runs(args.parent), load_runs(args.change), spec) else 0


if __name__ == "__main__":
    sys.exit(main())
