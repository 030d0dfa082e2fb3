#!/usr/bin/env python3
"""Run the repo benchmark: build pan_bench, run workloads, check, report.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--trace 0|1]
                             [--smoke] [--out DIR] [--seconds S]

Without --workload every workload runs, each in its own single-threaded
process, one after another. Each workload runs a fixed number of units, sized
so that one takes about BENCHMARK.json's run_seconds; --seconds is accepted
because the benchmark interface passes that value, and changes nothing. Every metric is printed with its unit, and
DIR/BENCH_<workload>.json (DIR/layers_<workload>.json for --trace 1) records
it. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 0: every check passed;
1: a check failed; 2: nothing could be measured (no sources, build failed).
benchmark/README.md describes the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "pan_bench"
TRACE_LINT = ROOT / "scripts" / "trace_lint.py"
DEFAULT_OUT = ROOT / ".bench_out"
# One run must end within 180 s; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Traces from the remote world cross the SKIP proxy and a reverse proxy.
MIN_HOPS = {"remote-fig5": 2}


class BenchError(Exception):
    """Nothing could be measured."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_step(cmd):
    # Build chatter goes to stderr: stdout carries results only.
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S, check=False)
    return result.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"{ROOT / 'src'} is missing: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake is not installed")
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not build_step(cmd):
            cache.unlink(missing_ok=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not build_step(["cmake", "--build", str(BUILD_DIR), "--parallel", jobs]):
        raise BenchError("build failed")


def compiler_version():
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            compiler = line.split("=", 1)[1]
            out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 check=False).stdout
            return out.splitlines()[0] if out else compiler
    return "unknown"


def run_binary(workload, args, out_dir):
    cmd = [str(BINARY), "--workload", workload, "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: pan_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_metrics(doc, expected):
    """The run reports exactly the metrics BENCHMARK.json names, all finite."""
    problems = []
    got = doc["metrics"]
    for name in expected:
        if name not in got:
            problems.append(f"metric {name} missing")
        elif not math.isfinite(got[name]):
            problems.append(f"metric {name} is not finite ({got[name]})")
    problems += [f"metric {name} is not in BENCHMARK.json" for name in got if name not in expected]
    if doc["attempted"] < 1:
        problems.append("no unit was attempted")
    return problems


def check_digest(doc, out_dir, binary_hash):
    """The same binary, seed and configuration must give the same sim digest
    in every run, traced or not."""
    store = out_dir / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{doc['workload']} {doc['config_digest']} {binary_hash}"
    previous = known.setdefault(key, doc["sim_digest"])
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    if previous != doc["sim_digest"]:
        return [f"sim digest {doc['sim_digest']} differs from {previous} of an earlier run "
                f"of the same binary, seed and configuration"]
    return []


def lint_traces(doc):
    paths = [p for p in doc["artifacts"].values() if p]
    if not paths:
        return []
    if not TRACE_LINT.is_file():
        log(f"  (trace lint skipped: {TRACE_LINT} not found)")
        return []
    problems = []
    for path in paths:
        cmd = [sys.executable, str(TRACE_LINT), path]
        if "proxy_traces" in Path(path).name and doc["workload"] in MIN_HOPS:
            cmd += ["--min-hops", str(MIN_HOPS[doc["workload"]])]
        lint = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if lint.returncode != 0:
            problems.append(f"trace lint failed on {path}: {lint.stdout.strip()} "
                            f"{lint.stderr.strip()}")
    return problems


def report(doc, units, problems):
    print(f"{doc['workload']}: seed {doc['seed']}, n={doc['n']} per episode, "
          f"{doc['episodes']} episode(s), sim digest {doc['sim_digest']}")
    for name, value in sorted(doc["metrics"].items()):
        print(f"  {name:32s} {value:16.6f} {units.get(name, '?')}")
    checks = " ".join(f"{k}={v:g}" for k, v in sorted(doc["checks"].items()))
    print(f"  checks: {checks}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  correct: {'yes' if not problems else 'NO'}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, help="world seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="ignored: the unit counts are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="fewer units, same load and checks")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where results and traces go (default: %(default)s)")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must not be negative")

    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics_spec}
    prefix = "layers" if args.trace else "BENCH"

    def write_record(record):
        (args.out / f"{prefix}_{record['workload']}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")

    failures = (BenchError, OSError, ValueError, subprocess.SubprocessError)
    try:
        build()
        args.out.mkdir(parents=True, exist_ok=True)
        binary_hash = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
        host = {"nproc": os.cpu_count(), "compiler": compiler_version()}
    except failures as exc:
        log(f"benchmark: {exc}")
        return 2
    docs = []
    for workload in [args.workload] if args.workload else names:
        try:
            docs.append(run_binary(workload, args, args.out.resolve()))
        except failures as exc:
            log(f"benchmark: {exc}")
            # A crashed run still counts: compare.py tallies failed runs.
            write_record({"workload": workload, "seed": args.seed, "trace": args.trace,
                          "correct": False, "failures": [str(exc)], "metrics": {}, **host})
            return 2

    correct = True
    results = {}
    for doc in docs:
        problems = list(doc["failures"]) + check_metrics(doc, units)
        problems += check_digest(doc, args.out, binary_hash)
        problems += lint_traces(doc)
        report(doc, units, problems)
        correct = correct and not problems
        record = {k: doc[k] for k in ("workload", "seed", "trace", "n", "episodes", "attempted",
                                      "failed", "config", "config_digest", "sim_digest",
                                      "checks")}
        record.update(smoke=args.smoke, correct=not problems,
                      failures=problems, **host)
        record["metrics"] = {name: {"value": value, "unit": units.get(name, "")}
                             for name, value in doc["metrics"].items()}
        write_record(record)
        results[doc["workload"]] = record

    def finite(metrics):
        return {k: {"value": v["value"] if math.isfinite(v["value"]) else None,
                    "unit": v["unit"]} for k, v in metrics.items()}

    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (finite(results[args.workload]["metrics"]) if args.workload else
                    {w: finite(r["metrics"]) for w, r in results.items()}),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
