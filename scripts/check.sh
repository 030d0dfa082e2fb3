#!/usr/bin/env bash
# Tier-1 verification: the config lint, a plain build + ctest, then an
# ASan+UBSan instrumented build + ctest. The config lint
# (scripts/config_lint.py) fails when a *Config field in src/ is set
# nowhere in src/, bench/, benchmark/, examples/ or tests/: such a value is
# a named constant, not a field (DESIGN.md section 5o). Both ctest runs
# include the `contract` tests (bench/CMakeLists.txt): bench_fleet_scale
# --smoke (no strict downgrade, no deadline miss, warm handoff >= 5x cold
# recovery), bench_ablation_multipath (intent-aware scheduling beats
# intent-blind, no deadline miss across a mid-load access cut) and
# scripts/chaos_dump_lint.sh (the chaos bench's trace, metrics and .prom
# exports pass scripts/trace_lint.py). Run from the repo root:
#
#   scripts/check.sh              # config lint + both builds
#   scripts/check.sh --fast       # config lint + plain build only
#   scripts/check.sh --sanitize   # sanitized build only (CI matrix leg)
#   scripts/check.sh --soak       # plain build, then loop the chaos + surge
#                                 # suites until SOAK_BUDGET_S (default 120 s)
#                                 # of wall clock is spent
#   scripts/check.sh --bench-smoke # plain build, then a short bench_micro run
#                                 # of the forwarding, transport and event-core
#                                 # benches; fails if the zero-copy hop path
#                                 # allocates (hop-MAC memo hit or miss), if
#                                 # the MAC-miss bench does not compute one
#                                 # MAC per forward, if the hop path is not
#                                 # faster than the legacy reparse pipeline,
#                                 # if an exchange on a
#                                 # connection with 10000 finished ones behind
#                                 # it costs over 1.5x one with 10, if a bulk
#                                 # stream write costs over 1.25 allocations
#                                 # per packet or its 3 MB case over 1.5x the
#                                 # 30 kB case per byte, or if a warm
#                                 # packet-sized event or timer re-arm
#                                 # allocates; then `benchmark/run.py --smoke`,
#                                 # which fails if a workload's sim digest
#                                 # differs from scripts/bench_digests.json
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

if [[ "${1:-}" == "--soak" ]]; then
  echo "==> soak: plain build, then chaos + surge loop"
  run_suite build
  budget="${SOAK_BUDGET_S:-120}"
  deadline=$(( $(date +%s) + budget ))
  iterations=0
  while (( $(date +%s) < deadline )); do
    ./build/tests/fault_test >/dev/null
    ./build/tests/robustness_test >/dev/null
    ./build/bench/bench_ablation_chaos >/dev/null
    iterations=$(( iterations + 1 ))
  done
  echo "==> soak passed (${iterations} iterations in <= ${budget}s)"
  exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  echo "==> bench-smoke: forwarding, transport and event-core micro-benchmarks"
  run_suite build
  out="$(./build/bench/bench_micro \
    --benchmark_filter='ForwardHop|ScionHeaderViewParse|Histogram|TimeSeries|SimScheduleRun|TimerRearm' \
    --benchmark_min_time=0.1 \
    --benchmark_format=json)"
  echo "$out"
  # Five repetitions: the check compares the fastest of each, which a busy
  # neighbour on a shared machine cannot inflate. Interleaving the
  # repetitions keeps a slow stretch of the machine from landing on one side
  # of a ratio only.
  history="$(./build/bench/bench_micro \
    --benchmark_filter='ExchangeWithHistory|TransportBulkWrite' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_format=json)"
  echo "$history"
  # Contract checks, not absolute timings (CI machines vary): the zero-copy
  # pipeline must not allocate on the hop path — with or without the
  # forward-latency histogram, with a warm or a cold hop-MAC memo — and must
  # beat legacy pkt/s; the MAC-miss bench must really miss on every forward;
  # histogram recording (tagged or not) must be allocation-free too.
  python3 - "$out" "$history" <<'EOF'
import json, sys
runs = {b["name"]: b for b in json.loads(sys.argv[1])["benchmarks"]}
fastest = {}
repeated = [b for b in json.loads(sys.argv[2])["benchmarks"] if b["run_type"] == "iteration"]
for b in repeated:
    fastest[b["run_name"]] = min(fastest.get(b["run_name"], b["cpu_time"]), b["cpu_time"])
for hops in (3, 8):
    legacy = runs[f"BM_ForwardHopLegacy/{hops}"]
    zc = runs[f"BM_ForwardHopZeroCopy/{hops}"]
    inst = runs[f"BM_ForwardHopZeroCopyInstrumented/{hops}"]
    miss = runs[f"BM_ForwardHopMacMiss/{hops}"]
    assert zc["allocs_per_forward"] == 0, f"zero-copy hop path allocates at {hops} hops"
    assert miss["allocs_per_forward"] == 0, f"hop-MAC memo miss allocates at {hops} hops"
    assert miss["macs_per_forward"] == 1, \
        f"MAC-miss bench hit the memo at {hops} hops ({miss['macs_per_forward']:g} MACs/forward)"
    assert inst["allocs_per_forward"] == 0, \
        f"forward-latency telemetry allocates on the hop path at {hops} hops"
    ratio = zc["items_per_second"] / legacy["items_per_second"]
    print(f"{hops} hops: zero-copy {ratio:.2f}x legacy pkt/s; "
          f"memo miss {miss['items_per_second']:.3g} pkt/s, 0 allocs")
    assert ratio > 1.0, f"zero-copy slower than legacy at {hops} hops ({ratio:.2f}x)"
for name in ("BM_HistogramRecord", "BM_HistogramRecordExemplar"):
    assert runs[name]["allocs_per_record"] == 0, f"{name} allocates per record"
    print(f"{name}: {runs[name]['items_per_second']:.3g} records/s, 0 allocs")
# The event core stores packet-sized captures inline and re-arms timers in
# place: neither may allocate once warm.
for name, counter in (("BM_SimScheduleRun", "allocs_per_event"),
                      ("BM_TimerRearm", "allocs_per_rearm")):
    assert runs[name][counter] == 0, f"{name} allocates ({runs[name][counter]:g} {counter})"
    print(f"{name}: {runs[name]['items_per_second']:.3g} ops/s, 0 allocs")
# A pooled connection must cost what its live streams cost, not its history.
fresh = fastest["BM_ExchangeWithHistory/10"]
aged = fastest["BM_ExchangeWithHistory/10000"]
print(f"exchange after 10000 finished ones: {aged / fresh:.2f}x the cost after 10")
assert aged <= 1.5 * fresh, f"per-exchange cost grows with history ({aged / fresh:.2f}x)"
# A stream write is copied once into a send buffer and then sliced, so its
# cost per byte must not grow with its size (cutting frames off the front of
# a copied write did, quadratically), and a packet costs its wire buffer: its
# in-flight record and chunk refs live in rings the connection reuses.
bulk = [b for b in repeated if b["run_name"].startswith("BM_TransportBulkWrite/")]
for b in bulk:
    assert b["allocs_per_packet"] <= 1.25, \
        f"{b['run_name']} costs {b['allocs_per_packet']:.2f} allocations per packet"
small = fastest["BM_TransportBulkWrite/30000"] / 30_000
large = fastest["BM_TransportBulkWrite/3000000"] / 3_000_000
print(f"3 MB stream write: {large / small:.2f}x the cost per byte of a 30 kB one; at most "
      f"{max(b['allocs_per_packet'] for b in bulk):.2f} allocations per packet")
assert large <= 1.5 * small, f"per-byte write cost grows with write size ({large / small:.2f}x)"
EOF
  # The same seed gives the same simulation: each workload's smoke digest
  # must equal the pinned one. Re-pin a digest only together with a
  # deliberate change of what the simulation does.
  echo "==> bench-smoke: benchmark sim digests"
  python3 benchmark/run.py --smoke --out build/bench-smoke
  python3 - <<'EOF'
import json
from pathlib import Path
pinned = json.loads(Path("scripts/bench_digests.json").read_text())
for workload, digest in pinned.items():
    got = json.loads(Path(f"build/bench-smoke/BENCH_{workload}.json").read_text())["sim_digest"]
    assert got == digest, f"{workload}: sim digest {got}, pinned {digest}"
    print(f"{workload}: sim digest {got} as pinned")
EOF
  echo "==> bench-smoke passed"
  exit 0
fi

if [[ "${1:-}" != "--sanitize" ]]; then
  echo "==> config lint: every config field is set somewhere"
  python3 scripts/config_lint.py
  echo "==> tier-1: plain build + ctest"
  run_suite build
fi

if [[ "${1:-}" != "--fast" ]]; then
  echo "==> sanitized: PAN_SANITIZE=ON build + ctest"
  run_suite build-asan -DPAN_SANITIZE=ON
fi

echo "==> all checks passed"
