#!/usr/bin/env bash
# Runs the chaos ablation bench with PAN_TRACE_DUMP set, then lints what it
# exports with scripts/trace_lint.py:
#   - every Chrome trace file: structure, parent links, identity attributes;
#   - the baseline remote-world dump: a cross-hop trace (client + reverse
#     proxy under one trace id) annotated with the SCION path fingerprint and
#     ISD sequence;
#   - every scenario's /skip/metrics JSON and .prom exposition: prom grammar
#     and exemplars that resolve to a collected trace.
# Registered with ctest under the `contract` label. By hand, from the repo
# root after a build:
#
#   scripts/chaos_dump_lint.sh build/bench/bench_ablation_chaos
set -euo pipefail

bench="$1"
lint="$(dirname "$0")/trace_lint.py"
dump_dir="$(mktemp -d)"
trap 'rm -rf "$dump_dir"' EXIT

PAN_TRACE_DUMP="$dump_dir" "$bench" >/dev/null
traces=()
for f in "$dump_dir"/*.json; do
  [[ "$f" == *.metrics.json ]] || traces+=("$f")
done
python3 "$lint" "${traces[@]}"
python3 "$lint" "$dump_dir"/chaos-baseline-on.json \
  --min-hops 2 --require-attr path --require-attr isd_seq
for prom in "$dump_dir"/*.prom; do
  base="${prom%.prom}"
  python3 "$lint" "$base.json" --metrics "$base.metrics.json" --prom "$prom"
done
