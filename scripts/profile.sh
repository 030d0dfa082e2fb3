#!/usr/bin/env bash
# Flat CPU profile of one benchmark workload: where running the reproduction
# spends its wall-clock time. With --allocs, where it allocates instead.
# Run from anywhere:
#
#   scripts/profile.sh [--allocs] WORKLOAD [pan_bench args...]
#   scripts/profile.sh remote-fig5
#   scripts/profile.sh local-fig3 --smoke --seed 3
#   scripts/profile.sh --allocs remote-fig5
#
# Configures and builds build-prof/ from benchmark/ with gprof
# instrumentation (-pg, passed as cmake -D flags, so benchmark/ itself is not
# edited), runs `pan_bench --workload WORKLOAD` in a temporary directory so
# gmon.out lands there, and prints the top 10 of gprof's flat profile.
# --allocs prints, from gprof's call graph, the 15 direct callers of
# `operator new(unsigned long)` with the most calls: each caller's calls, its
# share of all operator new calls, and its (demangled, shortened) name.
# pan_bench is linked statically: gprof samples only code linked into the
# binary, so a dynamic libc would hide malloc, free and memmove. A build-prof/
# configured with other flags is reconfigured.
# WORKLOAD is one of the workload names in BENCHMARK.json; further arguments
# go to pan_bench. gprof splits a callee's time among its callers by call
# count, so read shared callees (SHA-256, the event heap) by their calls
# column.
set -euo pipefail

allocs=0
if [[ "${1:-}" == "--allocs" ]]; then
  allocs=1
  shift
fi
if [[ $# -lt 1 ]]; then
  echo "usage: $0 [--allocs] WORKLOAD [pan_bench args...]" >&2
  exit 2
fi
workload="$1"
shift

cd "$(dirname "$0")/.."
root="$(pwd)"
build_dir="$root/build-prof"

cxx_flags="-pg"
link_flags="-pg -static"
cache="$build_dir/CMakeCache.txt"
if [[ ! -f "$cache" ]] ||
   ! grep -qx "CMAKE_CXX_FLAGS:STRING=$cxx_flags" "$cache" ||
   ! grep -qx "CMAKE_EXE_LINKER_FLAGS:STRING=$link_flags" "$cache"; then
  generator=()
  if [[ ! -f "$cache" ]] && command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build_dir" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    "-DCMAKE_CXX_FLAGS=$cxx_flags" "-DCMAKE_EXE_LINKER_FLAGS=$link_flags" >&2
fi
cmake --build "$build_dir" --parallel "$(( $(nproc) < 4 ? $(nproc) : 4 ))" >&2

run_dir="$(mktemp -d)"
trap 'rm -rf "$run_dir"' EXIT
(cd "$run_dir" && "$build_dir/pan_bench" --workload "$workload" "$@" >/dev/null)

if [[ $allocs -eq 0 ]]; then
  echo "==> $workload: gprof flat profile, top 10 by self time"
  # Flat profile: 5 header lines, then one row per function.
  gprof -b -p "$build_dir/pan_bench" "$run_dir/gmon.out" | head -n 15
  exit 0
fi

# Call graph: blocks separated by dashes; in a block, the caller lines
# ("self children calls/total name [index]") come before the primary line,
# which starts with "[index]".
graph="$run_dir/callgraph.txt"
gprof -b -q "$build_dir/pan_bench" "$run_dir/gmon.out" > "$graph"
total="$(awk '/^\[[0-9]+\]/ && index($0, "operator new(unsigned long) [") { print $5; exit }' \
  "$graph")"
echo "==> $workload: top 15 callers of operator new (${total:-0} calls), from gprof's call graph"
printf 'calls\tshare\tcaller\n'
awk '
  /^-+$/ { n = 0; next }
  /^\[[0-9]+\]/ {
    if (index($0, "operator new(unsigned long) [")) {
      for (i = 0; i < n; i++) {
        if (!match(lines[i], /[0-9]+\/[0-9]+/)) continue
        split(substr(lines[i], RSTART, RLENGTH), calls, "/")
        name = substr(lines[i], RSTART + RLENGTH)
        sub(/^ +/, "", name)
        sub(/ \[[0-9]+\]$/, "", name)
        if (length(name) > 100) name = substr(name, 1, 97) "..."
        printf "%d\t%.1f%%\t%s\n", calls[1], 100 * calls[1] / calls[2], name
      }
      exit
    }
    n = 0
    next
  }
  { lines[n++] = $0 }' "$graph" | sort -t$'\t' -k1,1 -rn | head -n 15
