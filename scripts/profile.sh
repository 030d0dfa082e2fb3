#!/usr/bin/env bash
# Flat CPU profile of one benchmark workload: where running the reproduction
# spends its wall-clock time. Run from anywhere:
#
#   scripts/profile.sh WORKLOAD [pan_bench args...]
#   scripts/profile.sh remote-fig5
#   scripts/profile.sh local-fig3 --smoke --seed 3
#
# Configures and builds build-prof/ from benchmark/ with gprof
# instrumentation (-pg, passed as cmake -D flags, so benchmark/ itself is not
# edited), runs `pan_bench --workload WORKLOAD` in a temporary directory so
# gmon.out lands there, and prints the top 10 of gprof's flat profile.
# pan_bench is linked statically: gprof samples only code linked into the
# binary, so a dynamic libc would hide malloc, free and memmove. A build-prof/
# configured with other flags is reconfigured.
# WORKLOAD is one of the workload names in BENCHMARK.json; further arguments
# go to pan_bench. gprof splits a callee's time among its callers by call
# count, so read shared callees (SHA-256, the event heap) by their calls
# column.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 WORKLOAD [pan_bench args...]" >&2
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

echo "==> $workload: gprof flat profile, top 10 by self time"
# Flat profile: 5 header lines, then one row per function.
gprof -b -p "$build_dir/pan_bench" "$run_dir/gmon.out" | head -n 15
