#!/usr/bin/env bash
# Runs every figure, ablation and summary bench, and policy_explorer, N
# times with address-space randomisation on and fails if any binary prints
# more than one distinct output.  A run's result must be a function of its Config, workload and
# seed, never of where the host allocator or the loader put things.
#
# Host-time figures are masked before comparing: the `sim.wall.*` telemetry
# lines and ablation_conn_scaling's `setup ms` column.  A bench that has a
# golden file (bench/golden/) but no binary under the build tree fails too.
#
# Usage: tools/aslr_determinism.sh N [build-dir]   (build-dir defaults to build)
set -euo pipefail
source "$(dirname "$0")/bench_lib.sh"

runs=${1:?usage: $0 N [build-dir]}
build=${2:-build}
jobs=$(nproc)

if [[ "$(cat /proc/sys/kernel/randomize_va_space 2>/dev/null || echo 2)" == 0 ]]; then
  echo "aslr_determinism: ASLR is disabled on this host; the check would prove nothing" >&2
  exit 2
fi

bins=()
while read -r rel; do bins+=("$build/$rel"); done < <(bench_binaries "$build")
if (( ${#bins[@]} == 0 )); then
  echo "aslr_determinism: no bench binaries under $build/bench" >&2
  exit 2
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One job per (binary, run): run it, mask host time, keep the masked output.
run_one() {
  local bin=$1 i=$2 name
  name=$(basename "$bin")
  "$bin" 2>&1 | mask_host_time "$name" > "$OUT/$name.$i.txt"
}
export -f run_one mask_host_time
export OUT=$out

for b in "${bins[@]}"; do
  for ((i = 0; i < runs; ++i)); do printf '%s %d\n' "$b" "$i"; done
done | xargs -P "$jobs" -n 2 bash -c 'run_one "$0" "$1"'

status=0
for b in "${bins[@]}"; do
  name=$(basename "$b")
  distinct=$(md5sum "$out/$name".*.txt | awk '{print $1}' | sort -u | wc -l)
  if (( distinct == 1 )); then
    printf 'ok    %-28s %d runs, 1 output\n' "$name" "$runs"
  else
    status=1
    printf 'FAIL  %-28s %d runs, %d distinct outputs\n' "$name" "$runs" "$distinct"
    first=$(ls "$out/$name".*.txt | head -n 1)
    for f in "$out/$name".*.txt; do
      if ! cmp -s "$first" "$f"; then
        diff "$first" "$f" | head -n 20 || true
        break
      fi
    done
  fi
done
while read -r name; do
  status=1
  printf 'FAIL  %-28s has a golden file but no binary under %s\n' "$name" "$build"
done < <(missing_bench_binaries "$build")
exit $status
