#!/usr/bin/env bash
# Runs every bench binary that tools/aslr_determinism.sh covers from two
# build trees, masks host-time figures the same way, prints the differences
# and exits 1 on any, or on a bench with a golden file (bench/golden/) but no
# binary in either tree.  Use it to check
# that a change leaves every simulated result as it was: build the parent
# commit in one tree and the change in the other.
#
# Usage: tools/bench_diff.sh BUILD_A BUILD_B
set -euo pipefail
source "$(dirname "$0")/bench_lib.sh"

a=${1:?usage: $0 BUILD_A BUILD_B}
b=${2:?usage: $0 BUILD_A BUILD_B}

rels=()
while read -r rel; do rels+=("$rel"); done < <(bench_binaries "$a")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir -p "$out/a" "$out/b"

# One job per (side, binary): run it, mask host time, keep the output.
run_one() {
  local side=$1 build=$2 rel=$3 name
  name=$(basename "$rel")
  if [[ -x "$build/$rel" ]]; then
    "$build/$rel" 2>&1 | mask_host_time "$name" > "$OUT/$side/$name.txt"
  else
    echo "<missing: $build/$rel>" > "$OUT/$side/$name.txt"
  fi
}
export -f run_one mask_host_time
export OUT=$out

for rel in "${rels[@]}"; do
  printf '%s %s %s\n' a "$a" "$rel" b "$b" "$rel"
done | xargs -P "$(nproc)" -n 3 bash -c 'run_one "$0" "$1" "$2"'

status=0
for rel in "${rels[@]}"; do
  name=$(basename "$rel")
  if cmp -s "$out/a/$name.txt" "$out/b/$name.txt"; then
    printf 'same  %s\n' "$name"
  else
    status=1
    printf 'DIFF  %s\n' "$name"
    diff "$out/a/$name.txt" "$out/b/$name.txt" || true
  fi
done
for build in "$a" "$b"; do
  while read -r name; do
    status=1
    printf 'FAIL  %-28s has a golden file but no binary under %s\n' "$name" "$build"
  done < <(missing_bench_binaries "$build")
done
exit $status
