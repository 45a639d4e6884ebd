#!/usr/bin/env bash
# Runs every figure, ablation and summary bench, and policy_explorer, four
# at a time, masks host time (tools/bench_lib.sh) and diffs each output
# against its golden file, bench/golden/<name>.txt.  Exits 1 if any bench
# differs, exits non-zero, has no golden file, or was not built, naming the
# bench and printing the rows that moved ('<' golden, '>' this build).
#
# A change that moves a simulated number updates the golden file in the
# same commit, so the diff shows every number that moved:
#   tools/golden_check.sh --update [build-dir]
#
# Usage: tools/golden_check.sh [--update] [build-dir]   (build-dir defaults to build)
set -euo pipefail
source "$(dirname "$0")/bench_lib.sh"

update=0
if [[ ${1:-} == --update ]]; then
  update=1
  shift
fi
build=${1:-build}
golden="$(cd "$(dirname "$0")/.." && pwd)/bench/golden"

rels=()
while read -r rel; do rels+=("$rel"); done < <(bench_binaries "$build")
if (( ${#rels[@]} == 0 )); then
  echo "golden_check: no bench binaries under $build/bench" >&2
  exit 2
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One job per binary: run it, mask host time, keep the output and the exit
# status (a bench with an out-of-band check exits 1).
run_one() {
  local bin=$1 name rc=0
  name=$(basename "$bin")
  "$bin" > "$OUT/$name.raw" 2>&1 || rc=$?
  mask_host_time "$name" < "$OUT/$name.raw" > "$OUT/$name.txt"
  echo "$rc" > "$OUT/$name.rc"
}
export -f run_one mask_host_time
export OUT=$out

printf '%s\n' "${rels[@]/#/$build/}" | xargs -P 4 -n 1 bash -c 'run_one "$0"'

status=0
for rel in "${rels[@]}"; do
  name=$(basename "$rel")
  rc=$(cat "$out/$name.rc")
  if (( update )); then
    mkdir -p "$golden"
    cp "$out/$name.txt" "$golden/$name.txt"
    printf 'wrote %-28s (exit %s)\n' "$name" "$rc"
    continue
  fi
  if [[ ! -f "$golden/$name.txt" ]]; then
    status=1
    printf 'FAIL  %-28s no golden file bench/golden/%s.txt\n' "$name" "$name"
  elif cmp -s "$golden/$name.txt" "$out/$name.txt"; then
    printf 'ok    %-28s\n' "$name"
  else
    status=1
    printf 'FAIL  %-28s rows differ from bench/golden/%s.txt:\n' "$name" "$name"
    diff "$golden/$name.txt" "$out/$name.txt" | grep '^[<>]' | sed "s/^/  $name: /" || true
  fi
  if [[ $rc != 0 ]]; then
    status=1
    printf 'FAIL  %-28s exited %s\n' "$name" "$rc"
  fi
done
# A golden file whose bench was not built is a failure too, not a skip.
if (( ! update )); then
  while read -r name; do
    status=1
    printf 'FAIL  %-28s has a golden file but no binary under %s\n' "$name" "$build"
  done < <(missing_bench_binaries "$build")
fi
exit $status
