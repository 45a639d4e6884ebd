#!/usr/bin/env bash
# Runs N pairs of perfbench measurements of one workload, parent tree against
# change tree, alternating which side runs first, and prints:
#   - each pair's run_s, parent then change;
#   - each side's median and quartiles of every end-to-end metric;
#   - the pairs the change won on run_s (lower wins, ties count for neither);
#   - the run_s median gap divided by the parent's interquartile range;
#   - whether the virtual-time metrics and the digests matched in every run.
# A gain holds when the change wins at least 9 of 10 pairs and the median gap
# exceeds the parent's IQR (gap / IQR > 1).
#
# Each tree is a source checkout (git archive or clone) and builds its own
# perfbench into <tree>/.bench_build, whatever CARGO_TARGET_DIR says (a shared
# build directory would keep the first tree's configuration and run one
# binary on both sides).  The run length is BENCHMARK.json's run_seconds of
# the change tree.
#
# Usage: tools/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD N [SEED]
set -euo pipefail

parent=$(cd "${1:?usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD N [SEED]}" && pwd)
change=$(cd "${2:?usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD N [SEED]}" && pwd)
workload=${3:?usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD N [SEED]}
pairs=${4:?usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD N [SEED]}
seed=${5:-1}
((pairs >= 2)) || { echo "$0: N must be at least 2 (quartiles need two runs a side)" >&2; exit 2; }
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$change/BENCHMARK.json")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One measurement: the result line plus the digest lines, one file per run.
measure() {
  local tree=$1 file=$2
  (cd "$tree" && CARGO_TARGET_DIR="$tree/.bench_build" python3 perfbench/run.py \
    --workload "$workload" --seed "$seed" --seconds "$seconds" 2>/dev/null) |
    grep -E '^(digest |\{)' > "$file"
}

for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then
    measure "$parent" "$out/parent.$i"
    measure "$change" "$out/change.$i"
  else
    measure "$change" "$out/change.$i"
    measure "$parent" "$out/parent.$i"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$out" "$pairs" "$workload" "$seed" <<'EOF'
import json, os, statistics, sys

out, pairs, workload, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]

def load(side, i):
    with open(os.path.join(out, "%s.%d" % (side, i))) as f:
        lines = f.read().splitlines()
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, lines[:-1], result["failed"]

runs = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "change")}

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print("%s seed %s, %d pairs" % (workload, seed, pairs))
print("run_s per pair (parent -> change): " + ", ".join(
    "%.4f -> %.4f" % (p[0]["run_s"], c[0]["run_s"]) for p, c in zip(runs["parent"], runs["change"])))
for name in runs["parent"][0][0]:
    cells = []
    for side in ("parent", "change"):
        q1, med, q3 = quartiles([m[name] for m, _, _ in runs[side]])
        cells.append("%s %.6g [%.6g, %.6g]" % (side, med, q1, q3))
    print("  %-15s %s   %s" % (name, cells[0], cells[1]))

p = [m["run_s"] for m, _, _ in runs["parent"]]
c = [m["run_s"] for m, _, _ in runs["change"]]
won = sum(1 for a, b in zip(p, c) if b < a)
q1, pmed, q3 = quartiles(p)
cmed = statistics.median(c)
iqr = q3 - q1
print("run_s pairs won by the change: %d/%d" % (won, pairs))
print("run_s median gap %.6g s (%+.1f %%), parent IQR %.6g s, gap/IQR %s"
      % (pmed - cmed, 100.0 * (cmed - pmed) / pmed, iqr,
         "%.2f" % ((pmed - cmed) / iqr) if iqr > 0 else "inf"))

exact = ("virt_time_us", "virt_op_p50_us", "virt_op_p99_us", "paper_err_pct")
values = {k: {m[k] for side in runs for m, _, _ in runs[side]} for k in exact}
digests = {tuple(d) for side in runs for _, d, _ in runs[side]}
failed = sum(f for side in runs for _, _, f in runs[side])
print("virtual metrics identical: %s; digests identical: %s; failed ops: %d"
      % (all(len(v) == 1 for v in values.values()), len(digests) == 1, failed))
EOF
