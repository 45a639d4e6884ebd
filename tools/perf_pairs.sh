#!/usr/bin/env bash
# Runs N pairs of perfbench measurements of one workload, parent tree against
# change tree, alternating which side runs first, and prints for every
# end-to-end metric of BENCHMARK.json:
#   - each pair's value, parent then change;
#   - each side's median and quartiles;
#   - the pairs the change won (better by the metric's direction; ties count
#     for neither);
#   - the median gap (positive = the change is better) divided by the
#     parent's interquartile range;
# then whether the virtual-time metrics and the digests matched in every
# run.  A gain on a metric holds when the change wins at least 9 of 10 pairs
# and the median gap exceeds the parent's IQR (gap / IQR > 1).
#
# The digests hash the telemetry snapshot, event count included, so a change
# that only makes the simulator cheaper still changes them.  When they
# differ, one short traced run per tree says which per-layer counts moved
# (the exact "count" metrics of BENCHMARK.json's per_layer list; host.* is
# left out, it is host noise).
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
  shift 2
  (cd "$tree" && CARGO_TARGET_DIR="$tree/.bench_build" python3 perfbench/run.py \
    --workload "$workload" --seed "$seed" "$@" 2>/dev/null) |
    grep -E '^(digest |\{)' > "$file"
}

for ((i = 0; i < pairs; ++i)); do
  if ((i % 2 == 0)); then
    measure "$parent" "$out/parent.$i" --seconds "$seconds"
    measure "$change" "$out/change.$i" --seconds "$seconds"
  else
    measure "$change" "$out/change.$i" --seconds "$seconds"
    measure "$parent" "$out/parent.$i" --seconds "$seconds"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

# The digests of the two sides' first runs: a traced run per tree explains
# a difference.
if ! cmp -s <(grep '^digest ' "$out/parent.0") <(grep '^digest ' "$out/change.0"); then
  measure "$parent" "$out/parent.trace" --seconds 3 --trace 1
  measure "$change" "$out/change.trace" --seconds 3 --trace 1
fi

python3 - "$out" "$pairs" "$workload" "$seed" "$change/BENCHMARK.json" <<'EOF'
import json, os, statistics, sys

out, pairs, workload, seed, spec_path = sys.argv[1:6]
pairs = int(pairs)
with open(spec_path) as f:
    spec = json.load(f)

def load(name):
    with open(os.path.join(out, name)) as f:
        lines = f.read().splitlines()
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, lines[:-1], result["failed"]

runs = {s: [load("%s.%d" % (s, i)) for i in range(pairs)] for s in ("parent", "change")}

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print("%s seed %s, %d pairs" % (workload, seed, pairs))
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r[name] for r, _, _ in runs["parent"]]
    c = [r[name] for r, _, _ in runs["change"]]
    q1, pmed, q3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    won = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    gap = pmed - cmed if lower else cmed - pmed
    iqr = q3 - q1
    if iqr > 0:
        ratio = "%.2f" % (gap / iqr)
    else:
        ratio = "n/a" if gap == 0 else "inf"
    rel = 100.0 * (cmed - pmed) / pmed if pmed != 0 else 0.0
    print("%s (%s, %s is better)" % (name, m["unit"], m["better"]))
    print("  per pair (parent -> change): " +
          ", ".join("%.6g -> %.6g" % (a, b) for a, b in zip(p, c)))
    print("  parent %.6g [%.6g, %.6g]   change %.6g [%.6g, %.6g]" % (pmed, q1, q3, cmed, cq1, cq3))
    print("  pairs won by the change %d/%d; median gap %.6g %s (%+.1f %%), parent IQR %.6g, "
          "gap/IQR %s" % (won, pairs, gap, m["unit"], rel, iqr, ratio))

exact = ("virt_time_us", "virt_op_p50_us", "virt_op_p99_us", "paper_err_pct")
values = {k: {r[k] for side in runs for r, _, _ in runs[side]} for k in exact}
digests = {tuple(d) for side in runs for _, d, _ in runs[side]}
failed = sum(f for side in runs for _, _, f in runs[side])
print("virtual metrics identical: %s; digests identical: %s; failed ops: %d"
      % (all(len(v) == 1 for v in values.values()), len(digests) == 1, failed))

if os.path.exists(os.path.join(out, "parent.trace")):
    pt, _, _ = load("parent.trace")
    ct, _, _ = load("change.trace")
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and not m["name"].startswith("host.")]
    moved = ["%s %.0f -> %.0f" % (k, pt[k], ct[k]) for k in counts if pt[k] != ct[k]]
    print("digest difference, per-layer counts that moved (traced run): " +
          (", ".join(moved) if moved else "none; it is in a counter perfbench does not report"))
EOF
