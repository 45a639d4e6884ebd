# Shared by tools/aslr_determinism.sh and tools/bench_diff.sh; source it.

# Prints, one per line, the figure, ablation and summary bench binaries and
# examples/policy_explorer under build tree $1 (paths relative to it).
bench_binaries() {
  local build=$1 b
  for b in "$build"/bench/fig{03..12}_* "$build"/bench/ablation_* \
           "$build"/bench/headline_summary "$build"/bench/pallas_collectives \
           "$build"/bench/nas_cg_nodegradation "$build"/examples/policy_explorer; do
    [[ -x "$b" ]] && printf '%s\n' "${b#"$build"/}"
  done
  return 0
}

# Prints, one per line, the name of every bench that bench/golden/ holds a
# file for but that has no binary under build tree $1: a build missing
# benches must fail a check, not shrink it.
missing_bench_binaries() {
  local build=$1 golden g rel
  golden="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/bench/golden"
  local -A built=()
  while read -r rel; do built[$(basename "$rel")]=1; done < <(bench_binaries "$build")
  for g in "$golden"/*.txt; do
    [[ -n ${built[$(basename "$g" .txt)]:-} ]] || basename "$g" .txt
  done
  return 0
}

# Filters a bench's output (stdin to stdout) so that only simulated results
# remain: host-time figures are masked, namely the `sim.wall.*` telemetry
# lines and ablation_conn_scaling's `setup ms` column.  $1 is the binary's
# base name.
mask_host_time() {
  sed -E 's/^(sim\.wall\.[^ ]+).*/\1 <host>/' |
    awk -v conn="$([[ $1 == ablation_conn_scaling ]] && echo 1)" '
      conn && /^[0-9]+ ranks / { $4 = "<host>" } { print }'
}
