#!/usr/bin/env bash
# Runs a googletest binary under a --gtest_filter, but first checks that
# every positive pattern of the filter selects at least one test on its own.
# A plain --gtest_filter passes silently when a named test is deleted or
# renamed; this exits 1 instead, naming the pattern that matched nothing.
# Negative patterns (after the first '-') are passed through unchecked.
#
# Usage: tools/gtest_filtered.sh <test-binary> '<pattern>[:<pattern>...][-<negative>...]'
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <test-binary> <gtest-filter>" >&2
  exit 2
fi
bin=$1
filter=$2

IFS=':' read -ra patterns <<< "${filter%%-*}"
missing=0
for pattern in "${patterns[@]}"; do
  [[ -n $pattern ]] || continue
  # Test lines of --gtest_list_tests are indented; suite lines are not.
  listed=$("$bin" --gtest_list_tests --gtest_filter="$pattern")
  if ! grep -q '^  ' <<< "$listed"; then
    echo "$0: '$pattern' selects no test in $bin" >&2
    missing=1
  fi
done
[[ $missing -eq 0 ]] || exit 1

exec "$bin" --gtest_filter="$filter"
