#!/usr/bin/env bash
# Prints the line counts ROADMAP.md tracks for the simulation kernel and the
# experiment-grid crate.
#
#   scripts/loc.sh
#
# kernel total:    every line of crates/{ctrl,dram,sim}/src/*.rs
# kernel non-test: the lines above each of those files' first `#[cfg(test)]`
#                  (the whole file when it has none)
# grid total:      every line of crates/grid/src/*.rs
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

kernel=(crates/ctrl/src/*.rs crates/dram/src/*.rs crates/sim/src/*.rs)

total=$(cat "${kernel[@]}" | wc -l)
non_test=0
for f in "${kernel[@]}"; do
    n=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$f")
    non_test=$((non_test + n))
done
grid=$(cat crates/grid/src/*.rs | wc -l)

printf 'kernel total    %6d  crates/{ctrl,dram,sim}/src/*.rs\n' "$total"
printf 'kernel non-test %6d  lines above the first #[cfg(test)]\n' "$non_test"
printf 'grid total      %6d  crates/grid/src/*.rs\n' "$grid"
