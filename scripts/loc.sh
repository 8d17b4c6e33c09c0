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
# grid non-test:   the same first-#[cfg(test)] cut over those files
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

kernel=(crates/ctrl/src/*.rs crates/dram/src/*.rs crates/sim/src/*.rs)
grid=(crates/grid/src/*.rs)

# Sum over the given files of the lines above each one's first #[cfg(test)].
non_test() {
    local sum=0 n f
    for f in "$@"; do
        n=$(awk '/^#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$f")
        sum=$((sum + n))
    done
    echo "$sum"
}

printf 'kernel total    %6d  crates/{ctrl,dram,sim}/src/*.rs\n' "$(cat "${kernel[@]}" | wc -l)"
printf 'kernel non-test %6d  lines above the first #[cfg(test)]\n' "$(non_test "${kernel[@]}")"
printf 'grid total      %6d  crates/grid/src/*.rs\n' "$(cat "${grid[@]}" | wc -l)"
printf 'grid non-test   %6d  lines above the first #[cfg(test)]\n' "$(non_test "${grid[@]}")"
