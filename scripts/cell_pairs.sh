#!/usr/bin/env bash
# Measures this tree against another checkout cell by cell, in process:
# each side's cells are timed inside one long-lived probe process, so the
# process start-up, set-up and page-cache noise of whole-run pairs stays
# out of the comparison.
#
#   scripts/cell_pairs.sh --parent DIR --workload W [--workload W2 ...] --rounds N [--seed S]
#
# DIR is a checkout of the commit to compare against (`--parent .` compares
# this tree with itself: an A/A run that shows the harness's own spread).
# Only the solo workloads (membound-ondie, membound-trackers, idle-sprint,
# attack-oracle) are accepted: their cells are independent
# `System::build(cfg).run(traces)` calls. The cells come from each side's
# own `benchmark/src/workloads.rs` `prepare` at `Scale::FULL`, so a cell
# has one definition, the benchmark's; S defaults to 11.
#
# Each side builds a probe (a throwaway package under that side's
# `target/cell_pairs/`, with the root release profile, as benchmark/run.sh
# does) that prepares the workload once, lists its cells, then times one
# cell, build and run, per request on standard input. The driver runs
# every cell once on each side untimed (warm-up), then N rounds; in each
# round it runs every cell on both sides back to back, the parent first in
# even rounds and second in odd ones. Both sides must report the same
# simulated cycles and instructions for every cell.
#
# It prints one `cell` row per cell: both sides' median milliseconds, the
# median of the per-round ratios change / parent, and the rounds the
# change was faster in; then, per workload, the geometric mean of the
# cells' median ratios.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
    echo "usage: scripts/cell_pairs.sh --parent DIR --workload W [--workload W2 ...] --rounds N [--seed S]" >&2
    exit 2
}

parent="" workloads=() rounds="" seed=11
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --parent) parent="$2" ;;
        --workload) workloads+=("$2") ;;
        --rounds) rounds="$2" ;;
        --seed) seed="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$parent" ] && [ ${#workloads[@]} -gt 0 ] || usage
[[ "$rounds" =~ ^[1-9][0-9]*$ ]] && [[ "$seed" =~ ^[0-9]+$ ]] || usage
for w in "${workloads[@]}"; do
    case "$w" in
        membound-ondie | membound-trackers | idle-sprint | attack-oracle) ;;
        *)
            echo "cell_pairs.sh: '$w' is not a solo workload" >&2
            exit 2
            ;;
    esac
done
if [ ! -f "$parent/benchmark/src/workloads.rs" ]; then
    echo "cell_pairs.sh: $parent/benchmark/src/workloads.rs not found" >&2
    exit 2
fi
parent="$(cd "$parent" && pwd)"

# Builds the probe of the tree at $1 and prints its path.
build_probe() {
    local tree="$1" dir="$1/target/cell_pairs"
    mkdir -p "$dir/src"
    cat > "$dir/Cargo.toml" <<EOF
[package]
name = "cell-probe"
version = "0.1.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
chronus-benchmark = { path = "$tree/benchmark" }
chronus-sim = { path = "$tree/crates/sim" }
EOF
    cat > "$dir/src/main.rs" <<'EOF'
use std::io::{BufRead, Write};
use std::time::Instant;

use chronus_benchmark::scale::Scale;
use chronus_benchmark::span::Recorder;
use chronus_benchmark::workloads::{prepare, Prepared};
use chronus_sim::System;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = args[2].parse().expect("seed");
    let store = std::env::temp_dir().join("cell-probe-unused-store");
    let mut rec = Recorder::new(false);
    let Prepared::Solo(cells) = prepare(&args[1], &Scale::FULL, seed, &store, &mut rec) else {
        panic!("{} is not a solo workload", args[1]);
    };
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", cells.len()).unwrap();
    for c in &cells {
        writeln!(out, "{}", c.label).unwrap();
    }
    out.flush().unwrap();
    for line in std::io::stdin().lock().lines() {
        let cell = &cells[line.unwrap().trim().parse::<usize>().expect("cell index")];
        let traces = cell.traces.clone();
        let t = Instant::now();
        let report = System::build(&cell.cfg).run(traces);
        let ns = t.elapsed().as_nanos();
        let instr = report.total_instructions();
        writeln!(out, "{ns} {} {instr}", report.mem_cycles).unwrap();
        out.flush().unwrap();
    }
}
EOF
    # The product's release profile, read the way benchmark/run.sh reads it.
    (
        while IFS='=' read -r key value; do
            export "CARGO_PROFILE_RELEASE_$key=$value"
        done < <(awk '
            /^\[/ { in_release = ($0 ~ /^\[profile\.release\][ \t]*$/) ; next }
            in_release && /^[ \t]*[A-Za-z_-]+[ \t]*=/ {
                split($0, kv, "=")
                key = kv[1]; gsub(/[ \t]/, "", key); gsub(/-/, "_", key)
                value = substr($0, index($0, "=") + 1)
                sub(/#.*/, "", value); gsub(/^[ \t"]+|[ \t"]+$/, "", value)
                print toupper(key) "=" value
            }' "$tree/Cargo.toml")
        CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
            --manifest-path "$dir/Cargo.toml" >&2
    )
    echo "$dir/target/release/cell-probe"
}

parent_probe="$(build_probe "$parent")"
if [ "$parent" = "$root" ]; then
    change_probe="$parent_probe"
else
    change_probe="$(build_probe "$root")"
fi

for w in "${workloads[@]}"; do
    python3 - "$parent_probe" "$change_probe" "$w" "$seed" "$rounds" <<'EOF'
import math, statistics, subprocess, sys

parent_probe, change_probe, workload, seed, rounds = sys.argv[1:6]
rounds = int(rounds)

def start(path):
    p = subprocess.Popen([path, workload, seed], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, text=True)
    labels = [p.stdout.readline().strip() for _ in range(int(p.stdout.readline()))]
    return p, labels

def run(side, cell):
    p = sides[side][0]
    p.stdin.write("%d\n" % cell)
    p.stdin.flush()
    ns, cycles, instr = p.stdout.readline().split()
    return int(ns) / 1e6, (cycles, instr)

sides = {"p": start(parent_probe), "c": start(change_probe)}
labels = sides["p"][1]
if sides["c"][1] != labels:
    sys.exit("cell_pairs.sh: %s: the two sides prepare different cells" % workload)

ms = {(s, i): [] for s in "pc" for i in range(len(labels))}
for r in range(-1, rounds):  # round -1 warms up, untimed
    for i, label in enumerate(labels):
        order = "pc" if r % 2 == 0 else "cp"
        got = {s: run(s, i) for s in order}
        if got["p"][1] != got["c"][1]:
            sys.exit("cell_pairs.sh: %s: the sides simulate different runs (cycles, instructions) %s vs %s"
                     % (label, got["p"][1], got["c"][1]))
        if r >= 0:
            for s in "pc":
                ms[(s, i)].append(got[s][0])
for p, _ in sides.values():
    p.stdin.close()
    p.wait()

print("%s, seed %s, %d rounds: per cell, median ms, median change/parent ratio, rounds won"
      % (workload, seed, rounds))
log_sum = 0.0
for i, label in enumerate(labels):
    par, chg = ms[("p", i)], ms[("c", i)]
    ratio = statistics.median(c / p for p, c in zip(par, chg))
    wins = sum(c < p for p, c in zip(par, chg))
    log_sum += math.log(ratio)
    print("cell %-28s parent %9.3f  change %9.3f  ratio %.4f (%+.1f %%)  wins %d/%d"
          % (label, statistics.median(par), statistics.median(chg), ratio,
             (ratio - 1) * 100, wins, rounds))
geo = math.exp(log_sum / len(labels))
print("geomean %s: %.4f (%+.1f %%) over %d cells" % (workload, geo, (geo - 1) * 100, len(labels)))
EOF
done
