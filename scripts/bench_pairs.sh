#!/usr/bin/env bash
# Measures this tree against another checkout in alternating pairs, records
# every run in the tracked trajectory and prints the comparison.
#
#   scripts/bench_pairs.sh --parent DIR --workload W --pairs N --seed S [--seconds T]
#
# DIR is a checkout of the commit to compare against (for a perf claim, the
# parent: `git clone` the repository into DIR and check the parent out;
# `--parent .` compares this tree with itself). Each pair runs DIR's
# benchmark/run.sh and this tree's, both with `--workload W --seed S
# --seconds T --trace 0` (T defaults to 10); the parent runs first in odd
# pairs and second in even ones, so the first run is the parent's and
# neither side always runs first. scripts/bench_record.sh appends every run
# to this tree's BENCH_history.jsonl, under its own tree's git SHA. The
# runs' own output is discarded.
#
# Then, for each of the seven end-to-end metrics, it prints the parent's and
# the change's median [q1, q3] over the per-run medians (quartiles by
# Python's `statistics.quantiles(n=4)`, the rule benchmark/src/stats.rs
# follows), the change in the median, and the pairs in which the change was
# better; and per side, the failed operations and the distinct sim digests.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
    echo "usage: scripts/bench_pairs.sh --parent DIR --workload W --pairs N --seed S [--seconds T]" >&2
    exit 2
}

parent="" workload="" pairs="" seed="" seconds=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --parent) parent="$2" ;;
        --workload) workload="$2" ;;
        --pairs) pairs="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$parent" ] && [ -n "$workload" ] && [ -n "$seed" ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
if [ ! -x "$parent/benchmark/run.sh" ]; then
    echo "bench_pairs.sh: $parent/benchmark/run.sh not found" >&2
    exit 2
fi

trajectory="$root/BENCH_history.jsonl"
before=0
if [ -f "$trajectory" ]; then
    before=$(wc -l < "$trajectory")
fi

args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
order=""
run() {
    echo "bench_pairs.sh: pair $1/$pairs: $2" >&2
    if [ "$2" = parent ]; then
        "$root/scripts/bench_record.sh" --tree "$parent" "${args[@]}" > /dev/null
    else
        "$root/scripts/bench_record.sh" "${args[@]}" > /dev/null
    fi
    order="$order ${2:0:1}"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run "$i" parent
        run "$i" change
    else
        run "$i" change
        run "$i" parent
    fi
done

# One line per run, appended in the order recorded in $order (p or c).
tail -n +"$((before + 1))" "$trajectory" | python3 -c '
import json, statistics, sys

workload, order = sys.argv[1], sys.argv[2].split()
METRICS = [  # name, higher is better
    ("wall_s", False), ("cpu_s", False), ("sim_mcycles_per_s", True),
    ("sim_mips", True), ("cells_per_s", True), ("peak_rss_mb", False),
    ("setup_s", False),
]
runs = [json.loads(line) for line in sys.stdin]
assert len(runs) == len(order), "expected one trajectory line per run"
sides = {side: [r for r, o in zip(runs, order) if o == side[0]] for side in ("parent", "change")}

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return "%.5g [%.5g, %.5g]" % (statistics.median(values), q1, q3)

def values(side, metric):
    return [run["workloads"][workload][metric] for run in sides[side]]

print("%s, seed %s, %d pairs: parent %s | change %s" % (
    workload, runs[0]["seed"], len(sides["parent"]),
    sides["parent"][0]["git_sha"], sides["change"][0]["git_sha"]))
print("%-18s %-34s %-34s %8s %6s" % ("metric", "parent median [q1, q3]",
                                     "change median [q1, q3]", "delta", "won"))
for metric, higher in METRICS:
    p, c = values("parent", metric), values("change", metric)
    mp, mc = statistics.median(p), statistics.median(c)
    delta = "%+.1f %%" % (100 * (mc - mp) / mp) if mp else "n/a"
    won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    print("%-18s %-34s %-34s %8s %3d/%d" % (
        metric, summary(p), summary(c), delta, won, len(p)))
for side in sides:
    print("%s: failed %d of %d attempted; sim_digest %s" % (
        side, sum(values(side, "failed")), sum(values(side, "attempted")),
        " ".join(sorted(set(values(side, "sim_digest"))))))
' "$workload" "$order"
