#!/usr/bin/env bash
# Runs the benchmark and records the run in the tracked trajectory.
#
#   scripts/bench_record.sh --workload idle-sprint --seed 11 --seconds 10 --trace 0
#   scripts/bench_record.sh --tree ../parent --workload idle-sprint --seed 11
#
# Every other argument goes to benchmark/run.sh, whose output passes through
# unchanged. The line that run appends to the git-ignored
# benchmark/out/history.jsonl (git SHA, seed, per-workload medians, failures,
# sim digests) is then appended to BENCH_history.jsonl at the repository root,
# with the toolchain and host it ran on: `rustc -V`, `nproc` and the CPU model.
# With `--tree DIR` the run is of another checkout's benchmark/run.sh (a parent
# commit, say), under that checkout's git SHA, and is still recorded here.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tree="$root"
if [ "${1:-}" = "--tree" ]; then
    tree="$(cd "${2:?bench_record.sh: --tree needs a directory}" && pwd)"
    shift 2
fi
history="$tree/benchmark/out/history.jsonl"
trajectory="$root/BENCH_history.jsonl"

before=0
if [ -f "$history" ]; then
    before=$(wc -l < "$history")
fi

"$tree/benchmark/run.sh" "$@"

after=$(wc -l < "$history")
if [ "$after" -ne $((before + 1)) ]; then
    echo "bench_record.sh: expected one new line in $history, found $((after - before))" >&2
    exit 1
fi
line=$(tail -n 1 "$history")

# JSON string contents: backslashes and double quotes escaped.
json_escape() {
    local s="${1//\\/\\\\}"
    printf '%s' "${s//\"/\\\"}"
}

rustc_v=$(rustc -V)
cpus=$(nproc)
cpu_model=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)

printf '%s,"source":"run","rustc":"%s","nproc":%s,"cpu":"%s"}\n' \
    "${line%\}}" "$(json_escape "$rustc_v")" "$cpus" "$(json_escape "${cpu_model:-unknown}")" \
    >> "$trajectory"
