#!/usr/bin/env bash
# Builds the benchmark with the product's own release profile and runs it.
#
#   benchmark/run.sh                     every workload + traced runs (~3 min)
#   benchmark/run.sh --workload NAME     one workload
#   benchmark/run.sh --seed 12           another seed
#   benchmark/run.sh --selfcheck         two runs, compared against the bounds
#
# Driver contract: --workload NAME --seed N --seconds S --trace 0|1 prints one
# JSON result as the last line of standard output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "run.sh: $root holds no simulator (Cargo.toml, crates/): nothing to measure" >&2
    exit 2
fi

# Same compiler settings as the product: every key of the root
# [profile.release] table becomes CARGO_PROFILE_RELEASE_<KEY>, so a change to
# the root profile is measured without editing this package.
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
    }' "$root/Cargo.toml")

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it so the build and the exec below agree.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/chronus-benchmark" --root "$root" "$@"
