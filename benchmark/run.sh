#!/usr/bin/env bash
# The SAMOA benchmark's one entry point. Builds the benchmark crate (release,
# offline) and hands the arguments to it. Run from anywhere; it works from
# the repository root.
#
#   benchmark/run.sh run --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh all [--seed N] [--seconds S] [--traced]
#   benchmark/run.sh all --smoke      # + schema check, fmt, clippy, tests
#   benchmark/run.sh aa [--sets 5]    # A/A noise floor -> benchmark/AA.md
#   benchmark/run.sh schema           # prints BENCHMARK.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"

# Cargo's own chatter goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2

if [[ " $* " == *" --smoke "* ]]; then
    # Root CI never sees this crate, so the smoke run carries its gates.
    cargo fmt --manifest-path "$manifest" --check 1>&2
    cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings 1>&2
    cargo test --offline --quiet --manifest-path "$manifest" 1>&2
fi

# One CPU, always the same one. On this 2-vCPU VM a wake-up that crosses
# CPUs costs a trip through the hypervisor, and where the scheduler happens
# to put the threads decides how many do: unpinned, kv-sim3-closed read
# 41-274 ops/s from run to run; pinned it reads 485-535 (yes, faster on one
# CPU than on two). See README.md, "Steadiness".
cpu=$(awk '/^Cpus_allowed_list:/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)
if command -v taskset >/dev/null; then
    exec taskset -c "${cpu:-0}" "$target/release/samoa-benchmark" "$@"
fi
echo "warning: taskset not found, running unpinned (expect noisy numbers)" >&2
exec "$target/release/samoa-benchmark" "$@"
