#!/usr/bin/env bash
# Builds `msrpctl` and the lifecycle benchmark from this checkout, then runs one workload:
#
#   bash lifecycle_bench/run.sh --workload serve|build|churn --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR (default
# .bench_build); snapshots and server state go to .bench_work, removed after each run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin msrpctl >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/msrp-lifecycle-bench" \
    --msrpctl "$CARGO_TARGET_DIR/release/msrpctl" --work-dir "$root/.bench_work" "$@"
