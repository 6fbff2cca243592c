#!/usr/bin/env bash
# Builds the product binary (`parma`) and the benchmark harness from source,
# then runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: e2ebench/target); the
# harness keeps its scratch files under <target>/e2ebench-work and removes
# them when it exits.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
root="$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --quiet --offline --release --manifest-path "$root/Cargo.toml" \
    -p parma-cli --bin parma --target-dir "$target" >&2
cargo build --quiet --offline --release --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/e2ebench" --parma "$target/release/parma" \
    --work "$target/e2ebench-work" "$@"
