#!/usr/bin/env bash
# Builds the benchmark (and the qucad-serve binary it drives) from source,
# then runs it with the given arguments. Run from the repository root:
#   bash e2ebench/run.sh --workload threads2 --seed 42 --seconds 30 --trace 0
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2ebench" "$@"
