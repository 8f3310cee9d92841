#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result. Exits non-zero, printing no result,
# when the build fails (for example outside a full checkout).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/dscts-benchmark" "$@"
