#!/usr/bin/env bash
# The benchmark's one command. Builds the standalone package in release
# mode without touching the network, then hands every argument to it:
#
#   benchmark/run.sh                      all workloads, untraced then traced; writes RESULTS.json
#   benchmark/run.sh --aa                 the same, twice, compared against the bounds
#   benchmark/run.sh --smoke              1 s windows, nothing written
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload; the last line is the result line
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr, so stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/xqr-benchmark" "$@"
