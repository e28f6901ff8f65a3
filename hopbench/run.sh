#!/usr/bin/env bash
# Builds hoplited and hopbench from source into one target directory,
# then runs hopbench with this script's arguments. Run it from the
# repository root:
#
#   bash hopbench/run.sh --workload point_reads --seed 7 --seconds 20 --trace 0
#
# CARGO_TARGET_DIR picks the target directory (default: target).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p hoplite-server --bin hoplited
cargo build --release --offline --quiet --manifest-path hopbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/hopbench" "$@"
