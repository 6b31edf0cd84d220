#!/usr/bin/env bash
# Builds the benchmark offline and runs it. Arguments go to the binary
# (see --help). cargo runs from inside benchmark/ so that it finds the
# repository's .cargo/config.toml (target-cpu=native); with
# --manifest-path from another directory it would silently drop it.
set -euo pipefail
start_dir=$PWD
cd "$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR means relative to where the caller stood.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
  export CARGO_TARGET_DIR="$start_dir/$CARGO_TARGET_DIR"
fi
target_dir=${CARGO_TARGET_DIR:-$PWD/target}
# Build output goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --quiet 1>&2
exec "$target_dir/release/neutraj-benchmark" "$@"
