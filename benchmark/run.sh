#!/usr/bin/env bash
# The benchmark's one command. Builds the `benchmark` package in release mode
# (into $CARGO_TARGET_DIR, or benchmark/target) and runs it with the given
# arguments; see README.md. With no --workload, every workload is run, each
# in a process of its own.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
