#!/usr/bin/env bash
# Local CI: formatting, lints, every test in the workspace, and the
# end-to-end benchmark as the last step. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== every test of every crate (unit, integration, proptests, doc) =="
cargo test --workspace -q

echo "== tier-1 tests, deterministic single-thread pools =="
PINOT_TASKPOOL_THREADS=1 cargo test -q

echo "== benchmark: its own tests against the current crates =="
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== benchmark: the four BENCHMARK.json workloads, quick =="
bash benchmark/run.sh --quick

echo "CI OK"
