#!/usr/bin/env bash
# Local CI: formatting, lints, doc links, every test in the workspace, and the
# end-to-end benchmark as the last step. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== PINOT_* names: crates/ and README.md list the same set =="
knobs_in_code=$(grep -rhoE 'PINOT_[A-Z_]+' --include=*.rs crates | sort -u)
knobs_in_readme=$(grep -oE 'PINOT_[A-Z_]+' README.md | sort -u)
if [ "$knobs_in_code" != "$knobs_in_readme" ]; then
    echo "PINOT_* names differ (< crates/, > README.md):"
    diff <(echo "$knobs_in_code") <(echo "$knobs_in_readme") || true
    exit 1
fi

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== every test of every crate (unit, integration, proptests, doc) =="
cargo test --workspace -q

echo "== tier-1 tests, deterministic single-thread pools =="
PINOT_TASKPOOL_THREADS=1 cargo test -q

echo "== benchmark: its own tests against the current crates =="
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== benchmark: the four BENCHMARK.json workloads, quick =="
bash benchmark/run.sh --quick

echo "CI OK"
