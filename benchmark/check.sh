#!/bin/bash
# The gate a reviewer runs before merging a change to the benchmark: format,
# lints, the crate's tests, and a short run of every workload with all output
# checks on, under the default seed and a second one.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
for seed in 1 20240607; do
    cargo run --offline --release --quiet -- --seconds 0.5 --seed "$seed" | grep -v '^#'
    cargo run --offline --release --quiet -- --seconds 0.5 --seed "$seed" --trace 1 | grep -c '"correct":true' | grep -qx 5
done
echo "benchmark/check.sh: all checks passed"
