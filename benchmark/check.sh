#!/usr/bin/env bash
# Everything CI would run on the benchmark. The root workspace's commands
# do not reach a standalone workspace, so they are repeated here.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--offline --manifest-path benchmark/Cargo.toml)

cargo fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy "${manifest[@]}" --all-targets -- -D warnings
cargo test "${manifest[@]}"
# One trial of every workload with every list cut to a tenth, all checks on.
cargo run --release --quiet "${manifest[@]}" -- --workload all --smoke >/dev/null
echo "benchmark: fmt, clippy, tests and smoke run are clean"
