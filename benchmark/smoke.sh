#!/usr/bin/env bash
# The benchmark's own tests plus a two-second run of every workload, gated
# and traced. Numbers from --quick runs are marked "comparable": false.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --manifest-path benchmark/Cargo.toml
for workload in dss htap scan_hot scan_cold; do
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 2 --trace "$trace" --quick \
      --out .bench_out/smoke | tail -n 1 | cut -c1-160
  done
done
