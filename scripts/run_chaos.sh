#!/usr/bin/env bash
# Chaos gate: builds the default preset, runs the chaos-labelled test
# suite, then sweeps the seeded fuzzer. Any invariant violation makes
# chaos_fuzz print the minimal reproducing schedule and exit non-zero,
# which fails this script. Run from the repository root.
#
#   scripts/run_chaos.sh [SEEDS] [RANKS]
#
# defaults to the acceptance sweep: 500 schedules at 256 virtual ranks.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-500}"
RANKS="${2:-256}"

cmake --preset default
cmake --build --preset default -j "$(nproc)"

# Deterministic invariants first: plan_delivery and LinkFaults
# semantics, the harness's replay determinism and schedule shrinking.
ctest --test-dir build -L chaos --output-on-failure -j "$(nproc)"

# Then the sweep. BENCH_chaos.json (scenario throughput, recovery-time
# percentiles, retry counts, exclusion rate) lands in the repo root.
./build/bench/chaos_fuzz --seeds="${SEEDS}" --ranks="${RANKS}"

echo "chaos gate passed: ${SEEDS} schedules at ${RANKS} ranks, 0 violations"
