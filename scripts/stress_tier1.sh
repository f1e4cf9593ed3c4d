#!/usr/bin/env bash
# Tier-1 stress run: repeats the suites most sensitive to parallel
# execution (shared files, threads, virtual-time schedulers) under full
# ctest parallelism until one fails, to flush out flakes a single run
# hides. Run from the repository root:
#
#   scripts/stress_tier1.sh [repeats] [label-regex]
#
# Defaults: 20 repeats of the labels scale|fleet|chaos|fault. The
# unlabelled AdaptiveTrainer test still asserts on wall-clock compute
# timings, so it stays out of the default set until it runs on a
# modeled clock.
set -euo pipefail
cd "$(dirname "$0")/.."

repeats="${1:-20}"
labels="${2:-scale|fleet|chaos|fault}"

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build -L "${labels}" -j "$(nproc)" \
  --repeat "until-fail:${repeats}" --output-on-failure
