#!/usr/bin/env bash
# Tier-1 stress run: repeats the suite under full ctest parallelism
# until one test fails, to flush out flakes a single run hides (shared
# files, threads, virtual-time schedulers). Run from the repository
# root:
#
#   scripts/stress_tier1.sh [repeats] [label-regex]
#
# Defaults: 20 repeats of the whole suite minus the `timing` label
# (`ctest -LE timing`). `timing` marks the one test that asserts on
# measured compute time (adaptive_training_test); load from the
# parallel repeats would only test the machine. A label regex narrows
# the run to those labels instead (e.g. `scale|fleet|chaos|fault`).
set -euo pipefail
cd "$(dirname "$0")/.."

repeats="${1:-20}"
if [[ $# -ge 2 ]]; then
  select=(-L "$2")
else
  select=(-LE timing)
fi

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build "${select[@]}" -j "$(nproc)" \
  --repeat "until-fail:${repeats}" --output-on-failure
