#!/usr/bin/env bash
# Fleet-scheduling gate: builds and runs the disc_fleet bench binary,
# which replays a 120-job Poisson trace over heterogeneous cluster B
# through all three scheduling policies, writes BENCH_fleet.json, and
# exits non-zero if the goodput-greedy policy fails to improve mean JCT
# over the FIFO baseline (the hard floor that catches a regressed
# packer or a broken preemption path). The bench runs twice, and the
# gate also fails when the two stdouts differ anywhere but on
# `measured_` (wall-clock) lines: every other figure is a pure function
# of the seeded trace. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)" --target disc_fleet

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

./build/bench/disc_fleet | tee "$scratch/first.txt"
./build/bench/disc_fleet > "$scratch/second.txt"

if ! diff <(grep -v 'measured_' "$scratch/first.txt") \
          <(grep -v 'measured_' "$scratch/second.txt"); then
  echo "fleet bench gate FAILED: disc_fleet output differs between two runs" >&2
  exit 1
fi

echo "fleet bench gate passed (deterministic; see BENCH_fleet.json)"
