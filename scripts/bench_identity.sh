#!/usr/bin/env bash
# Byte-identity gate for the seeded benches: runs every bench binary of
# two build trees and diffs their stdout. Use it to show that a change
# meant to preserve behaviour (a refactor, an output-preserving speedup)
# leaves every seeded figure, table and shape check exactly as it was:
#
#   git archive <ref> | tar -x -C <ref-src>
#   cmake -B <ref-src>/build -S <ref-src> && cmake --build <ref-src>/build -j
#   cmake -B build -S . && cmake --build build -j
#   scripts/bench_identity.sh <ref-src>/build build
#
# Exits non-zero when any bench differs, exits non-zero, or is missing
# from the reference tree, and when any shape check of the new tree
# prints MISMATCH -- even one the reference tree misses the same way.
# Prints the number of shape checks that held. Each bench runs in its own temporary working
# directory, so the BENCH_*.json artifacts some of them write stay out
# of the tree.
#
# Measured wall-clock fields vary run to run by design. They are
# normalised by one filter per bench (normalize below) before the
# diff; every other byte must match. micro_perf is skipped: every
# number it prints is measured.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <ref-build> <new-build>" >&2
  exit 2
fi
ref="$(cd "$1" && pwd)"
new="$(cd "$2" && pwd)"

# Replaces the measured fields of one bench's stdout (read on stdin).
normalize() {
  case "$1" in
    chaos_fuzz)
      sed -E 's#[0-9.]+ scenarios/sec#<measured> scenarios/sec#' ;;
    disc_fault_recovery)
      # Scenarios 4-5: the checkpoint write/restore seconds, and the
      # supervised totals, which bill that measured checkpoint I/O to
      # the simulated clock (checkpointed-restart, discard-epoch,
      # shrink-only and re-join; planning time is modeled).
      sed -E 's/[0-9.]+s measured/<measured>s measured/g;
              s/measured overhead [0-9.]+s/measured overhead <measured>s/g;
              s/checkpointed restart [0-9.]+s/checkpointed restart <measured>s/;
              s/discard-epoch [0-9.]+s total/discard-epoch <measured>s total/;
              s/shrink-only time-to-target [0-9.]+s/shrink-only time-to-target <measured>s/;
              s/re-join [0-9.]+s$/re-join <measured>s/' ;;
    disc_fleet)
      sed -E '/^measured_/s/(p[0-9]+) [0-9.]+/\1 <measured>/g' ;;
    table6_overhead)
      sed -E 's#[0-9.]+ us/(epoch|solve) measured#<measured> us/\1 measured#g' ;;
    disc_scaling)
      # Table rows: plan seconds (cols 2-3), events/sec (6) and peak
      # RSS (8) are measured; ranks, algorithm, event counts and
      # virtual round time are seeded.
      awk '/^[0-9]+ +[0-9.]+ +[0-9.]+ +[a-z]+ / {
             $2 = $3 = $6 = $8 = "<measured>"
           }
           { print }' ;;
    *) cat ;;
  esac
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Runs bench $3 of build tree $2 into $tmp/$1/<bench>.out.
run_bench() {
  local side="$1" tree="$2" name="$3"
  local dir="$tmp/$side/$name"
  mkdir -p "$dir"
  if ! (cd "$dir" && "$tree/bench/$name" > raw.out 2> err.out); then
    echo "FAIL $name: exits non-zero in $side ($tree); stderr:" >&2
    tail -n 20 "$dir/err.out" >&2
    return 1
  fi
  normalize "$name" < "$dir/raw.out" > "$tmp/$side/$name.out"
}

failed=0
checked=0
for bin in "$new"/bench/*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  name="$(basename "$bin")"
  case "$name" in
    micro_perf)
      echo "skip $name"
      continue ;;
  esac
  if [[ ! -x "$ref/bench/$name" ]]; then
    echo "FAIL $name: missing from $ref/bench" >&2
    failed=1
    continue
  fi
  run_bench ref "$ref" "$name" && run_bench new "$new" "$name" || {
    failed=1
    continue
  }
  if diff -u "$tmp/ref/$name.out" "$tmp/new/$name.out" \
       > "$tmp/$name.diff"; then
    echo "same $name"
  else
    echo "DIFF $name:" >&2
    head -n 40 "$tmp/$name.diff" >&2
    failed=1
  fi
  checked=$((checked + 1))
done

# Identical output does not excuse a shape check the new tree misses.
shape_ok=0
for out in "$tmp"/new/*.out; do
  [[ -f "$out" ]] || continue
  shape_ok=$((shape_ok + $(grep -c 'SHAPE CHECK \[ok\]' "$out" || true)))
  if grep -q 'SHAPE CHECK \[MISMATCH\]' "$out"; then
    echo "MISMATCH in $(basename "$out" .out):" >&2
    grep 'SHAPE CHECK \[MISMATCH\]' "$out" >&2
    failed=1
  fi
done
echo "shape checks ok: $shape_ok"

if [[ "$failed" -ne 0 ]]; then
  echo "bench identity FAILED" >&2
  exit 1
fi
echo "bench identity passed: $checked benches byte-identical"
