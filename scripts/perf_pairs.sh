#!/usr/bin/env bash
# Alternating-pairs comparison of the working tree against a git ref on
# one perfbench workload:
#
#   scripts/perf_pairs.sh <ref> <workload> [pairs] [seed] [seconds]
#
# Extracts <ref> with `git archive` into a scratch directory, then runs
# `perfbench/run.py --workload <workload> --seed <seed> --seconds
# <seconds>` in both trees, <pairs> times each (defaults: 10 pairs, seed
# 7, 10 s), alternating which side runs first so slow and fast spells of
# a shared host fall on both. Each tree builds into its own
# CARGO_TARGET_DIR; one discarded 1 s run per side builds and warms it.
# Prints, for every end-to-end metric of BENCHMARK.json, each side's
# median and quartiles, the ratio of the medians (working tree / ref)
# and how many pairs the working tree won (ties count for neither), then
# each run's raw value.
#
# Exits non-zero if any run fails, reports an incorrect output or
# counts a failed operation. Scratch space is a fresh temporary
# directory, removed on exit; set PERF_PAIRS_DIR to keep the builds
# (and the ref's extraction) between invocations.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  echo "usage: $0 <ref> <workload> [pairs] [seed] [seconds]" >&2
  exit 2
fi
ref="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-7}"
seconds="${5:-10}"

root="$(cd "$(dirname "$0")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
work="${PERF_PAIRS_DIR:-}"
if [[ -z "$work" ]]; then
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"
ref_tree="$work/ref-$sha"
if [[ ! -d "$ref_tree" ]]; then
  mkdir -p "$ref_tree.tmp"
  git -C "$root" archive "$sha" | tar -x -C "$ref_tree.tmp"
  mv "$ref_tree.tmp" "$ref_tree"
fi
results="$work/results-$workload-$seed-$seconds"
rm -rf "$results"
mkdir -p "$results"

# run_side <side> <tree> <seconds> <out>: one perfbench run; appends its
# result line to <out>, or "FAILED" when run.py exits non-zero.
run_side() {
  local side="$1" tree="$2" secs="$3" out="$4" line
  if line="$(cd "$tree" && CARGO_TARGET_DIR="$work/build-$side" \
      python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$secs" 2>>"$results/$side.log" | tail -n 1)"; then
    echo "$line" >>"$out"
  else
    echo "FAILED" >>"$out"
  fi
}

for side in ref new; do
  tree="$ref_tree"
  [[ "$side" == new ]] && tree="$root"
  echo "building and warming $side ($tree)" >&2
  run_side "$side" "$tree" 1 "$results/$side.warmup"
done
for ((i = 0; i < pairs; i++)); do
  order=(ref new)
  ((i % 2 == 1)) && order=(new ref)
  for side in "${order[@]}"; do
    tree="$ref_tree"
    [[ "$side" == new ]] && tree="$root"
    run_side "$side" "$tree" "$seconds" "$results/$side.jsonl"
  done
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$results" "$sha" "$workload" "$seed" \
    "$seconds" <<'PY'
import json
import statistics
import sys

spec_path, results, sha, workload, seed, seconds = sys.argv[1:]
spec = json.load(open(spec_path))


def load(side):
    runs = []
    for line in open(f"{results}/{side}.jsonl"):
        line = line.strip()
        runs.append(None if line == "FAILED" else json.loads(line))
    return runs


ref, new = load("ref"), load("new")
bad = []
for side, runs in (("ref", ref), ("new", new)):
    for i, run in enumerate(runs):
        if run is None:
            bad.append(f"{side} run {i + 1}: run.py failed")
        elif not run.get("correct") or run.get("failed", 0) != 0:
            bad.append(f"{side} run {i + 1}: correct={run.get('correct')} "
                       f"failed={run.get('failed')}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


print(f"# {workload} seed {seed}, {seconds} s runs, {len(ref)} pairs: "
      f"ref {sha[:12]} vs working tree")
print(f"{'metric':<14} {'ref median [q1, q3]':>30} "
      f"{'new median [q1, q3]':>30} {'new/ref':>8} {'new wins':>9}")
pairs = [(r, n) for r, n in zip(ref, new) if r is not None and n is not None]
for metric in spec["end_to_end"]:
    name, better = metric["name"], metric["better"]
    rv = [r["metrics"][name]["value"] for r, _ in pairs]
    nv = [n["metrics"][name]["value"] for _, n in pairs]
    if not rv:
        continue
    rq, nq = quartiles(rv), quartiles(nv)
    wins = sum((n > r) if better == "higher" else (n < r)
               for r, n in zip(rv, nv))
    ratio = nq[1] / rq[1] if rq[1] else float("nan")
    print(f"{name:<14} {rq[1]:>12.4g} [{rq[0]:.4g}, {rq[2]:.4g}]"
          f"{'':>3} {nq[1]:>12.4g} [{nq[0]:.4g}, {nq[2]:.4g}]"
          f"{'':>3} {ratio:>8.3f} {wins:>5}/{len(pairs)}")
print("# runs (ref, new) per pair:")
for metric in spec["end_to_end"]:
    name = metric["name"]
    values = [f"{r['metrics'][name]['value']:.4g}/{n['metrics'][name]['value']:.4g}"
              for r, n in pairs]
    print(f"{name:<14} " + " ".join(values))
for line in bad:
    print(f"ERROR: {line}")
sys.exit(1 if bad else 0)
PY
