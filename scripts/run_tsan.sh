#!/usr/bin/env bash
# ThreadSanitizer job for the concurrency-heavy surface: configures,
# builds and runs the tsan preset (comm engine, async Works, trainer
# threads). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan -j "$(nproc)"

# Comm unit tests: the progress threads, the mailboxes and the
# collective bodies they run, including bodies unwound by a receive
# that throws on abort or timeout. Selected by label so new comm tests
# join.
ctest --test-dir build-tsan -L comm --output-on-failure -j "$(nproc)"

# The fault/checkpoint robustness suite (crash -> restore -> re-join)
# exercises the comm abort/timeout paths under the supervisor; run it
# by ctest label so additions are picked up without editing the preset
# name filter above.
ctest --test-dir build-tsan -L fault --output-on-failure -j "$(nproc)"

# Observability layer: per-thread trace buffers and the metrics
# registry are exactly the kind of shared state tsan exists for.
ctest --test-dir build-tsan -L obs --output-on-failure -j "$(nproc)"

# Backend parity + rank virtualization: mixed-mode pump-on-block means
# external threads take turns driving the event scheduler -- the parity
# suite under tsan proves the handoff (mutex + cv + wait hooks) is
# race-free, including the 1k/10k-rank scale tests.
ctest --test-dir build-tsan -L scale --output-on-failure -j "$(nproc)"

# Chaos fuzzing + partition tolerance: the lossy-link trainer overlaps
# retried sends with compute on real threads, and the harness drives
# the event scheduler through crashes, cuts and checkpoint restores --
# both are tsan bait.
ctest --test-dir build-tsan -L chaos --output-on-failure -j "$(nproc)"

# DNN training: one thread per rank runs the kernels on its own arena
# while its BucketReducer streams gradients to the comm progress
# threads, and the trainer merges per-rank results under a mutex.
ctest --test-dir build-tsan -L dnn --output-on-failure -j "$(nproc)"

# Fleet scheduler: the determinism test (same trace + policy + seed
# must give bit-identical virtual-time metrics) doubles as a race
# detector for the event loop and supervisor preempt/resume paths.
ctest --test-dir build-tsan -L fleet --output-on-failure -j "$(nproc)"
