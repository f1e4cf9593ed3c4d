// Deterministic chaos fuzzing over the event backend.
//
// PR 5's EventBackend executes synchronization rounds for hundreds of
// virtual ranks in virtual time; this harness uses that to *fuzz* the
// robustness layer instead of hand-writing fault tests: a seeded
// generator mixes every sim::FaultKind into a random schedule, the
// harness replays the schedule against real collectives (tree
// all-reduce over per-rank tensors) in pure virtual mode, and a fixed
// set of invariants is checked on every run:
//
//   1. liveness  -- no round outlives the wall budget (the event loop
//      never deadlocks past the idle timeout);
//   2. typed errors -- every launched collective either completes or
//      surfaces a CommError-family exception; anything else (a pending
//      Work after run_until_idle, a foreign exception) is a violation;
//   3. consistency -- a round commits only when every surviving rank
//      succeeded, and the committed tensors are bitwise identical
//      across ranks;
//   4. restore-or-clean-give-up -- a process crash either restores from
//      the CheckpointStore (corrupt files skipped via CRC) or the run
//      gives up cleanly; it never limps on with garbage state.
//
// Replay determinism is the meta-invariant: the fault model draws from
// pure hashes (sim::LinkFaults) and a seeded Rng, so running the same
// (config, schedule) twice must produce bitwise-identical tensors,
// event counts and virtual end times. check_replay_determinism()
// asserts exactly that, and shrink_schedule() delta-debugs a violating
// schedule down to a minimal reproducer before reporting it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/scope.h"
#include "sim/faults.h"
#include "sim/network.h"

namespace cannikin::chaos {

/// One scheduled chaos fault (richer than sim::FaultEvent: carries the
/// virtual-time and process-death knobs the comm-level replay needs).
struct ChaosFault {
  sim::FaultKind kind = sim::FaultKind::kTransientStraggler;
  int round = 0;    ///< synchronization round the fault strikes
  int node = -1;    ///< target member (global id); -1 for network-wide
  double severity = 0.5;
  int heal_round = -1;  ///< partitions/flaky/degrade: recovery round
  /// kNetworkPartition: minority-side member ids.
  std::vector<int> partition;
  /// kNetworkPartition: heals mid-round at this virtual offset (> 0),
  /// so bounded retries ride it out; <= 0 means a "hard" partition
  /// whose side is cut from the membership until heal_round.
  double soft_heal_seconds = 0.0;
  /// kNodeCrash: the whole training process dies with the node -- the
  /// harness must restore from the checkpoint store.
  bool process_crash = false;

  std::string describe() const;
};

struct ChaosSchedule {
  std::uint64_t seed = 0;
  std::vector<ChaosFault> faults;
};

struct ChaosConfig {
  int ranks = 256;
  int rounds = 8;
  int num_faults = 5;
  int tensor_elements = 8;
  std::uint64_t seed = 1;
  /// Retry policy for every round's group (seeded per round).
  sim::RetryPolicy retry{/*max_attempts=*/6, /*backoff_initial=*/1e-4,
                         /*multiplier=*/2.0, /*jitter=*/0.2, /*seed=*/0};
  double base_latency_seconds = 1e-5;
  /// Liveness budget per round, wall seconds.
  double wall_budget_seconds = 30.0;
  /// Cleaned at run start, so replays are deterministic. Empty: a fresh
  /// mkdtemp directory under the system temp dir, removed when the run
  /// ends.
  std::string checkpoint_dir;
  int checkpoint_every_rounds = 2;
  obs::Scope obs;
  /// Test hook for the shrinker: when >= 0, any schedule containing a
  /// fault of this sim::FaultKind value reports a synthetic violation.
  int forced_violation_kind = -1;
};

struct ChaosViolation {
  std::string invariant;  ///< "liveness" | "typed-error" | "consistency" | ...
  std::string detail;
  int round = -1;
};

struct ChaosResult {
  bool ok = true;  ///< no invariant violations (give-up is still ok)
  std::vector<ChaosViolation> violations;
  bool gave_up = false;  ///< clean give-up (no usable checkpoint)
  int rounds_completed = 0;   ///< rounds that committed
  int rounds_discarded = 0;   ///< rounds rolled back after failures
  std::uint64_t events = 0;   ///< scheduler events across all rounds
  double virtual_seconds = 0.0;
  std::uint64_t checksum = 0;  ///< hash of committed tensors, per round

  // -- robustness accounting -----------------------------------------
  std::uint64_t exclusions = 0;      ///< members cut by hard partitions
  std::uint64_t rejoins = 0;         ///< members re-admitted after heal
  std::uint64_t restores = 0;        ///< checkpoint restores performed
  std::uint64_t corrupt_skipped = 0; ///< corrupt checkpoints CRC-skipped
  std::uint64_t typed_errors = 0;    ///< CommError-family failures seen
  std::uint64_t resends = 0;         ///< retry retransmissions
  std::uint64_t messages_dropped = 0;
  /// Virtual seconds from each failed round to the next committed one.
  std::vector<double> recovery_seconds;
};

/// Seeded random schedule mixing every fault kind over the config's
/// rounds and members. Same (config, seed) -> same schedule.
ChaosSchedule make_chaos_schedule(const ChaosConfig& config);

/// Replays `schedule` against the event backend per the config;
/// checks the invariants above on every round.
ChaosResult run_chaos_schedule(const ChaosConfig& config,
                               const ChaosSchedule& schedule);

/// make_chaos_schedule + run_chaos_schedule with config.seed.
ChaosResult run_chaos_seed(const ChaosConfig& config);

/// Runs `schedule` twice; reports a "determinism" violation when the
/// two runs differ in checksum, event count, or virtual end time (the
/// fault-free-replay invariant). Returns the first run's result with
/// any determinism violation appended.
ChaosResult check_replay_determinism(const ChaosConfig& config,
                                     const ChaosSchedule& schedule);

/// Greedy delta-debugging: repeatedly drops faults whose removal keeps
/// the schedule violating, until no single removal does. Returns the
/// minimal reproducing schedule (== input when it does not violate).
ChaosSchedule shrink_schedule(const ChaosConfig& config,
                              const ChaosSchedule& schedule);

/// Human-readable one-line-per-fault dump for violation reports.
std::string describe_schedule(const ChaosSchedule& schedule);

}  // namespace cannikin::chaos
