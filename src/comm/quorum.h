// Quorum-mode all-reduce: degrade instead of die.
//
// The plain collectives treat an unreachable peer as fatal -- the group
// times out, aborts, and the supervisor cold-restarts the epoch. Under
// a network partition that is the wrong call: the majority side still
// holds most of the gradient signal. quorum_weighted_all_reduce lets
// the reachable majority finish the step without the cut-off ranks:
// it excludes them, rescales the weighted gradient sum by the
// *surviving* weight share (the surviving fraction of the batch, i.e.
// the GNS share the survivors carry -- Eq. 9's b_i / B restricted to
// the survivors and renormalized), and reports the exclusion so
// TrainingSupervisor can convert it into an elastic shrink instead of
// a cold restart. The minority side fails its quorum check and
// surfaces QuorumLostError -- it must not keep training on a stale
// slice of the batch.
//
// Protocol (coordinator-led, so every survivor gets a bitwise-identical
// result): each rank computes the reachable set S from the backend's
// failure detector; the smallest rank in S coordinates. Contributors
// send [weight, weight * g...] to the coordinator; the coordinator
// collects each expected contribution under the group timeout,
// excluding any peer that times out (a crashed rank the detector
// cannot see), checks the quorum again, divides the accumulated sum by
// the surviving weight, and sends every survivor
// [weight_sum, k, excluded ranks..., result...]. One rank dividing
// once is what keeps the result bitwise identical across survivors --
// per-rank division would be identical too, but only while every rank
// agrees exactly on the exclusion set, which a flaky link can break.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/process_group.h"

namespace cannikin::comm {

/// This rank is on the losing side of a quorum check: fewer than
/// min_quorum ranks (its own side of the partition) are reachable.
/// Derived from CommError so existing unwind paths treat it as a comm
/// failure; the supervisor additionally reads it as "shrink, don't
/// restart".
class QuorumLostError : public CommError {
 public:
  using CommError::CommError;
};

/// What a quorum all-reduce did besides reducing.
struct QuorumOutcome {
  /// Ranks excluded from the reduction (unreachable or timed out),
  /// ascending. Empty on a clean full-group step.
  std::vector<int> excluded;
  /// Sum of the surviving ranks' weights (<= the full-group weight sum;
  /// the surviving GNS share when weights are batch fractions).
  double surviving_weight = 0.0;
  /// 1 / surviving_weight: the factor the reduced gradient was scaled
  /// by to stay an unbiased weighted average.
  double rescale = 1.0;

  bool degraded() const { return !excluded.empty(); }
};

/// In-place weighted sum-all-reduce of `data` on `comm`'s rank that
/// excludes unreachable ranks instead of failing, per the group's
/// QuorumOptions (which must be enabled). `weight` scales this rank's
/// contribution; the result on every survivor is
///   sum_{r in survivors} w_r g_r / sum_{r in survivors} w_r,
/// bitwise identical across survivors. Uses wire tags tag*2 (gather)
/// and tag*2 + 1 (result), mirroring the collectives' phase-mangling.
///
/// Blocking (subject to the group timeout per awaited peer); drive it
/// from worker threads. Throws
/// QuorumLostError when fewer than min_quorum ranks are reachable,
/// CommTimeoutError when this rank's contribution was lost on the wire
/// (the coordinator excluded *us*), CommAbortedError after abort().
QuorumOutcome quorum_weighted_all_reduce(Communicator comm,
                                         std::span<double> data, double weight,
                                         std::uint64_t tag);

}  // namespace cannikin::comm
