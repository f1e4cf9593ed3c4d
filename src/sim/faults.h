// Deterministic fault injection for simulated clusters.
//
// The paper's core claim is adaptivity: Cannikin "manages sudden
// changes of resources" (Section 1). The benign half of that claim --
// scheduler reallocations, manual contention changes -- was already
// exercised; this module supplies the hostile half. A FaultInjector
// holds a seeded, replayable schedule of fault events, driven per epoch
// by sched::TrainingSupervisor::run (which hands each event to
// sched::ElasticCannikinJob::apply_fault), so recovery behaviour
// (drift resets, elastic shrink + warm start, throughput dips) becomes
// measurable rather than assumed. Related simulators (Proteus; LLM
// workload simulators) treat failure/straggler events as first-class
// timeline inputs for the same reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cannikin::sim {

enum class FaultKind {
  /// A co-located tenant spikes a node's contention; the node recovers
  /// after `duration_epochs`. Cannikin should drift-reset and re-plan
  /// twice (onset and recovery) without restarting the job.
  kTransientStraggler,
  /// A node permanently slows down (thermal throttling, degraded VM).
  kPermanentSlowdown,
  /// A node dies: it leaves the job for good. The elastic runtime must
  /// shrink the allocation and warm-start the survivors.
  kNodeCrash,
  /// The cluster interconnect degrades: inter- and intra-node
  /// bandwidths are scaled by `severity`; recovers after
  /// `duration_epochs` when positive.
  kNetworkDegrade,
  /// A previously crashed (or newly provisioned) node becomes available
  /// again at contention `severity` (1.0 = fully healthy). Only an
  /// elastic runtime can honour it: the allocation grows back and the
  /// node warm-starts from the banked per-type models, so re-joining
  /// costs no bootstrap epochs.
  kNodeRecover,
  /// The network bipartitions: the nodes listed in `partition` are cut
  /// off from the rest until the partition heals `duration_epochs`
  /// later (must be > 0 — a partition without a scheduled heal is a
  /// permanent crash of one side and should be modelled as such).
  /// ElasticCannikinJob shrinks away the partitioned side and re-admits
  /// it at heal time; at the comm layer the cut is a sim::LinkFaults
  /// bipartition both backends evaluate at transmission time.
  kNetworkPartition,
  /// Links turn lossy: every transmission attempt is dropped with
  /// probability `severity` (must be in (0, 1]) until recovery
  /// `duration_epochs` later. Senders ride it out with bounded
  /// retry/backoff; the epoch-level model scales network throughput by
  /// the expected retransmission overhead.
  kLinkFlaky,
  /// A stored checkpoint is bit-flipped on disk. Exercises the
  /// CRC-skip path: CheckpointStore::load_latest must skip the corrupt
  /// file and fall back to the previous one (or report none).
  kCheckpointCorrupt,
};

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. `severity` is the absolute contention to set on
/// the target node (straggler/slowdown) or the bandwidth scale factor
/// (network degrade); 1.0 means healthy, so auto-generated recovery
/// events are the same kind with severity 1.0.
struct FaultEvent {
  int epoch = 0;            ///< epoch index at which the event strikes
  FaultKind kind = FaultKind::kTransientStraggler;
  int node = -1;            ///< target node; ignored for network events
  double severity = 0.5;
  int duration_epochs = 0;  ///< > 0 on transient kinds: auto-recovery
  /// kNetworkPartition only: job-local node ids on the minority (cut
  /// off) side. Must be a non-empty strict subset of the allocation.
  std::vector<int> partition;

  /// Human-readable one-liner for traces ("epoch 5: node 2 crash").
  std::string describe() const;
};

/// A replayable per-epoch fault schedule. Transient events expand into
/// an onset plus a severity-1.0 recovery event at epoch + duration, so
/// callers only ever apply point events.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Validates `event`, throwing std::invalid_argument on a malformed
  /// one: negative epoch, node faults without a node id, non-positive
  /// severity where one is needed, durations on non-transient kinds, a
  /// partition without a heal time or member list, or a flaky drop
  /// probability outside (0, 1].
  static void validate(const FaultEvent& event);

  /// Validates and inserts `event` (plus its recovery event when the
  /// kind is transient and duration_epochs > 0).
  void schedule(const FaultEvent& event);

  /// Seeded random scenario: `num_events` faults of mixed kinds drawn
  /// over epochs [1, horizon_epochs) and nodes [0, num_nodes). The same
  /// seed always yields the same schedule.
  static FaultInjector random_scenario(std::uint64_t seed, int num_nodes,
                                       int horizon_epochs, int num_events);

  /// Events striking exactly at `epoch`, in schedule order.
  std::vector<FaultEvent> due(int epoch) const;

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;  // kept sorted by epoch
};

}  // namespace cannikin::sim
