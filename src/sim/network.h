// Network model for gradient synchronization.
//
// The paper (Section 3.2.2) models ring all-reduce time as a learnable
// constant for a fixed job and cluster: it depends on the gradient size
// and network status but not on batch sizes. We derive that constant
// from the classic ring all-reduce cost model (Patarasuk & Yuan): for n
// nodes exchanging S bytes over links of bandwidth W with per-hop
// latency L, each of the 2(n-1) steps moves S/n bytes, giving
//   T = 2 (n-1) (S / n) / W + 2 (n-1) L.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cannikin::sim {

struct NetworkModel {
  double bandwidth_bytes_per_s = 1.25e9;        ///< 10 Gbps default
  double latency_s = 50e-6;                     ///< per ring step
  double intra_bandwidth_bytes_per_s = 25e9;    ///< PCIe/NVLink inside a server

  /// Ring all-reduce time for `bytes` across `n` nodes.
  double all_reduce_time(double bytes, int n) const;

  /// BlueConnect-style hierarchical all-reduce (Cho et al., MLSys'19):
  /// `groups[i]` is node i's server id. Phase 1 reduce-scatters within
  /// each server over the fast intra links; phase 2 runs ring
  /// all-reduces *across* servers, each GPU carrying 1/g of the buffer
  /// in parallel; phase 3 all-gathers within the server. With the
  /// largest server size g and G distinct servers:
  ///   T = 2 (g-1)/g * S / W_intra + 2 (G-1)/G * (S/g) / W_inter + lat.
  /// Falls back to the flat ring when every group has one node.
  double hierarchical_all_reduce_time(double bytes,
                                      const std::vector<int>& groups) const;
};

/// Lossy-link behaviour layered under the FabricModel's delay model:
/// a scheduled bipartition (no frame crosses the cut until the heal
/// time) and per-attempt random message drops. Both comm backends
/// consult the same LinkFaults at *transmission* time, so the thread
/// backend (wall clock) and the event backend (virtual clock) see one
/// network. Drop decisions are a pure hash of (seed, src, dst,
/// attempt id) -- no hidden RNG state -- which is what keeps a replay
/// of the same seed bitwise identical.
struct LinkFaults {
  bool enabled = false;
  /// `side[r]` is rank r's partition side; frames between different
  /// sides are dropped while the partition is active. Empty = no
  /// partition. Ranks beyond the vector are side 0.
  std::vector<int> partition_side;
  double partition_start_seconds = 0.0;
  /// Partition heals at this time; < 0 means it never heals.
  double partition_heal_seconds = -1.0;
  /// Probability that any single transmission attempt is dropped.
  double drop_probability = 0.0;
  std::uint64_t seed = 0;

  /// Anything to evaluate at all? (Fast-path guard for the backends.)
  bool any() const {
    return enabled && (!partition_side.empty() || drop_probability > 0.0);
  }
  /// True when a frame from `src` to `dst` crosses an active cut at
  /// `at_seconds`.
  bool partitioned(int src, int dst, double at_seconds) const;
  /// Deterministic per-attempt drop decision (`attempt_id` must be
  /// unique per transmission attempt on the (src, dst) link).
  bool dropped(int src, int dst, std::uint64_t attempt_id) const;
};

/// Bounded resend policy for point-to-point sends: on a dropped frame
/// the sender retransmits after an exponentially growing, seeded-jitter
/// backoff, up to `max_attempts` total transmissions. A message whose
/// budget is exhausted vanishes -- the receiver then surfaces the
/// existing CommTimeoutError, exactly as if the peer were dead.
struct RetryPolicy {
  int max_attempts = 1;  ///< 1 = no retry (legacy behaviour)
  double backoff_initial_seconds = 1e-4;
  double backoff_multiplier = 2.0;
  /// Each backoff is scaled by a deterministic factor in
  /// [1 - jitter_fraction, 1 + jitter_fraction].
  double jitter_fraction = 0.2;
  std::uint64_t seed = 0;
};

/// Outcome of planning one message's transmission attempts up front
/// (the fabric is simulated, so the full retransmission schedule is
/// knowable at send time; an ack-clocked implementation would discover
/// the same delivery time incrementally).
struct DeliveryPlan {
  bool delivered = true;
  double delivery_seconds = 0.0;  ///< same clock as `now_seconds`
  int attempts = 1;               ///< transmissions tried
  int resends = 0;                ///< attempts - 1 when delivered
};

struct FabricModel;

/// Plans the delivery of a `bytes`-sized message sent at `now_seconds`
/// from `src` to `dst` under `fabric` (delays + LinkFaults) and
/// `retry`. `message_seq` must be a per-(src, dst) monotone counter so
/// each message's drop/jitter draws are independent yet replayable.
DeliveryPlan plan_delivery(const FabricModel& fabric,
                           const RetryPolicy& retry, int src, int dst,
                           std::size_t bytes, double now_seconds,
                           std::uint64_t message_seq);

/// Per-pair message delay model shared by both comm backends.
///
/// FabricModel::uniform_latency applies one fixed delay to every
/// delivery; the general model is the same cost model the planner's
/// NetworkModel uses — per-hop latency plus a byte-dependent
/// serialization term, with the faster intra-server bandwidth when
/// `groups` places both endpoints on the same server.
/// Routing both backends through one FabricModel keeps the simulated
/// network and the executed network from drifting apart.
struct FabricModel {
  NetworkModel net;
  /// Optional: `groups[r]` is rank r's server id; same-server pairs use
  /// `net.intra_bandwidth_bytes_per_s`. Empty = every pair inter-server.
  std::vector<int> groups;
  /// Lossy-link faults (partition / flaky drops) evaluated by both
  /// backends at transmission time; see plan_delivery().
  LinkFaults faults;
  bool enabled = false;

  /// Single-knob model: every delivery between distinct ranks is
  /// delayed by exactly `seconds`, independent of message size.
  static FabricModel uniform_latency(double seconds);

  /// Full model: latency + bytes/bandwidth per delivery.
  static FabricModel from_network(NetworkModel net,
                                  std::vector<int> groups = {});

  /// Delivery delay for `bytes` from `src` to `dst`. Zero when disabled
  /// or src == dst; a non-positive bandwidth means "infinite" (latency
  /// only), which is how uniform_latency() reproduces the legacy knob.
  double delay_seconds(int src, int dst, std::size_t bytes) const;
};

/// Per-bucket communication schedule for a bucketized all-reduce:
/// buckets 0..num_buckets-2 together take `t_other` (T_o), the last
/// bucket takes `t_last` (T_u); total is T_comm.
struct CommSchedule {
  int num_buckets = 1;
  double t_other = 0.0;  ///< T_o: all buckets except the last
  double t_last = 0.0;   ///< T_u: the last bucket

  double total() const { return t_other + t_last; }
  /// Time of bucket j in synchronization order (0-based).
  double bucket_time(int j) const;
};

/// Builds the communication schedule for a gradient of `gradient_bytes`
/// split into buckets of at most `bucket_bytes`, all-reduced over `n`
/// nodes through `net`.
CommSchedule make_comm_schedule(const NetworkModel& net, double gradient_bytes,
                                double bucket_bytes, int n);

/// Hierarchical variant: total time from
/// NetworkModel::hierarchical_all_reduce_time, bucketized identically.
CommSchedule make_comm_schedule(const NetworkModel& net, double gradient_bytes,
                                double bucket_bytes,
                                const std::vector<int>& groups);

}  // namespace cannikin::sim
