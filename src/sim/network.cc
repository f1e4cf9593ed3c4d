#include "sim/network.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/hash.h"

namespace cannikin::sim {

double NetworkModel::all_reduce_time(double bytes, int n) const {
  if (n <= 0) throw std::invalid_argument("all_reduce_time: n must be > 0");
  if (n == 1) return 0.0;
  const double steps = 2.0 * (n - 1);
  return steps * (bytes / n) / bandwidth_bytes_per_s + steps * latency_s;
}

double NetworkModel::hierarchical_all_reduce_time(
    double bytes, const std::vector<int>& groups) const {
  const int n = static_cast<int>(groups.size());
  if (n <= 0) {
    throw std::invalid_argument("hierarchical_all_reduce_time: no nodes");
  }
  if (n == 1) return 0.0;
  // Largest server size and distinct-server count.
  std::map<int, int> sizes;
  for (int g : groups) ++sizes[g];
  int largest = 1;
  for (const auto& [group, size] : sizes) {
    (void)group;
    largest = std::max(largest, size);
  }
  const int servers = static_cast<int>(sizes.size());
  if (largest == 1) return all_reduce_time(bytes, n);

  double total = 0.0;
  if (largest > 1) {
    total += 2.0 * (largest - 1) / largest * bytes /
             intra_bandwidth_bytes_per_s;
    total += 2.0 * (largest - 1) * latency_s;
  }
  if (servers > 1) {
    total += 2.0 * (servers - 1) / servers * (bytes / largest) /
             bandwidth_bytes_per_s;
    total += 2.0 * (servers - 1) * latency_s;
  }
  return total;
}

bool LinkFaults::partitioned(int src, int dst, double at_seconds) const {
  if (!enabled || partition_side.empty() || src == dst) return false;
  auto side = [this](int rank) {
    if (rank < 0 || rank >= static_cast<int>(partition_side.size())) return 0;
    return partition_side[rank];
  };
  if (side(src) == side(dst)) return false;
  if (at_seconds < partition_start_seconds) return false;
  return partition_heal_seconds < 0.0 || at_seconds < partition_heal_seconds;
}

// The per-attempt drop and jitter draws are a pure hash of (seed, src,
// dst, attempt), so replaying a schedule never depends on hidden RNG
// state or evaluation order.
bool LinkFaults::dropped(int src, int dst, std::uint64_t attempt_id) const {
  if (!enabled || drop_probability <= 0.0 || src == dst) return false;
  std::uint64_t h = mix64(seed);
  h = hash_combine(h, static_cast<std::uint64_t>(src));
  h = hash_combine(h, static_cast<std::uint64_t>(dst));
  h = hash_combine(h, attempt_id);
  return to_unit(h) < drop_probability;
}

DeliveryPlan plan_delivery(const FabricModel& fabric,
                           const RetryPolicy& retry, int src, int dst,
                           std::size_t bytes, double now_seconds,
                           std::uint64_t message_seq) {
  DeliveryPlan plan;
  const double delay = fabric.delay_seconds(src, dst, bytes);
  if (!fabric.faults.any() || src == dst) {
    plan.delivery_seconds = now_seconds + delay;
    return plan;
  }
  const int budget = std::max(1, retry.max_attempts);
  double at = now_seconds;
  double backoff = retry.backoff_initial_seconds;
  for (int attempt = 0; attempt < budget; ++attempt) {
    // One attempt-unique id drives both the drop draw and the jitter
    // draw for the following backoff.
    std::uint64_t h = mix64(retry.seed);
    h = hash_combine(h, message_seq);
    h = hash_combine(h, static_cast<std::uint64_t>(attempt));
    const bool lost =
        fabric.faults.partitioned(src, dst, at) ||
        fabric.faults.dropped(src, dst, h);
    if (!lost) {
      plan.delivered = true;
      plan.attempts = attempt + 1;
      plan.resends = attempt;
      plan.delivery_seconds = at + delay;
      return plan;
    }
    if (attempt + 1 >= budget) break;
    // Seeded jitter in [1 - f, 1 + f] keeps retransmission storms from
    // synchronizing while staying replayable.
    const double jitter =
        1.0 + retry.jitter_fraction * (2.0 * to_unit(mix64(h)) - 1.0);
    at += std::max(0.0, backoff * jitter);
    backoff *= retry.backoff_multiplier;
  }
  plan.delivered = false;
  plan.attempts = budget;
  plan.resends = budget - 1;
  plan.delivery_seconds = at;
  return plan;
}

FabricModel FabricModel::uniform_latency(double seconds) {
  FabricModel fabric;
  fabric.net.latency_s = seconds;
  fabric.net.bandwidth_bytes_per_s = 0.0;        // infinite: latency only
  fabric.net.intra_bandwidth_bytes_per_s = 0.0;  // infinite: latency only
  fabric.enabled = true;
  return fabric;
}

FabricModel FabricModel::from_network(NetworkModel net,
                                      std::vector<int> groups) {
  FabricModel fabric;
  fabric.net = net;
  fabric.groups = std::move(groups);
  fabric.enabled = true;
  return fabric;
}

double FabricModel::delay_seconds(int src, int dst, std::size_t bytes) const {
  if (!enabled || src == dst) return 0.0;
  double bandwidth = net.bandwidth_bytes_per_s;
  if (!groups.empty() && src >= 0 && dst >= 0 &&
      src < static_cast<int>(groups.size()) &&
      dst < static_cast<int>(groups.size()) && groups[src] == groups[dst]) {
    bandwidth = net.intra_bandwidth_bytes_per_s;
  }
  double delay = net.latency_s;
  if (bandwidth > 0.0) delay += static_cast<double>(bytes) / bandwidth;
  return delay;
}

double CommSchedule::bucket_time(int j) const {
  if (j < 0 || j >= num_buckets) {
    throw std::out_of_range("CommSchedule::bucket_time: bad index");
  }
  if (j == num_buckets - 1) return t_last;
  return t_other / (num_buckets - 1);
}

CommSchedule make_comm_schedule(const NetworkModel& net, double gradient_bytes,
                                double bucket_bytes,
                                const std::vector<int>& groups) {
  CommSchedule schedule = make_comm_schedule(net, gradient_bytes, bucket_bytes,
                                             static_cast<int>(groups.size()));
  const double total =
      net.hierarchical_all_reduce_time(gradient_bytes, groups);
  schedule.t_last = total / schedule.num_buckets;
  schedule.t_other = total - schedule.t_last;
  return schedule;
}

CommSchedule make_comm_schedule(const NetworkModel& net, double gradient_bytes,
                                double bucket_bytes, int n) {
  if (gradient_bytes <= 0.0 || bucket_bytes <= 0.0) {
    throw std::invalid_argument("make_comm_schedule: sizes must be positive");
  }
  CommSchedule schedule;
  schedule.num_buckets = static_cast<int>(
      std::max(1.0, std::ceil(gradient_bytes / bucket_bytes)));
  const double total = net.all_reduce_time(gradient_bytes, n);
  // Buckets are near-equal sized, so the last bucket carries 1/num_buckets
  // of the total synchronization time.
  schedule.t_last = total / schedule.num_buckets;
  schedule.t_other = total - schedule.t_last;
  return schedule;
}

}  // namespace cannikin::sim
