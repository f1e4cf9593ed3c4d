#include "sim/timeline.h"

#include <algorithm>
#include <stdexcept>

namespace cannikin::sim {

double bucket_ready_time(const NodeBatchTiming& timing, int j,
                         int num_buckets) {
  if (j < 0 || j >= num_buckets) {
    throw std::out_of_range("bucket_ready_time: bad bucket index");
  }
  return BucketReadiness(timing.a, timing.p, timing.gamma).at(j, num_buckets);
}

BatchTimeline simulate_batch(const std::vector<NodeBatchTiming>& nodes,
                             const CommSchedule& comm) {
  if (nodes.empty()) {
    throw std::invalid_argument("simulate_batch: no nodes");
  }
  BatchTimeline out;
  out.bucket_start.resize(static_cast<std::size_t>(comm.num_buckets));
  out.bucket_finish.resize(static_cast<std::size_t>(comm.num_buckets));

  double prev_finish = 0.0;
  bool saturated = true;
  for (int j = 0; j < comm.num_buckets; ++j) {
    double ready = 0.0;
    for (const auto& node : nodes) {
      ready = std::max(ready, BucketReadiness(node.a, node.p, node.gamma)
                                  .at(j, comm.num_buckets));
    }
    const double start = std::max(ready, prev_finish);
    if (j > 0 && ready > prev_finish) saturated = false;
    const double finish = start + comm.bucket_time(j);
    out.bucket_start[static_cast<std::size_t>(j)] = start;
    out.bucket_finish[static_cast<std::size_t>(j)] = finish;
    prev_finish = finish;
  }
  out.batch_time = prev_finish;
  out.communication_saturated = saturated;
  return out;
}

BatchTimeKernel::BatchTimeKernel(const CommSchedule& comm, double gamma)
    : gamma_(gamma),
      bucket_time_(static_cast<std::size_t>(comm.num_buckets)),
      ready_(static_cast<std::size_t>(comm.num_buckets), 0.0) {
  for (int j = 0; j < comm.num_buckets; ++j) {
    bucket_time_[static_cast<std::size_t>(j)] = comm.bucket_time(j);
  }
}

double BatchTimeKernel::finish_batch() {
  // Communication is serialized: bucket j starts once every node has it
  // ready and bucket j-1 has finished.
  double prev_finish = 0.0;
  for (std::size_t j = 0; j < ready_.size(); ++j) {
    prev_finish = std::max(ready_[j], prev_finish) + bucket_time_[j];
    ready_[j] = 0.0;
  }
  return prev_finish;
}

double closed_form_batch_time(const std::vector<NodeBatchTiming>& nodes,
                              const CommSchedule& comm) {
  if (nodes.empty()) {
    throw std::invalid_argument("closed_form_batch_time: no nodes");
  }
  double compute_bound = 0.0;
  double comm_bound = 0.0;
  for (const auto& node : nodes) {
    compute_bound = std::max(compute_bound, node.compute_time() + comm.t_last);
    comm_bound = std::max(comm_bound, node.sync_start() + comm.total());
  }
  return std::max(compute_bound, comm_bound);
}

}  // namespace cannikin::sim
