#include "sim/cluster.h"

#include <algorithm>
#include <functional>
#include <cmath>
#include <stdexcept>

#include "common/hash.h"
#include "common/rng.h"

namespace cannikin::sim {

namespace {

// What a draw perturbs. With the node index it forms the last counter
// of a draw's key, so no two draws of one epoch share a key.
enum Draw : std::uint64_t {
  kRun,        // run-to-run jitter on a node's compute, per micro-step
  kMeasuredA,  // measurement error on the observed a_i
  kMeasuredP,  // measurement error on the observed P_i
  kGamma,      // communication readings: gamma, T_o, T_u
  kTOther,
  kTLast,
  kDrawKinds,
};

std::uint64_t draw_key(std::uint64_t micro_key, std::size_t node, Draw kind) {
  return hash_combine(micro_key, node * kDrawKinds + kind);
}

}  // namespace

NodeTruth derive_node_truth(const NodeSpec& node, const JobProfile& job) {
  const double gpu = gpu_spec(node.gpu).relative_speed * node.contention;
  // Per-sample work runs on the GPU; the fixed forward-path cost (data
  // loading setup, optimizer-step driving) is host-bound. Sharing
  // contention (cluster C) throttles both sides of the node.
  const double host = node.host_speed * node.contention;
  if (gpu <= 0.0 || host <= 0.0) {
    throw std::invalid_argument("derive_node_truth: non-positive speed");
  }
  NodeTruth truth;
  // q mixes GPU work (forward kernels) with host work (per-sample data
  // loading / preprocessing); the mix differs per node because hosts
  // and GPUs are not proportional.
  truth.q = job.per_sample_forward / gpu + job.per_sample_load / host;
  truth.s = job.fixed_forward / host;
  truth.k = job.per_sample_backward / gpu;
  truth.m = job.fixed_backward / gpu;
  const auto& spec = gpu_spec(node.gpu);
  if (job.mem_bytes_per_sample > 0.0) {
    // Reserve 20% of device memory for weights/optimizer state.
    const double usable = spec.memory_gb * 0.8 * 1e9;
    truth.max_local_batch =
        std::max(1, static_cast<int>(usable / job.mem_bytes_per_sample));
  } else {
    truth.max_local_batch = 1 << 20;
  }
  return truth;
}


ClusterJob::ClusterJob(ClusterSpec cluster, JobProfile job, NoiseConfig noise,
                       std::uint64_t seed, std::uint64_t first_epoch)
    : cluster_(std::move(cluster)),
      job_(std::move(job)),
      noise_(noise),
      comm_(cluster_.comm_groups.empty()
                ? make_comm_schedule(cluster_.network, job_.gradient_bytes,
                                     job_.bucket_bytes, cluster_.size())
                : make_comm_schedule(cluster_.network, job_.gradient_bytes,
                                     job_.bucket_bytes,
                                     cluster_.comm_groups)),
      seed_(seed),
      epoch_(first_epoch) {
  if (cluster_.nodes.empty()) {
    throw std::invalid_argument("ClusterJob: empty cluster");
  }
  if (!cluster_.comm_groups.empty() &&
      cluster_.comm_groups.size() != cluster_.nodes.size()) {
    throw std::invalid_argument("ClusterJob: comm_groups size mismatch");
  }
  if (job_.gamma <= 0.0 || job_.gamma >= 1.0) {
    throw std::invalid_argument("ClusterJob: gamma must be in (0, 1)");
  }
  truths_.reserve(cluster_.nodes.size());
  node_meas_sigma_.reserve(cluster_.nodes.size());
  for (int i = 0; i < cluster_.size(); ++i) {
    const double s = speed(i);
    if (s <= 0.0) throw std::invalid_argument("ClusterJob: speed <= 0");
    const NodeSpec& node = cluster_.nodes[static_cast<std::size_t>(i)];
    const NodeTruth truth = derive_node_truth(node, job_);
    truths_.push_back(truth);
    // Per-node measurement quality: deterministic in the seed AND the
    // node identity (hash of the host name), so a ClusterJob built over
    // a subset of the same nodes -- as the multi-job scheduler does
    // after a reallocation -- sees identical per-node profilers.
    Rng node_rng(seed ^ std::hash<std::string>{}(node.host));
    node_meas_sigma_.push_back(noise_.meas_sigma *
                               (0.5 + 1.5 * node_rng.uniform()));
    // Communication-measurement quality varies persistently per node
    // and degrades with the bucket count (Section 5.3).
    const double bucket_factor = 0.5 + comm_.num_buckets / 20.0;
    node_comm_sigma_.push_back(
        noise_.meas_sigma * bucket_factor *
        node_rng.uniform(0.5, std::max(0.5, noise_.comm_sigma_spread)));
  }
}

const NodeTruth& ClusterJob::truth(int node) const {
  return truths_.at(static_cast<std::size_t>(node));
}

double ClusterJob::speed(int node) const {
  const NodeSpec& spec = cluster_.nodes.at(static_cast<std::size_t>(node));
  return gpu_spec(spec.gpu).relative_speed * spec.contention;
}

std::vector<NodeBatchTiming> ClusterJob::timings(
    const std::vector<double>& local_batches) const {
  if (static_cast<int>(local_batches.size()) != size()) {
    throw std::invalid_argument("ClusterJob: local batch count != nodes");
  }
  std::vector<NodeBatchTiming> out(local_batches.size());
  for (std::size_t i = 0; i < local_batches.size(); ++i) {
    const NodeTruth& t = truths_[i];
    const double b = local_batches[i];
    if (b < 0.0) throw std::invalid_argument("ClusterJob: negative batch");
    out[i].a = t.a(b);
    out[i].p = t.p(b);
    out[i].gamma = job_.gamma;
  }
  return out;
}

double ClusterJob::true_batch_time(
    const std::vector<double>& local_batches) const {
  BatchTimeKernel kernel(comm_, job_.gamma);
  for (const auto& node : timings(local_batches)) kernel.add(node.a, node.p);
  return kernel.finish_batch();
}

BatchTimeline ClusterJob::true_timeline(
    const std::vector<double>& local_batches) const {
  return simulate_batch(timings(local_batches), comm_);
}

EpochObservation ClusterJob::run_epoch(const std::vector<int>& local_batches,
                                       int num_batches,
                                       int accumulation_steps) {
  if (num_batches <= 0 || accumulation_steps <= 0) {
    throw std::invalid_argument("run_epoch: counts must be positive");
  }
  std::vector<double> as_double(local_batches.begin(), local_batches.end());
  const auto base = timings(as_double);

  EpochObservation epoch;
  epoch.num_batches = num_batches;
  epoch.nodes.resize(base.size());

  std::vector<double> a_sum(base.size(), 0.0);
  std::vector<double> p_sum(base.size(), 0.0);
  double time_sum = 0.0;

  // Every draw is a pure hash of (seed, epoch, step, micro-step, node,
  // kind): an epoch's noise depends only on its own index, never on how
  // many draws earlier epochs used.
  const std::uint64_t epoch_key = hash_combine(mix64(seed_), epoch_++);
  const double run_sigma = noise_.enabled ? noise_.run_sigma : 0.0;

  // Only the batch time of each step is kept, so the batch loop runs
  // the allocation-free kernel rather than building a BatchTimeline.
  BatchTimeKernel kernel(comm_, job_.gamma);
  for (int batch = 0; batch < num_batches; ++batch) {
    const std::uint64_t step_key =
        hash_combine(epoch_key, static_cast<std::uint64_t>(batch));
    const std::uint64_t sync_key = hash_combine(step_key, 0);
    for (std::size_t i = 0; i < base.size(); ++i) {
      const double jitter =
          lognormal_jitter(run_sigma, draw_key(sync_key, i, kRun));
      const double a = base[i].a * jitter;
      const double p = base[i].p * jitter;
      a_sum[i] += a;
      p_sum[i] += p;
      kernel.add(a, p);
    }
    double step_time = kernel.finish_batch();
    // Accumulation micro-steps: compute only, no synchronization, the
    // step gated by the slowest node each time.
    for (int micro = 1; micro < accumulation_steps; ++micro) {
      const std::uint64_t micro_key =
          hash_combine(step_key, static_cast<std::uint64_t>(micro));
      double compute = 0.0;
      for (std::size_t i = 0; i < base.size(); ++i) {
        const double jitter =
            lognormal_jitter(run_sigma, draw_key(micro_key, i, kRun));
        compute = std::max(compute, (base[i].a + base[i].p) * jitter);
      }
      step_time += compute;
    }
    time_sum += step_time;
  }

  epoch.avg_batch_time = time_sum / num_batches;
  epoch.total_time = time_sum;
  // The profiler's readings take step 0, micro-step 0: their draw kinds
  // keep them apart from that step's run jitter.
  const std::uint64_t reading_key =
      hash_combine(hash_combine(epoch_key, 0), 0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    NodeObservation& obs = epoch.nodes[i];
    obs.local_batch = local_batches[i];
    const double sigma = noise_.enabled ? node_meas_sigma_[i] : 0.0;
    // Averaging over the epoch's batches shrinks measurement error by
    // sqrt(num_batches); keep a floor so it never vanishes entirely.
    const double eff_sigma =
        sigma / std::sqrt(std::max(1.0, static_cast<double>(num_batches) / 8.0));
    obs.a = (a_sum[i] / num_batches) *
            lognormal_jitter(eff_sigma, draw_key(reading_key, i, kMeasuredA));
    obs.p = (p_sum[i] / num_batches) *
            lognormal_jitter(eff_sigma, draw_key(reading_key, i, kMeasuredP));
    const double comm_sigma = noise_.enabled ? node_comm_sigma_[i] : 0.0;
    obs.gamma = job_.gamma *
                lognormal_jitter(comm_sigma, draw_key(reading_key, i, kGamma));
    obs.t_other = comm_.t_other * lognormal_jitter(
                                      comm_sigma,
                                      draw_key(reading_key, i, kTOther));
    obs.t_last = comm_.t_last *
                 lognormal_jitter(comm_sigma, draw_key(reading_key, i, kTLast));
  }
  return epoch;
}

int ClusterJob::max_local_batch(int node) const {
  return truth(node).max_local_batch;
}

void ClusterJob::set_contention(int node, double contention) {
  if (contention <= 0.0) {
    throw std::invalid_argument("set_contention: must be positive");
  }
  NodeSpec& spec = cluster_.nodes.at(static_cast<std::size_t>(node));
  spec.contention = contention;
  truths_[static_cast<std::size_t>(node)] = derive_node_truth(spec, job_);
}

double ClusterJob::contention(int node) const {
  return cluster_.nodes.at(static_cast<std::size_t>(node)).contention;
}

void ClusterJob::set_network_scale(double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("set_network_scale: must be positive");
  }
  network_scale_ = factor;
  NetworkModel net = cluster_.network;
  net.bandwidth_bytes_per_s *= factor;
  net.intra_bandwidth_bytes_per_s *= factor;
  comm_ = cluster_.comm_groups.empty()
              ? make_comm_schedule(net, job_.gradient_bytes, job_.bucket_bytes,
                                   size())
              : make_comm_schedule(net, job_.gradient_bytes, job_.bucket_bytes,
                                   cluster_.comm_groups);
}

int ClusterJob::max_total_batch() const {
  long total = 0;
  for (int i = 0; i < size(); ++i) total += max_local_batch(i);
  return static_cast<int>(std::min<long>(total, 1 << 24));
}

}  // namespace cannikin::sim
