#include "dnn/parallel_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/bucket.h"
#include "comm/collectives.h"
#include "comm/process_group.h"
#include "core/hetero_dataloader.h"
#include "dnn/kernels/arena.h"
#include "dnn/kernels/thread_pool.h"
#include "dnn/loss.h"

namespace cannikin::dnn {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// Per-thread CPU time for the a/P compute measurements. On this
// in-process testbed many ranks share a few physical cores, so wall
// clock charges a rank for time spent descheduled while its peers
// compute -- a bias, not just jitter, that corrupts a planner's
// learned q/k slopes. Thread CPU time counts only the compute the rank
// itself performed, which is what wall clock would read on a real
// deployment where each worker owns its device. Communication phases
// keep wall clock: waiting is exactly what they measure.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double squared_norm(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x * x;
  return total;
}

/// Per-rank phase accumulators; each worker thread writes only its own
/// slot, so no locking is needed.
struct PhaseAccum {
  double a_seconds = 0.0;
  double p_seconds = 0.0;
  double exposed_seconds = 0.0;
  double total_comm_seconds = 0.0;
  double last_bucket_seconds = 0.0;
  int batches = 0;
};

}  // namespace

ParallelTrainer::ParallelTrainer(const InMemoryDataset* train,
                                 std::function<Model()> factory,
                                 TrainerOptions options)
    : train_(train),
      factory_(std::move(factory)),
      options_(options),
      gns_(options.gns_smoothing, options.gns_weighting) {
  if (train_ == nullptr) {
    throw std::invalid_argument("ParallelTrainer: null dataset");
  }
  if (options_.num_nodes <= 0) {
    throw std::invalid_argument("ParallelTrainer: num_nodes must be > 0");
  }
  if (options_.throttles.empty()) {
    options_.throttles.assign(static_cast<std::size_t>(options_.num_nodes),
                              1);
  }
  if (static_cast<int>(options_.throttles.size()) != options_.num_nodes) {
    throw std::invalid_argument("ParallelTrainer: throttles size mismatch");
  }
  for (int t : options_.throttles) {
    if (t < 1) throw std::invalid_argument("ParallelTrainer: throttle < 1");
  }
  Model prototype = factory_();
  Rng rng(options_.seed);
  prototype.init(rng);
  params_ = prototype.flat_params();

  optimizers_.reserve(static_cast<std::size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    if (options_.use_adam) {
      optimizers_.push_back(make_adamw(0.0));
    } else {
      optimizers_.push_back(std::make_unique<Sgd>(options_.momentum));
    }
  }
}

EpochResult ParallelTrainer::run_epoch(const std::vector<int>& local_batches) {
  if (static_cast<int>(local_batches.size()) != options_.num_nodes) {
    throw std::invalid_argument("run_epoch: wrong local batch count");
  }
  int total_batch = 0;
  for (int b : local_batches) total_batch += b;
  if (total_batch <= 0) {
    throw std::invalid_argument("run_epoch: empty total batch");
  }

  core::HeteroDataLoader loader(train_->size(), local_batches,
                                options_.seed * 7919 +
                                    static_cast<std::uint64_t>(epoch_));
  const int num_batches = loader.num_batches();
  const double lr =
      scaled_lr(options_.lr_scaling, options_.base_lr, total_batch,
                options_.initial_total_batch, gns_.gns());

  comm::GroupOptions group_options;
  group_options.size = options_.num_nodes;
  group_options.timeout_seconds = options_.comm_timeout_seconds;
  group_options.backend = options_.comm_backend;
  group_options.fabric = options_.comm_fabric;
  group_options.retry = options_.comm_retry;
  comm::ProcessGroup group(group_options);
  if (options_.obs.enabled()) group.set_scope(options_.obs);
  const auto buckets =
      comm::make_buckets(params_.size(), options_.bucket_capacity);

  EpochResult result;
  std::mutex result_mutex;
  std::vector<double> final_params;
  std::string comm_failure;  // first comm error, attributed to its rank
  std::vector<PhaseAccum> accums(static_cast<std::size_t>(options_.num_nodes));

  auto worker_body = [&](int rank, comm::Communicator& comm) {
    // Kernel context: declared before the model so it outlives every
    // layer holding a pointer to it. The arena recycles all per-step
    // tensor workspaces; after warmup no step touches the heap.
    kernels::ThreadPool pool(options_.kernel_threads);
    kernels::Arena arena;
    const kernels::Context kctx{&kernels::kernel(options_.kernel_kind),
                                pool.size() > 1 ? &pool : nullptr,
                                options_.kernel_use_arena ? arena.resource()
                                                          : nullptr};
    Model model = factory_();
    model.set_context(&kctx);
    model.set_flat_params(params_);
    Optimizer& optimizer = *optimizers_[static_cast<std::size_t>(rank)];
    PhaseAccum& accum = accums[static_cast<std::size_t>(rank)];
    const int throttle = options_.throttles[static_cast<std::size_t>(rank)];
    const obs::Scope scope = comm.scope();
    obs::SpanGuard epoch_span;
    if (scope.tracing()) {
      scope.thread_name("rank " + std::to_string(rank));
      epoch_span = scope.span("trainer", "epoch",
                              obs::ArgList()
                                  .add("epoch", epoch_)
                                  .add("num_batches", num_batches)
                                  .add("throttle", throttle));
    }

    // Steady-state buffers: sized once, reused every batch.
    std::vector<double> gradient(params_.size(), 0.0);
    std::vector<double> local_params(params_.size(), 0.0);
    std::vector<double> stats(4, 0.0);

    for (int batch = 0; batch < num_batches; ++batch) {
      // Recycle every tensor workspace handed out last step (layer
      // caches are re-assigned by the next forward before any read).
      arena.reset();
      if (rank == options_.inject_failure_rank &&
          batch >= options_.inject_failure_step) {
        // Simulated worker death: stop participating without notice.
        // Peers block on this rank's contribution until their deadline.
        return;
      }
      // Every rank allocates the same tag sequence, so the collectives
      // match up without any shared coordination.
      const std::uint64_t bucket_tag =
          comm.tags().block(comm::CollectiveKind::kBucketAllReduce,
                            buckets.size());
      const std::uint64_t gather_tag =
          comm.tags().next(comm::CollectiveKind::kAllGather);

      const auto indices = loader.batch_for_node(batch, rank);
      const int local_b = static_cast<int>(indices.size());

      // Eq. (9): weight each local gradient by its share of the batch.
      // Needed before backward now -- buckets launch mid-backward.
      const int actual_total = [&] {
        int t = 0;
        for (int node = 0; node < options_.num_nodes; ++node) {
          t += loader.batch_size_for_node(batch, node);
        }
        return t;
      }();
      const double weight =
          static_cast<double>(local_b) / static_cast<double>(actual_total);

      std::fill(gradient.begin(), gradient.end(), 0.0);
      comm::BucketReducer reducer(comm, std::span<double>(gradient), weight,
                                  buckets, bucket_tag);

      model.zero_grads();
      double local_loss = 0.0;
      double local_correct = 0.0;
      double local_norm_sq = 0.0;
      if (local_b > 0) {
        const double forward_begin = thread_cpu_seconds();
        obs::SpanGuard forward_span;
        if (scope.tracing()) {
          forward_span = scope.span(
              "trainer", "forward",
              obs::ArgList().add("batch", batch).add("local_b", local_b));
        }
        const Tensor inputs = train_->gather(indices, kctx.resource());
        // Throttle reps before the last are pure compute, discarded.
        Tensor outputs = model.forward(inputs);
        for (int rep = 1; rep < throttle; ++rep) {
          outputs = model.forward(inputs);
        }
        LossResult loss;
        if (options_.task == TaskKind::kClassification) {
          const auto labels = train_->gather_labels(indices);
          loss = softmax_cross_entropy(outputs, labels, &kctx);
          local_correct = accuracy(outputs, labels) * local_b;
        } else {
          const auto targets = train_->gather_targets(indices);
          loss = bce_with_logits(outputs, targets, &kctx);
          for (std::size_t i = 0; i < targets.size(); ++i) {
            const bool predicted = outputs[i] > 0.0;
            if (predicted == (targets[i] > 0.5)) local_correct += 1.0;
          }
        }
        local_loss = loss.value;
        accum.a_seconds += thread_cpu_seconds() - forward_begin;
        forward_span.close();

        // Streamed backward: each layer's gradient range is marked
        // ready as soon as it exists, so a bucket's all-reduce runs on
        // the comm thread while earlier layers are still
        // backpropagating. The GNS local norm must be read here,
        // before the async reduction scales the range in place.
        const double backward_begin = thread_cpu_seconds();
        obs::SpanGuard backward_span;
        if (scope.tracing()) {
          backward_span = scope.span("trainer", "backward",
                                     obs::ArgList().add("batch", batch));
        }
        for (int rep = 1; rep < throttle; ++rep) {
          model.backward(loss.grad);
          model.zero_grads();
        }
        model.backward(
            loss.grad, gradient,
            [&](std::size_t offset, std::size_t length) {
              for (std::size_t i = offset; i < offset + length; ++i) {
                local_norm_sq += gradient[i] * gradient[i];
              }
              reducer.mark_ready(offset, length);
            });
        accum.p_seconds += thread_cpu_seconds() - backward_begin;
        backward_span.close();
      }

      const comm::BucketReducer::Stats comm_stats = reducer.finish();
      accum.exposed_seconds += comm_stats.exposed_wait_seconds;
      accum.total_comm_seconds += comm_stats.total_comm_seconds;
      accum.last_bucket_seconds += comm_stats.last_bucket_seconds;
      ++accum.batches;

      const double global_norm_sq = squared_norm(gradient);

      // Statistics: gather per-node batch sizes, norms and losses.
      stats[0] = static_cast<double>(local_b);
      stats[1] = local_norm_sq;
      stats[2] = local_loss * local_b;
      stats[3] = local_correct;
      const std::vector<double> all_stats =
          comm::all_gather(comm, stats, gather_tag);

      // Every rank applies the identical update; replicas stay in sync.
      const double update_begin = thread_cpu_seconds();
      obs::SpanGuard update_span;
      if (scope.tracing()) {
        update_span = scope.span("trainer", "update",
                                 obs::ArgList().add("batch", batch));
      }
      model.copy_flat_params(local_params);
      optimizer.step(local_params, gradient, lr, &kctx);
      model.set_flat_params(std::span<const double>(local_params));
      accum.a_seconds += thread_cpu_seconds() - update_begin;
      update_span.close();

      if (rank == 0) {
        std::vector<double> bs, norms;
        double loss_sum = 0.0, correct_sum = 0.0;
        bool usable = true;
        for (int node = 0; node < options_.num_nodes; ++node) {
          const double b = all_stats[static_cast<std::size_t>(node) * 4];
          const double norm = all_stats[static_cast<std::size_t>(node) * 4 + 1];
          loss_sum += all_stats[static_cast<std::size_t>(node) * 4 + 2];
          correct_sum += all_stats[static_cast<std::size_t>(node) * 4 + 3];
          if (b <= 0.0) {
            usable = false;
            continue;
          }
          bs.push_back(b);
          norms.push_back(norm);
        }
        std::lock_guard<std::mutex> lock(result_mutex);
        result.mean_loss += loss_sum / actual_total;
        result.train_accuracy += correct_sum / actual_total;
        ++result.steps;
        // The Eq. (10) estimators need every contributing b_i < B.
        if (usable && bs.size() >= 2) {
          const core::GnsSample sample = core::estimate_gns(
              bs, norms, global_norm_sq, options_.gns_weighting);
          result.gns_samples.push_back(sample);
        }
      }
    }
    if (rank == 0) {
      std::lock_guard<std::mutex> lock(result_mutex);
      final_params = model.flat_params();
    }
  };

  // NCCL-watchdog protocol: the first rank whose comm op times out (or
  // observes an abort) aborts the whole group, so every other rank
  // unwinds in bounded time instead of deadlocking on the dead peer.
  auto worker = [&](int rank) {
    comm::Communicator comm = group.communicator(rank);
    try {
      worker_body(rank, comm);
    } catch (const comm::CommError& error) {
      {
        std::lock_guard<std::mutex> lock(result_mutex);
        if (comm_failure.empty()) {
          comm_failure =
              "rank " + std::to_string(rank) + ": " + error.what();
        }
      }
      group.abort();
    }
  };

  const auto epoch_begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(options_.num_nodes));
  for (int rank = 0; rank < options_.num_nodes; ++rank) {
    threads.emplace_back(worker, rank);
  }
  for (auto& thread : threads) thread.join();
  result.epoch_seconds = seconds_since(epoch_begin);

  if (!comm_failure.empty() || group.aborted()) {
    // The epoch is discarded: params_ keeps the last consistent
    // pre-epoch snapshot every surviving replica can restart from.
    throw comm::CommAbortedError("run_epoch aborted: " +
                                 (comm_failure.empty()
                                      ? std::string("process group aborted")
                                      : comm_failure));
  }

  // Condense each rank's clock readings into the per-batch phase
  // profile an adaptive planner consumes (sim::NodeObservation shape).
  result.node_timings.resize(static_cast<std::size_t>(options_.num_nodes));
  for (int rank = 0; rank < options_.num_nodes; ++rank) {
    const PhaseAccum& accum = accums[static_cast<std::size_t>(rank)];
    NodePhaseTimings& timing =
        result.node_timings[static_cast<std::size_t>(rank)];
    if (accum.batches == 0) continue;
    const double batches = static_cast<double>(accum.batches);
    timing.a = accum.a_seconds / batches;
    timing.p = accum.p_seconds / batches;
    timing.t_last = accum.last_bucket_seconds / batches;
    timing.t_other =
        std::max(0.0, accum.total_comm_seconds - accum.last_bucket_seconds) /
        batches;
    if (accum.total_comm_seconds > 0.0) {
      timing.gamma = std::clamp(
          1.0 - accum.exposed_seconds / accum.total_comm_seconds, 0.0, 1.0);
    }
    if (options_.obs.metrics() != nullptr) {
      // Per-batch phase profile, one histogram sample per rank-epoch:
      // the measured (a, P, gamma) feeding Cannikin's Eq. (3) models.
      options_.obs.observe("trainer.a_us_per_batch", timing.a * 1e6);
      options_.obs.observe("trainer.p_us_per_batch", timing.p * 1e6);
      options_.obs.observe("trainer.gamma", timing.gamma);
    }
  }

  params_ = std::move(final_params);
  for (const auto& sample : result.gns_samples) gns_.update_sample(sample);
  if (result.steps > 0) {
    result.mean_loss /= result.steps;
    result.train_accuracy /= result.steps;
  }
  result.gns_after = gns_.gns();
  if (options_.obs.metrics() != nullptr) {
    options_.obs.observe("trainer.epoch_seconds", result.epoch_seconds);
    options_.obs.gauge_set("trainer.total_batch",
                           static_cast<double>(total_batch));
  }
  ++epoch_;
  return result;
}

double ParallelTrainer::evaluate_accuracy(
    const InMemoryDataset& dataset) const {
  kernels::Arena arena;
  const kernels::Context kctx{
      &kernels::kernel(options_.kernel_kind), nullptr,
      options_.kernel_use_arena ? arena.resource() : nullptr};
  Model model = factory_();
  model.set_context(&kctx);
  model.set_flat_params(params_);
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  double correct = 0.0;
  const std::size_t chunk = 256;
  for (std::size_t begin = 0; begin < indices.size(); begin += chunk) {
    arena.reset();
    const std::size_t end = std::min(begin + chunk, indices.size());
    std::span<const std::size_t> slice(indices.data() + begin, end - begin);
    const Tensor outputs =
        model.forward(dataset.gather(slice, kctx.resource()));
    if (options_.task == TaskKind::kClassification) {
      const auto labels = dataset.gather_labels(slice);
      correct += accuracy(outputs, labels) * static_cast<double>(slice.size());
    } else {
      const auto targets = dataset.gather_targets(slice);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        if ((outputs[i] > 0.0) == (targets[i] > 0.5)) correct += 1.0;
      }
    }
  }
  return correct / static_cast<double>(dataset.size());
}

double ParallelTrainer::evaluate_loss(const InMemoryDataset& dataset) const {
  kernels::Arena arena;
  const kernels::Context kctx{
      &kernels::kernel(options_.kernel_kind), nullptr,
      options_.kernel_use_arena ? arena.resource() : nullptr};
  Model model = factory_();
  model.set_context(&kctx);
  model.set_flat_params(params_);
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  double total = 0.0;
  const std::size_t chunk = 256;
  for (std::size_t begin = 0; begin < indices.size(); begin += chunk) {
    arena.reset();
    const std::size_t end = std::min(begin + chunk, indices.size());
    std::span<const std::size_t> slice(indices.data() + begin, end - begin);
    const Tensor outputs =
        model.forward(dataset.gather(slice, kctx.resource()));
    LossResult loss;
    if (options_.task == TaskKind::kClassification) {
      loss =
          softmax_cross_entropy(outputs, dataset.gather_labels(slice), &kctx);
    } else {
      loss = bce_with_logits(outputs, dataset.gather_targets(slice), &kctx);
    }
    total += loss.value * static_cast<double>(slice.size());
  }
  return total / static_cast<double>(dataset.size());
}

}  // namespace cannikin::dnn
