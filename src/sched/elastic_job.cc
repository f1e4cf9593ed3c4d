#include "sched/elastic_job.h"

#include <algorithm>
#include <stdexcept>

#include "experiments/harness.h"
#include "sched/checkpoint.h"

namespace cannikin::sched {

namespace {

// Modeled cost of surviving a node crash: checkpoint reload plus
// process-group re-initialization, on top of the per-node
// reconfiguration round trip Table 6 accounts for ordinary replans.
// (The supervisor's checkpoint-restore path replaces this constant
// with measured restore cost; this models the legacy in-process
// discard-epoch recovery.)
constexpr double kCrashRestartSeconds = 2.0;
constexpr double kCrashPerNodeSeconds = 0.05;

// Modeled cost of a node re-joining a running job: process-group
// rebuild plus the per-node reconfiguration round trip. No restart and
// no bootstrap epochs -- the model bank warm-starts the newcomer.
constexpr double kRejoinSeconds = 0.5;
constexpr double kRejoinPerNodeSeconds = 0.05;

// Modeled cost of shrinking away the cut-off side of a network
// partition: the survivors rebuild their process group around the
// reachable set and keep training -- no checkpoint reload, no cold
// restart, which is the whole point of degrading instead of dying.
constexpr double kPartitionShrinkSeconds = 0.75;
constexpr double kPartitionPerNodeSeconds = 0.05;

}  // namespace

ElasticCannikinJob::ElasticCannikinJob(const workloads::Workload* workload,
                                       sim::ClusterSpec full_cluster,
                                       sim::NoiseConfig noise,
                                       std::uint64_t seed,
                                       bool use_model_bank)
    : workload_(workload),
      full_cluster_(std::move(full_cluster)),
      noise_(noise),
      seed_(seed),
      use_model_bank_(use_model_bank) {
  if (workload_ == nullptr) {
    throw std::invalid_argument("ElasticCannikinJob: null workload");
  }
}

void ElasticCannikinJob::bank_current_models() {
  if (!system_) return;
  const auto models = system_->controller().learned_models();
  const auto comm = system_->controller().learned_comm();
  if (models) {
    for (std::size_t i = 0; i < allocation_.size(); ++i) {
      const auto& node = full_cluster_.nodes.at(
          static_cast<std::size_t>(allocation_[i]));
      bank_.store_node(ModelBank::node_key(node), (*models)[i]);
    }
  }
  if (comm) {
    bank_.store_comm(static_cast<int>(allocation_.size()), *comm);
  }
}

ModelBank ElasticCannikinJob::banked_snapshot() const {
  ModelBank snapshot = bank_;
  if (!system_) return snapshot;
  const auto models = system_->controller().learned_models();
  const auto comm = system_->controller().learned_comm();
  if (models) {
    for (std::size_t i = 0; i < allocation_.size(); ++i) {
      const auto& node = full_cluster_.nodes.at(
          static_cast<std::size_t>(allocation_[i]));
      snapshot.store_node(ModelBank::node_key(node), (*models)[i]);
    }
  }
  if (comm) {
    snapshot.store_comm(static_cast<int>(allocation_.size()), *comm);
  }
  return snapshot;
}

void ElasticCannikinJob::set_allocation(const std::vector<int>& node_ids) {
  bank_current_models();
  const double gns_carry = system_ ? current_gns() : 0.0;
  apply_allocation(node_ids, gns_carry, nullptr);
}

void ElasticCannikinJob::apply_allocation(
    const std::vector<int>& node_ids, double gns_carry,
    const core::ControllerState* restored) {
  if (node_ids.empty()) {
    throw std::invalid_argument("set_allocation: empty allocation");
  }
  allocation_ = node_ids;
  sim::ClusterSpec subset;
  subset.name = full_cluster_.name + "/subset";
  subset.network = full_cluster_.network;
  for (int id : node_ids) {
    subset.nodes.push_back(
        full_cluster_.nodes.at(static_cast<std::size_t>(id)));
  }
  // Keyed from the job's lifetime epoch count: the rebuilt simulator
  // draws this epoch's noise, not a replay of the job's first epochs.
  job_ = std::make_unique<sim::ClusterJob>(
      subset, workload_->profile, noise_, seed_,
      static_cast<std::uint64_t>(epochs_));
  // Runtime network degradation outlives reallocations: the new ring
  // runs over the same damaged interconnect.
  if (network_scale_ != 1.0) job_->set_network_scale(network_scale_);

  std::vector<double> caps;
  for (int i = 0; i < job_->size(); ++i) {
    caps.push_back(job_->max_local_batch(i));
  }
  system_ = std::make_unique<experiments::CannikinSystem>(
      job_->size(), caps, workload_->b0, workload_->max_total_batch);

  if (use_model_bank_ && !bank_.empty()) {
    std::vector<std::optional<core::NodeModel>> priors;
    bool all_covered = true;
    for (const auto& node : subset.nodes) {
      auto prior = bank_.node(ModelBank::node_key(node));
      all_covered = all_covered && prior.has_value();
      priors.push_back(std::move(prior));
    }
    const auto comm_prior = bank_.comm(static_cast<int>(node_ids.size()));
    system_->mutable_controller().warm_start(priors, comm_prior, gns_carry);
    if (all_covered) ++warm_reallocations_;
  } else if (restored != nullptr) {
    // Bank disabled (or empty) but restoring from a checkpoint: replay
    // the controller's learned state directly.
    if (core::restore_controller_state(system_->mutable_controller(),
                                       static_cast<int>(node_ids.size()),
                                       *restored)) {
      ++warm_reallocations_;
    }
  } else if (gns_carry > 0.0) {
    system_->mutable_controller().warm_start(
        std::vector<std::optional<core::NodeModel>>(node_ids.size(),
                                                    std::nullopt),
        std::nullopt, gns_carry);
  }
}

double ElasticCannikinJob::run_epoch() {
  if (!system_ || !job_) {
    throw std::logic_error("run_epoch: no allocation");
  }
  const experiments::EpochRow row =
      experiments::run_epoch_step(*job_, *workload_, *system_, &progress_);
  ++epochs_;
  const double recovery_overhead = pending_recovery_overhead_;
  pending_recovery_overhead_ = 0.0;
  return row.epoch_seconds + row.overhead_seconds + recovery_overhead;
}

int ElasticCannikinJob::local_index(int node_id) const {
  const auto it = std::find(allocation_.begin(), allocation_.end(), node_id);
  return it == allocation_.end()
             ? -1
             : static_cast<int>(it - allocation_.begin());
}

const RecoveryReport& ElasticCannikinJob::apply_fault(
    const sim::FaultEvent& event) {
  RecoveryReport report;
  report.epoch = epochs_;
  report.event = event;

  switch (event.kind) {
    case sim::FaultKind::kTransientStraggler:
    case sim::FaultKind::kPermanentSlowdown: {
      // The fault sticks to the physical node: record it on the full
      // cluster so any future allocation of this node inherits it, and
      // on the live job when the node is currently training.
      if (event.node < 0 ||
          event.node >= static_cast<int>(full_cluster_.nodes.size())) {
        throw std::invalid_argument("apply_fault: bad node id");
      }
      full_cluster_.nodes[static_cast<std::size_t>(event.node)].contention =
          event.severity;
      const int local = local_index(event.node);
      if (local >= 0 && job_) job_->set_contention(local, event.severity);
      break;
    }
    case sim::FaultKind::kNetworkDegrade: {
      network_scale_ = event.severity;
      if (job_) job_->set_network_scale(event.severity);
      break;
    }
    case sim::FaultKind::kNodeCrash: {
      const int local = local_index(event.node);
      if (local < 0) break;  // a spare died; the scheduler's problem
      if (allocation_.size() == 1) {
        throw std::runtime_error(
            "apply_fault: last node crashed; job cannot continue");
      }
      std::vector<int> survivors;
      for (int id : allocation_) {
        if (id != event.node) survivors.push_back(id);
      }
      const int warm_before = warm_reallocations_;
      // set_allocation banks the current models first, so everything
      // the dead node taught us about its hardware type survives it.
      set_allocation(survivors);
      report.warm = warm_reallocations_ > warm_before;
      report.overhead_seconds =
          kCrashRestartSeconds +
          kCrashPerNodeSeconds * static_cast<double>(survivors.size());
      pending_recovery_overhead_ += report.overhead_seconds;
      recovery_overhead_ += report.overhead_seconds;
      ++crash_recoveries_;
      break;
    }
    case sim::FaultKind::kNodeRecover: {
      if (event.node < 0 ||
          event.node >= static_cast<int>(full_cluster_.nodes.size())) {
        throw std::invalid_argument("apply_fault: bad node id");
      }
      // The node comes back at `severity` contention (1.0 = healthy).
      full_cluster_.nodes[static_cast<std::size_t>(event.node)].contention =
          event.severity;
      const int local = local_index(event.node);
      if (local >= 0) {
        // Already training: only its contention changed.
        if (job_) job_->set_contention(local, event.severity);
        break;
      }
      if (!system_) {
        throw std::logic_error("apply_fault: recover before any allocation");
      }
      // Grow back: survivors keep their ranks, the newcomer is appended.
      // set_allocation banks the current models first, so if the node's
      // type was ever seen the controller warm-starts it for free.
      std::vector<int> grown = allocation_;
      grown.push_back(event.node);
      const int warm_before = warm_reallocations_;
      set_allocation(grown);
      report.warm = warm_reallocations_ > warm_before;
      report.overhead_seconds =
          kRejoinSeconds +
          kRejoinPerNodeSeconds * static_cast<double>(grown.size());
      pending_recovery_overhead_ += report.overhead_seconds;
      recovery_overhead_ += report.overhead_seconds;
      ++node_rejoins_;
      break;
    }
    case sim::FaultKind::kNetworkPartition: {
      if (event.severity >= 1.0) {
        // Heal: re-admit the nodes cut off at onset.
        std::vector<int> grown = allocation_;
        int readmitted = 0;
        for (int id : partitioned_nodes_) {
          if (local_index(id) < 0) {
            grown.push_back(id);
            ++readmitted;
          }
        }
        partitioned_nodes_.clear();
        if (readmitted == 0) break;
        const int warm_before = warm_reallocations_;
        set_allocation(grown);
        report.warm = warm_reallocations_ > warm_before;
        report.overhead_seconds =
            kRejoinSeconds +
            kRejoinPerNodeSeconds * static_cast<double>(grown.size());
        pending_recovery_overhead_ += report.overhead_seconds;
        recovery_overhead_ += report.overhead_seconds;
        node_rejoins_ += readmitted;
        break;
      }
      // Onset: shrink away the partitioned side. The survivors
      // keep training on their rescaled gradient share -- an elastic
      // shrink, not a restart.
      std::vector<int> survivors;
      std::vector<int> excluded;
      for (int id : allocation_) {
        const bool cut = std::find(event.partition.begin(),
                                   event.partition.end(),
                                   id) != event.partition.end();
        (cut ? excluded : survivors).push_back(id);
      }
      if (excluded.empty()) break;  // partition missed this job's nodes
      if (survivors.empty()) {
        throw std::runtime_error(
            "apply_fault: partition cut off every allocated node");
      }
      for (int id : excluded) partitioned_nodes_.push_back(id);
      const int warm_before = warm_reallocations_;
      set_allocation(survivors);
      report.warm = warm_reallocations_ > warm_before;
      report.overhead_seconds =
          kPartitionShrinkSeconds +
          kPartitionPerNodeSeconds * static_cast<double>(survivors.size());
      pending_recovery_overhead_ += report.overhead_seconds;
      recovery_overhead_ += report.overhead_seconds;
      ++partition_shrinks_;
      break;
    }
    case sim::FaultKind::kLinkFlaky: {
      // Lossy links: with bounded retry every message costs an expected
      // 1/(1-p) transmissions, so the epoch-level model sees effective
      // throughput scaled by (1-p), clamped so p = 1 (every attempt
      // dropped) degrades to a crawl instead of an invalid zero-bandwidth
      // network. Severity 0 is the auto-recovery marker (healthy links).
      network_scale_ = std::max(0.01, 1.0 - event.severity);
      if (job_) job_->set_network_scale(network_scale_);
      break;
    }
    case sim::FaultKind::kCheckpointCorrupt: {
      // Storage rot, not a cluster fault: the supervisor damages the
      // store (CheckpointStore::flip_bit_in_latest) and the CRC-skip
      // path absorbs it at the next restore. Nothing changes on the
      // live job; the report keeps it visible in recovery traces.
      break;
    }
  }

  recoveries_.push_back(std::move(report));
  return recoveries_.back();
}

Checkpoint ElasticCannikinJob::make_checkpoint() const {
  if (!system_) {
    throw std::logic_error("make_checkpoint: no allocation");
  }
  Checkpoint ckpt;
  ckpt.epochs = epochs_;
  ckpt.progress = progress_;
  ckpt.allocation = allocation_;
  ckpt.network_scale = network_scale_;
  ckpt.node_contention.reserve(full_cluster_.nodes.size());
  for (const auto& node : full_cluster_.nodes) {
    ckpt.node_contention.push_back(node.contention);
  }
  ckpt.crash_recoveries = crash_recoveries_;
  ckpt.warm_reallocations = warm_reallocations_;
  ckpt.node_rejoins = node_rejoins_;
  ckpt.recovery_overhead_seconds = recovery_overhead_;
  ckpt.bank_text = banked_snapshot().serialize();
  ckpt.controller = core::capture_controller_state(system_->controller());
  return ckpt;
}

void ElasticCannikinJob::restore_from_checkpoint(
    const Checkpoint& ckpt, const std::vector<int>& exclude_nodes) {
  std::vector<int> allocation;
  for (int id : ckpt.allocation) {
    if (std::find(exclude_nodes.begin(), exclude_nodes.end(), id) ==
        exclude_nodes.end()) {
      allocation.push_back(id);
    }
  }
  if (allocation.empty()) {
    throw std::runtime_error(
        "restore_from_checkpoint: every checkpointed node is dead");
  }
  restore_impl(ckpt, allocation);
}

void ElasticCannikinJob::restore_to_allocation(
    const Checkpoint& ckpt, const std::vector<int>& node_ids) {
  if (node_ids.empty()) {
    throw std::invalid_argument("restore_to_allocation: empty allocation");
  }
  restore_impl(ckpt, node_ids);
}

void ElasticCannikinJob::restore_impl(const Checkpoint& ckpt,
                                      const std::vector<int>& allocation) {
  if (system_) {
    throw std::logic_error(
        "restore_from_checkpoint: restore into a fresh job, not a live one");
  }
  if (ckpt.node_contention.size() != full_cluster_.nodes.size()) {
    throw std::runtime_error(
        "restore_from_checkpoint: checkpoint is for a different cluster (" +
        std::to_string(ckpt.node_contention.size()) + " nodes vs " +
        std::to_string(full_cluster_.nodes.size()) + ")");
  }
  for (int id : allocation) {
    if (id < 0 || id >= static_cast<int>(full_cluster_.nodes.size())) {
      throw std::runtime_error("restore_from_checkpoint: bad node id " +
                               std::to_string(id));
    }
  }

  progress_ = ckpt.progress;
  epochs_ = ckpt.epochs;
  network_scale_ = ckpt.network_scale;
  for (std::size_t i = 0; i < full_cluster_.nodes.size(); ++i) {
    full_cluster_.nodes[i].contention = ckpt.node_contention[i];
  }
  crash_recoveries_ = ckpt.crash_recoveries;
  warm_reallocations_ = ckpt.warm_reallocations;
  node_rejoins_ = ckpt.node_rejoins;
  recovery_overhead_ = ckpt.recovery_overhead_seconds;
  bank_ = ckpt.bank_text.empty() ? ModelBank{}
                                 : ModelBank::deserialize(ckpt.bank_text);
  apply_allocation(allocation, ckpt.controller.gns, &ckpt.controller);
}

int ElasticCannikinJob::drift_resets() const {
  return system_ ? system_->controller().perf_model().drift_resets() : 0;
}

double ElasticCannikinJob::progress_fraction() const {
  return std::min(progress_ / workload_->target_progress(), 1.0);
}

double ElasticCannikinJob::current_gns() const {
  return system_ ? system_->controller().current_gns() : 0.0;
}

}  // namespace cannikin::sched
