#include "chaos/chaos_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "comm/collectives.h"
#include "comm/event_backend.h"
#include "comm/process_group.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/temp_dir.h"
#include "sched/checkpoint.h"

namespace cannikin::chaos {
namespace {

// The checksum is a splitmix64 chain (common/hash.h): it must not
// depend on wall clock or global RNG state.
std::uint64_t hash_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return hash_combine(h, bits);
}

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Initial per-node tensor: a pure function of (schedule seed, node),
/// so replays regenerate identical state.
std::vector<double> initial_tensor(std::uint64_t seed, int node, int elements) {
  std::vector<double> tensor(static_cast<std::size_t>(elements));
  std::uint64_t h = hash_combine(mix64(seed), static_cast<std::uint64_t>(node));
  for (auto& v : tensor) {
    h = mix64(h);
    v = to_unit(h) - 0.5;
  }
  return tensor;
}

std::string serialize_tensors(
    const std::vector<int>& members,
    const std::map<int, std::vector<double>>& tensors) {
  common::BinaryWriter body;
  body.ints(members);
  for (const int node : members) {
    body.doubles(tensors.at(node));
  }
  return body.take();
}

void deserialize_tensors(const std::string& payload, std::vector<int>* members,
                         std::map<int, std::vector<double>>* tensors) {
  common::BinaryReader in(payload);
  *members = in.ints();
  tensors->clear();
  for (const int node : *members) {
    (*tensors)[node] = in.doubles();
  }
}

/// Live per-run state threaded through the round loop.
struct RunState {
  std::vector<int> members;                  ///< live, ascending
  std::map<int, std::vector<double>> tensors;
  std::set<int> dead;                        ///< crashed for good
  std::map<int, int> excluded_until;         ///< node -> re-admit round
  double cumulative_virtual = 0.0;
  double failure_virtual = -1.0;  ///< first failure since last commit
  bool process_down = false;      ///< a process_crash fired this round
};

int local_rank_of(const std::vector<int>& members, int node) {
  const auto it = std::lower_bound(members.begin(), members.end(), node);
  if (it == members.end() || *it != node) return -1;
  return static_cast<int>(it - members.begin());
}

void remove_member(std::vector<int>* members, int node) {
  members->erase(std::remove(members->begin(), members->end(), node),
                 members->end());
}

}  // namespace

std::string ChaosFault::describe() const {
  switch (kind) {
    case sim::FaultKind::kTransientStraggler:
      return format("r%d: straggler node %d sev %.2f", round, node, severity);
    case sim::FaultKind::kPermanentSlowdown:
      return format("r%d: slowdown node %d sev %.2f until r%d", round, node,
                    severity, heal_round);
    case sim::FaultKind::kNodeCrash:
      return format("r%d: crash node %d%s", round, node,
                    process_crash ? " (process dies)" : "");
    case sim::FaultKind::kNetworkDegrade:
      return format("r%d: degrade x%.2f until r%d", round, 1.0 + 2.0 * severity,
                    heal_round);
    case sim::FaultKind::kNodeRecover:
      return format("r%d: recover node %d", round, node);
    case sim::FaultKind::kNetworkPartition:
      if (soft_heal_seconds > 0.0) {
        return format("r%d: soft partition of %zu nodes, heals at %.2gs",
                      round, partition.size(), soft_heal_seconds);
      }
      return format("r%d: hard partition of %zu nodes until r%d", round,
                    partition.size(), heal_round);
    case sim::FaultKind::kLinkFlaky:
      return format("r%d: flaky links p=%.2f until r%d", round, severity,
                    heal_round);
    case sim::FaultKind::kCheckpointCorrupt:
      return format("r%d: corrupt latest checkpoint", round);
  }
  return format("r%d: unknown fault kind %d", round, static_cast<int>(kind));
}

std::string describe_schedule(const ChaosSchedule& schedule) {
  std::string out = format("schedule seed=%llu, %zu faults\n",
                           static_cast<unsigned long long>(schedule.seed),
                           schedule.faults.size());
  for (const auto& fault : schedule.faults) {
    out += "  " + fault.describe() + "\n";
  }
  return out;
}

ChaosSchedule make_chaos_schedule(const ChaosConfig& config) {
  ChaosSchedule schedule;
  schedule.seed = config.seed;
  Rng rng(config.seed ^ 0xc4a271b39d5e0f11ULL);

  // Every kind is reachable so the fuzzer exercises every code path;
  // weights lean toward the network faults this PR is about.
  static const sim::FaultKind kKinds[] = {
      sim::FaultKind::kTransientStraggler, sim::FaultKind::kPermanentSlowdown,
      sim::FaultKind::kNodeCrash,          sim::FaultKind::kNetworkDegrade,
      sim::FaultKind::kNodeRecover,        sim::FaultKind::kNetworkPartition,
      sim::FaultKind::kLinkFlaky,          sim::FaultKind::kCheckpointCorrupt,
      sim::FaultKind::kNetworkPartition,   sim::FaultKind::kLinkFlaky,
  };
  const int num_kinds = static_cast<int>(std::size(kKinds));

  for (int i = 0; i < config.num_faults; ++i) {
    ChaosFault fault;
    fault.kind = kKinds[rng.uniform_int(0, num_kinds - 1)];
    fault.round = static_cast<int>(rng.uniform_int(0, config.rounds - 1));
    fault.node = static_cast<int>(rng.uniform_int(0, config.ranks - 1));
    switch (fault.kind) {
      case sim::FaultKind::kTransientStraggler:
        fault.severity = rng.uniform(0.2, 1.0);
        break;
      case sim::FaultKind::kPermanentSlowdown:
        fault.severity = rng.uniform(0.2, 0.8);
        fault.heal_round = fault.round + static_cast<int>(rng.uniform_int(1, 2));
        break;
      case sim::FaultKind::kNodeCrash:
        fault.process_crash = rng.uniform() < 0.4;
        break;
      case sim::FaultKind::kNetworkDegrade:
        fault.severity = rng.uniform(0.3, 0.7);
        fault.heal_round = fault.round + static_cast<int>(rng.uniform_int(1, 2));
        break;
      case sim::FaultKind::kNodeRecover:
        break;
      case sim::FaultKind::kNetworkPartition: {
        const int cut =
            static_cast<int>(rng.uniform_int(1, std::max(1, config.ranks / 4)));
        std::set<int> side;
        while (static_cast<int>(side.size()) < cut) {
          side.insert(static_cast<int>(rng.uniform_int(0, config.ranks - 1)));
        }
        fault.partition.assign(side.begin(), side.end());
        if (rng.uniform() < 0.5) {
          // Soft: heals within the round, under the retry budget's
          // worst-case backoff horizon, so resends ride it out.
          fault.soft_heal_seconds = rng.uniform(1e-4, 6e-4);
          fault.heal_round = fault.round;
        } else {
          fault.heal_round =
              fault.round + static_cast<int>(rng.uniform_int(1, 2));
        }
        break;
      }
      case sim::FaultKind::kLinkFlaky:
        fault.severity = rng.uniform(0.05, 0.35);
        fault.heal_round = fault.round + static_cast<int>(rng.uniform_int(0, 1));
        break;
      case sim::FaultKind::kCheckpointCorrupt:
        break;
    }
    schedule.faults.push_back(std::move(fault));
  }
  std::stable_sort(schedule.faults.begin(), schedule.faults.end(),
                   [](const ChaosFault& a, const ChaosFault& b) {
                     return a.round < b.round;
                   });
  return schedule;
}

ChaosResult run_chaos_schedule(const ChaosConfig& config,
                               const ChaosSchedule& schedule) {
  ChaosResult result;

  if (config.forced_violation_kind >= 0) {
    for (const auto& fault : schedule.faults) {
      if (static_cast<int>(fault.kind) == config.forced_violation_kind) {
        result.ok = false;
        result.violations.push_back(
            {"forced", "synthetic violation: " + fault.describe(),
             fault.round});
        return result;
      }
    }
  }

  // A caller-named directory is wiped up front so a replay never sees
  // a previous run's files; otherwise the run gets a fresh one of its
  // own, removed on return.
  std::optional<TempDir> owned_dir;
  std::string dir = config.checkpoint_dir;
  if (dir.empty()) {
    owned_dir.emplace("cannikin-chaos");
    dir = owned_dir->str();
  } else {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  sched::CheckpointStore store(dir, /*keep_last=*/3);
  store.set_scope(config.obs);

  RunState state;
  state.members.resize(static_cast<std::size_t>(config.ranks));
  for (int node = 0; node < config.ranks; ++node) {
    state.members[static_cast<std::size_t>(node)] = node;
    state.tensors[node] =
        initial_tensor(schedule.seed, node, config.tensor_elements);
  }
  result.checksum = mix64(schedule.seed);

  try {
    for (int round = 0; round < config.rounds; ++round) {
      // ---- pre-round membership changes -----------------------------
      for (auto it = state.excluded_until.begin();
           it != state.excluded_until.end();) {
        if (it->second <= round && !state.dead.count(it->first)) {
          // Heal: re-admit, warm-started from a survivor's tensor (the
          // elastic re-join analogue; its pre-partition state is stale).
          state.members.push_back(it->first);
          state.tensors[it->first] = state.tensors.at(state.members.front());
          ++result.rejoins;
          it = state.excluded_until.erase(it);
        } else if (state.dead.count(it->first)) {
          it = state.excluded_until.erase(it);
        } else {
          ++it;
        }
      }
      std::sort(state.members.begin(), state.members.end());

      // Membership can shrink while scanning this round's faults (hard
      // partitions), so per-node effects are collected against GLOBAL
      // node ids here and resolved to local ranks only once the
      // round's membership is final.
      double latency = config.base_latency_seconds;
      sim::LinkFaults faults;
      faults.seed = hash_combine(mix64(schedule.seed),
                                 static_cast<std::uint64_t>(round));
      std::map<int, double> node_delays;    // node -> start vtime
      std::set<int> soft_partition_nodes;   // side-1 of a soft cut
      double soft_heal = 0.0;
      std::vector<int> crashed_nodes;

      for (const auto& fault : schedule.faults) {
        const bool active_window =
            fault.round <= round &&
            (fault.heal_round < 0 ? fault.round == round
                                  : round <= fault.heal_round);
        switch (fault.kind) {
          case sim::FaultKind::kTransientStraggler:
          case sim::FaultKind::kPermanentSlowdown: {
            if (!active_window) break;
            double& delay = node_delays[fault.node];
            delay = std::max(delay, fault.severity * 1e-3);
            break;
          }
          case sim::FaultKind::kNetworkDegrade:
            if (active_window) latency *= 1.0 + 2.0 * fault.severity;
            break;
          case sim::FaultKind::kNodeCrash: {
            if (fault.round != round) break;
            if (state.dead.count(fault.node)) break;
            state.dead.insert(fault.node);
            crashed_nodes.push_back(fault.node);
            if (fault.process_crash) state.process_down = true;
            break;
          }
          case sim::FaultKind::kNodeRecover: {
            if (fault.round != round) break;
            bool rejoined = false;
            if (state.dead.erase(fault.node) > 0) rejoined = true;
            if (state.excluded_until.erase(fault.node) > 0) rejoined = true;
            if (rejoined && local_rank_of(state.members, fault.node) < 0) {
              state.members.push_back(fault.node);
              std::sort(state.members.begin(), state.members.end());
              state.tensors[fault.node] =
                  state.tensors.at(state.members.front());
              ++result.rejoins;
            }
            break;
          }
          case sim::FaultKind::kNetworkPartition: {
            if (fault.round != round) break;
            if (fault.soft_heal_seconds > 0.0) {
              // Soft: becomes this round's LinkFaults bipartition; the
              // bounded retries are expected to ride it out.
              soft_partition_nodes.insert(fault.partition.begin(),
                                          fault.partition.end());
              soft_heal = std::max(soft_heal, fault.soft_heal_seconds);
            } else {
              // Hard: the quorum decision -- exclude the minority for
              // the partition's lifetime (the supervisor's elastic
              // shrink), re-admit at heal_round.
              std::vector<int> cut;
              for (const int node : fault.partition) {
                if (local_rank_of(state.members, node) >= 0) {
                  cut.push_back(node);
                }
              }
              if (cut.size() < state.members.size()) {
                for (const int node : cut) {
                  remove_member(&state.members, node);
                  state.excluded_until[node] = fault.heal_round;
                  ++result.exclusions;
                }
              }
            }
            break;
          }
          case sim::FaultKind::kLinkFlaky:
            if (active_window) {
              faults.enabled = true;
              faults.drop_probability =
                  std::max(faults.drop_probability, fault.severity);
            }
            break;
          case sim::FaultKind::kCheckpointCorrupt:
            if (fault.round == round) {
              store.flip_bit_in_latest(
                  hash_combine(static_cast<std::uint64_t>(round), 0x5a5aULL));
            }
            break;
        }
      }

      if (state.members.empty()) {
        result.gave_up = true;
        break;
      }

      // Resolve the collected per-node effects against the final
      // membership.
      const int n = static_cast<int>(state.members.size());
      if (!soft_partition_nodes.empty()) {
        faults.enabled = true;
        faults.partition_start_seconds = 0.0;
        faults.partition_heal_seconds = soft_heal;
        faults.partition_side.assign(static_cast<std::size_t>(n), 0);
        for (const int node : soft_partition_nodes) {
          const int local = local_rank_of(state.members, node);
          if (local >= 0) {
            faults.partition_side[static_cast<std::size_t>(local)] = 1;
          }
        }
      }
      std::vector<std::pair<int, double>> crashes;  // local, vtime
      for (const int node : crashed_nodes) {
        const int local = local_rank_of(state.members, node);
        if (local >= 0) crashes.push_back({local, 5e-5});
      }

      // ---- run the round's collective in pure virtual mode ----------
      comm::GroupOptions options;
      options.size = n;
      options.backend = comm::BackendKind::kEvent;
      options.fabric = sim::FabricModel::uniform_latency(latency);
      options.fabric.faults = faults;
      options.retry = config.retry;
      options.retry.seed =
          hash_combine(mix64(schedule.seed ^ 0x7e7eULL),
                       static_cast<std::uint64_t>(round));
      options.fabric.faults.seed = options.retry.seed + 1;

      std::vector<std::vector<double>> work_data(
          static_cast<std::size_t>(n));
      std::vector<comm::WorkPtr> works(static_cast<std::size_t>(n));
      double wall_elapsed = 0.0;
      comm::EventStats stats;
      {
        comm::ProcessGroup group(options);
        group.set_scope(config.obs);
        comm::EventBackend* backend = group.event_backend();
        std::vector<double> delays(static_cast<std::size_t>(n), 0.0);
        for (const auto& [node, delay] : node_delays) {
          const int local = local_rank_of(state.members, node);
          if (local >= 0) delays[static_cast<std::size_t>(local)] = delay;
        }
        for (int local = 0; local < n; ++local) {
          const auto l = static_cast<std::size_t>(local);
          work_data[l] = state.tensors.at(state.members[l]);
          backend->post(local, delays[l], [&group, &work_data, &works, local,
                                           l, round] {
            works[l] = comm::async_tree_all_reduce(
                group.communicator(local), work_data[l],
                static_cast<std::uint64_t>(round) + 1);
          });
        }
        for (const auto& [local, vtime] : crashes) {
          backend->inject_fault(local, vtime);
        }
        const auto wall_start = std::chrono::steady_clock::now();
        stats = backend->run_until_idle();
        wall_elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
        const comm::RetryStats retry = group.retry_stats();
        result.resends += retry.resends;
        result.messages_dropped += retry.dropped;
      }
      result.events += stats.events_processed;
      const double round_start_virtual = state.cumulative_virtual;
      state.cumulative_virtual += stats.virtual_time;

      // ---- invariant 1: liveness ------------------------------------
      if (wall_elapsed > config.wall_budget_seconds) {
        result.violations.push_back(
            {"liveness",
             format("round wall time %.1fs exceeds budget %.1fs",
                    wall_elapsed, config.wall_budget_seconds),
             round});
      }

      // ---- invariant 2: completes or surfaces a typed error ---------
      std::set<int> crashed_local;
      for (const auto& [local, vtime] : crashes) crashed_local.insert(local);
      bool round_ok = true;
      for (int local = 0; local < n; ++local) {
        const auto l = static_cast<std::size_t>(local);
        const bool crashed = crashed_local.count(local) > 0;
        if (!works[l]) {
          // The launch event itself never ran: only legal for a rank
          // that was killed before its start delay fired.
          if (!crashed) {
            result.violations.push_back(
                {"typed-error",
                 format("rank %d (node %d): collective never launched",
                        local, state.members[l]),
                 round});
          }
          round_ok = false;
          continue;
        }
        if (!works[l]->is_completed()) {
          result.violations.push_back(
              {"typed-error",
               format("rank %d (node %d): work pending after idle", local,
                      state.members[l]),
               round});
          round_ok = false;
          continue;
        }
        if (const std::exception_ptr error = works[l]->exception()) {
          round_ok = false;
          try {
            std::rethrow_exception(error);
          } catch (const comm::CommError&) {
            ++result.typed_errors;  // typed: invariant holds
          } catch (const std::exception& e) {
            result.violations.push_back(
                {"typed-error",
                 format("rank %d (node %d): foreign exception: %s", local,
                        state.members[l], e.what()),
                 round});
          }
        }
      }

      if (round_ok) {
        // ---- invariant 3: committed tensors bitwise identical -------
        const auto& reference = work_data[0];
        for (int local = 1; local < n; ++local) {
          const auto l = static_cast<std::size_t>(local);
          if (work_data[l].size() != reference.size() ||
              (!reference.empty() &&
               std::memcmp(work_data[l].data(), reference.data(),
                           reference.size() * sizeof(double)) != 0)) {
            result.violations.push_back(
                {"consistency",
                 format("rank %d (node %d) tensor differs from rank 0",
                        local, state.members[l]),
                 round});
            round_ok = false;
          }
        }
      }

      if (round_ok) {
        for (int local = 0; local < n; ++local) {
          const auto l = static_cast<std::size_t>(local);
          state.tensors[state.members[l]] = work_data[l];
        }
        ++result.rounds_completed;
        result.checksum =
            hash_combine(result.checksum, static_cast<std::uint64_t>(round));
        for (const int node : state.members) {
          result.checksum =
              hash_combine(result.checksum, static_cast<std::uint64_t>(node));
          for (const double v : state.tensors.at(node)) {
            result.checksum = hash_double(result.checksum, v);
          }
        }
        if (state.failure_virtual >= 0.0) {
          result.recovery_seconds.push_back(state.cumulative_virtual -
                                            state.failure_virtual);
          state.failure_virtual = -1.0;
        }
        if (config.checkpoint_every_rounds > 0 &&
            result.rounds_completed % config.checkpoint_every_rounds == 0) {
          sched::Checkpoint ckpt;
          ckpt.epochs = round;
          ckpt.progress = std::min(
              1.0, static_cast<double>(round + 1) / config.rounds);
          ckpt.allocation = state.members;
          ckpt.payload_kind = "chaos-tensors";
          ckpt.payload = serialize_tensors(state.members, state.tensors);
          store.save(ckpt);
        }
      } else {
        ++result.rounds_discarded;  // copies dropped, tensors untouched
        if (state.failure_virtual < 0.0) {
          state.failure_virtual = round_start_virtual;
        }
      }

      // Crashed nodes leave the membership either way.
      for (const int node : crashed_nodes) {
        remove_member(&state.members, node);
        state.tensors.erase(node);
      }

      // ---- invariant 4: restore or give up cleanly ------------------
      if (state.process_down) {
        state.process_down = false;
        std::vector<std::string> skipped;
        const std::optional<sched::Checkpoint> ckpt =
            store.load_latest(&skipped);
        result.corrupt_skipped += skipped.size();
        if (!ckpt) {
          result.gave_up = true;  // clean give-up: not a violation
          break;
        }
        if (ckpt->payload_kind != "chaos-tensors") {
          result.violations.push_back(
              {"restore", "checkpoint payload kind mismatch: " +
                              ckpt->payload_kind,
               round});
          break;
        }
        std::vector<int> saved_members;
        std::map<int, std::vector<double>> saved_tensors;
        deserialize_tensors(ckpt->payload, &saved_members, &saved_tensors);
        state.members.clear();
        state.tensors.clear();
        for (const int node : saved_members) {
          if (state.dead.count(node)) continue;  // stayed dead
          state.members.push_back(node);
          state.tensors[node] = std::move(saved_tensors.at(node));
        }
        ++result.restores;
        if (state.members.empty()) {
          result.gave_up = true;
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    // Any escape from the round loop breaks restore-or-clean-give-up.
    result.violations.push_back(
        {"restore", std::string("unhandled exception: ") + e.what(), -1});
  }

  result.virtual_seconds = state.cumulative_virtual;
  result.ok = result.violations.empty();

  config.obs.counter_add("chaos.rounds_completed", result.rounds_completed);
  config.obs.counter_add("chaos.rounds_discarded", result.rounds_discarded);
  config.obs.counter_add("chaos.violations",
                         static_cast<double>(result.violations.size()));
  config.obs.counter_add("chaos.exclusions",
                         static_cast<double>(result.exclusions));
  config.obs.counter_add("chaos.rejoins", static_cast<double>(result.rejoins));
  config.obs.counter_add("chaos.restores",
                         static_cast<double>(result.restores));
  config.obs.counter_add("chaos.typed_errors",
                         static_cast<double>(result.typed_errors));
  return result;
}

ChaosResult run_chaos_seed(const ChaosConfig& config) {
  return run_chaos_schedule(config, make_chaos_schedule(config));
}

ChaosResult check_replay_determinism(const ChaosConfig& config,
                                     const ChaosSchedule& schedule) {
  ChaosResult first = run_chaos_schedule(config, schedule);
  const ChaosResult second = run_chaos_schedule(config, schedule);
  if (first.checksum != second.checksum || first.events != second.events ||
      first.virtual_seconds != second.virtual_seconds ||
      first.rounds_completed != second.rounds_completed) {
    first.ok = false;
    first.violations.push_back(
        {"determinism",
         format("replay diverged: checksum %llx vs %llx, events %llu vs "
                "%llu, virtual %.9g vs %.9g",
                static_cast<unsigned long long>(first.checksum),
                static_cast<unsigned long long>(second.checksum),
                static_cast<unsigned long long>(first.events),
                static_cast<unsigned long long>(second.events),
                first.virtual_seconds, second.virtual_seconds),
         -1});
  }
  return first;
}

ChaosSchedule shrink_schedule(const ChaosConfig& config,
                              const ChaosSchedule& schedule) {
  auto violates = [&config](const ChaosSchedule& candidate) {
    return !run_chaos_schedule(config, candidate).ok;
  };
  ChaosSchedule current = schedule;
  if (!violates(current)) return current;

  bool shrunk = true;
  while (shrunk && current.faults.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.faults.size(); ++i) {
      ChaosSchedule candidate = current;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (violates(candidate)) {
        current = std::move(candidate);
        shrunk = true;
        break;  // restart the scan over the smaller schedule
      }
    }
  }
  return current;
}

}  // namespace cannikin::chaos
