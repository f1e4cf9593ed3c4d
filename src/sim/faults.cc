#include "sim/faults.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/rng.h"

namespace cannikin::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientStraggler:
      return "transient-straggler";
    case FaultKind::kPermanentSlowdown:
      return "permanent-slowdown";
    case FaultKind::kNodeCrash:
      return "node-crash";
    case FaultKind::kNetworkDegrade:
      return "network-degrade";
    case FaultKind::kNodeRecover:
      return "node-recover";
    case FaultKind::kNetworkPartition:
      return "network-partition";
    case FaultKind::kLinkFlaky:
      return "link-flaky";
    case FaultKind::kCheckpointCorrupt:
      return "checkpoint-corrupt";
  }
  // Out-of-range values (corrupted storage, future kinds replayed by an
  // old binary) must not crash a diagnostic path.
  return "unknown";
}

std::string FaultEvent::describe() const {
  char buf[128];
  if (kind == FaultKind::kNodeCrash) {
    std::snprintf(buf, sizeof(buf), "epoch %d: node %d crash", epoch, node);
  } else if (kind == FaultKind::kNodeRecover) {
    std::snprintf(buf, sizeof(buf), "epoch %d: node %d rejoins", epoch, node);
  } else if (kind == FaultKind::kNetworkDegrade) {
    std::snprintf(buf, sizeof(buf), "epoch %d: network %s x%.2f", epoch,
                  severity >= 1.0 ? "recovers" : "degrades", severity);
  } else if (kind == FaultKind::kNetworkPartition) {
    std::snprintf(buf, sizeof(buf), "epoch %d: partition %s (%zu nodes cut)",
                  epoch, severity >= 1.0 ? "heals" : "opens",
                  partition.size());
  } else if (kind == FaultKind::kLinkFlaky) {
    std::snprintf(buf, sizeof(buf), "epoch %d: links %s p=%.2f", epoch,
                  severity <= 0.0 ? "recover" : "flaky", severity);
  } else if (kind == FaultKind::kCheckpointCorrupt) {
    std::snprintf(buf, sizeof(buf), "epoch %d: checkpoint corrupted", epoch);
  } else {
    std::snprintf(buf, sizeof(buf), "epoch %d: node %d %s contention=%.2f",
                  epoch, node,
                  severity >= 1.0 ? "recovers" : fault_kind_name(kind),
                  severity);
  }
  return buf;
}

namespace {

// Kinds that strike the whole fabric rather than one node.
bool is_network_wide(FaultKind kind) {
  return kind == FaultKind::kNetworkDegrade ||
         kind == FaultKind::kNetworkPartition ||
         kind == FaultKind::kLinkFlaky ||
         kind == FaultKind::kCheckpointCorrupt;
}

bool is_transient(FaultKind kind) {
  return kind == FaultKind::kTransientStraggler ||
         kind == FaultKind::kNetworkDegrade ||
         kind == FaultKind::kNetworkPartition ||
         kind == FaultKind::kLinkFlaky;
}

}  // namespace

void FaultInjector::validate(const FaultEvent& event) {
  if (event.epoch < 0) {
    throw std::invalid_argument("FaultInjector: event epoch must be >= 0");
  }
  if (!is_network_wide(event.kind) && event.node < 0) {
    throw std::invalid_argument("FaultInjector: node faults need a node id");
  }
  if (event.kind != FaultKind::kNodeCrash &&
      event.kind != FaultKind::kNetworkPartition &&
      event.kind != FaultKind::kCheckpointCorrupt && event.severity <= 0.0) {
    throw std::invalid_argument("FaultInjector: severity must be positive");
  }
  if (event.duration_epochs > 0 && !is_transient(event.kind)) {
    throw std::invalid_argument(
        "FaultInjector: only transient kinds take a duration");
  }
  if (event.kind == FaultKind::kNetworkPartition) {
    if (event.partition.empty()) {
      throw std::invalid_argument(
          "FaultInjector: a partition needs its minority-side node list");
    }
    if (event.duration_epochs <= 0) {
      throw std::invalid_argument(
          "FaultInjector: a partition needs a heal time (duration_epochs > "
          "0); a never-healing partition is a crash of one side");
    }
  } else if (!event.partition.empty()) {
    throw std::invalid_argument(
        "FaultInjector: only kNetworkPartition carries a partition list");
  }
  if (event.kind == FaultKind::kLinkFlaky &&
      (event.severity <= 0.0 || event.severity > 1.0)) {
    throw std::invalid_argument(
        "FaultInjector: flaky drop probability must be in (0, 1]");
  }
}

void FaultInjector::schedule(const FaultEvent& event) {
  validate(event);

  const auto insert_sorted = [this](FaultEvent e) {
    const auto pos = std::upper_bound(
        events_.begin(), events_.end(), e,
        [](const FaultEvent& a, const FaultEvent& b) {
          return a.epoch < b.epoch;
        });
    events_.insert(pos, std::move(e));
  };

  insert_sorted(event);
  if (is_transient(event.kind) && event.duration_epochs > 0) {
    FaultEvent recovery = event;
    recovery.epoch = event.epoch + event.duration_epochs;
    recovery.duration_epochs = 0;
    if (event.kind == FaultKind::kLinkFlaky) {
      // Drop probability 0 = healthy links; a severity-1.0 marker would
      // read as "drop everything".
      recovery.severity = 0.0;
    } else {
      recovery.severity = 1.0;
      if (event.severity >= 1.0 &&
          event.kind != FaultKind::kNetworkPartition) {
        return;  // onset was already healthy; nothing to undo
      }
    }
    insert_sorted(recovery);
  }
}

FaultInjector FaultInjector::random_scenario(std::uint64_t seed, int num_nodes,
                                             int horizon_epochs,
                                             int num_events) {
  if (num_nodes <= 0 || horizon_epochs <= 1) {
    throw std::invalid_argument("random_scenario: empty cluster or horizon");
  }
  FaultInjector injector;
  Rng rng(seed);
  for (int i = 0; i < num_events; ++i) {
    FaultEvent event;
    event.epoch = static_cast<int>(rng.uniform_int(1, horizon_epochs - 1));
    event.node = static_cast<int>(rng.uniform_int(0, num_nodes - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        event.kind = FaultKind::kTransientStraggler;
        event.severity = rng.uniform(0.3, 0.7);
        event.duration_epochs = static_cast<int>(rng.uniform_int(2, 5));
        break;
      case 1:
        event.kind = FaultKind::kPermanentSlowdown;
        event.severity = rng.uniform(0.4, 0.8);
        break;
      case 2:
        event.kind = FaultKind::kNodeCrash;
        break;
      default:
        event.kind = FaultKind::kNetworkDegrade;
        event.node = -1;
        event.severity = rng.uniform(0.2, 0.6);
        event.duration_epochs = static_cast<int>(rng.uniform_int(2, 5));
        break;
    }
    injector.schedule(event);
  }
  return injector;
}

std::vector<FaultEvent> FaultInjector::due(int epoch) const {
  std::vector<FaultEvent> out;
  for (const auto& event : events_) {
    if (event.epoch == epoch) out.push_back(event);
    if (event.epoch > epoch) break;
  }
  return out;
}

}  // namespace cannikin::sim
