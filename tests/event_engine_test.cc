// Event-engine pins: the exact schedule of a 1024-rank bucketed tree
// round (event count, virtual end time, reduced sums) on a clean and on
// a lossy fabric; one 64-rank round each of the ring all-reduce, a
// broadcast from a non-zero root and an uneven all-gather; the heap
// allocations (count and bytes) of a steady-state tree round at 64 and
// at 1024 ranks; and the channel-table bookkeeping of a long-lived
// group. The 1024-rank golden values were captured on the
// std::function / std::map engine that preceded the typed-record
// engine, the 64-rank ones on the hand-written per-collective state
// machines that preceded the shared coroutine bodies, so any change to
// the (time, seq) pop order, the event count, the delivery plan or a
// body's send/receive order shows up here as a mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "comm/collectives.h"
#include "comm/event_backend.h"
#include "comm/process_group.h"
#include "comm/tag_allocator.h"
#include "comm/work.h"
#include "sim/cluster_factory.h"

// Counts every heap allocation in this binary and its bytes, so a test
// can pin what a steady-state collective round allocates.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cannikin::comm {
namespace {

constexpr int kRanks = 1024;
constexpr int kBuckets = 4;
constexpr std::size_t kElements = 64;

struct RoundResult {
  EventStats stats;
  RetryStats retry;
  std::size_t completed = 0;  ///< works that finished without error
  long exact = 0;             ///< elements equal to the serial sum
  double checksum = 0.0;      ///< sum of every element on every rank
};

// Small integers: every partial sum is exact in double, so a completed
// rank holds exactly the serial sum regardless of reduction order.
double element(int rank, int bucket, std::size_t e) {
  return static_cast<double>((rank * 31 + bucket * 7 + static_cast<int>(e)) %
                             16);
}

/// One bucketed tree round at 1024 ranks on the two-speed cluster's
/// fabric. Rank r joins at a fixed, scattered virtual time. A negative
/// `fault_rank` skips the injected fault.
RoundResult run_round(const GroupOptions& options, int fault_rank,
                      double fault_time) {
  ProcessGroup group(options);
  EventBackend* backend = group.event_backend();
  std::vector<std::vector<double>> data(
      static_cast<std::size_t>(kRanks) * kBuckets,
      std::vector<double>(kElements));
  std::vector<double> expected(static_cast<std::size_t>(kBuckets) * kElements);
  for (int rank = 0; rank < kRanks; ++rank) {
    for (int b = 0; b < kBuckets; ++b) {
      for (std::size_t e = 0; e < kElements; ++e) {
        data[static_cast<std::size_t>(rank * kBuckets + b)][e] =
            element(rank, b, e);
        expected[static_cast<std::size_t>(b) * kElements + e] +=
            element(rank, b, e);
      }
    }
  }
  std::vector<WorkPtr> works(data.size());
  for (int rank = 0; rank < kRanks; ++rank) {
    const double join = static_cast<double>((rank * 37) % 101) * 1e-6;
    backend->post(rank, join, [&, rank] {
      Communicator comm = group.communicator(rank);
      for (int b = 0; b < kBuckets; ++b) {
        const auto slot = static_cast<std::size_t>(rank * kBuckets + b);
        works[slot] = async_tree_all_reduce(
            comm, data[slot], comm.tags().next(CollectiveKind::kAllReduce));
      }
    });
  }
  if (fault_rank >= 0) backend->inject_fault(fault_rank, fault_time);

  RoundResult result;
  result.stats = backend->run_until_idle();
  result.retry = group.retry_stats();
  for (std::size_t slot = 0; slot < data.size(); ++slot) {
    const WorkPtr& work = works[slot];
    if (work && work->is_completed() && work->exception() == nullptr) {
      ++result.completed;
    }
    const std::size_t b = slot % kBuckets;
    for (std::size_t e = 0; e < kElements; ++e) {
      result.exact += data[slot][e] == expected[b * kElements + e];
      result.checksum += data[slot][e];
    }
  }
  return result;
}

GroupOptions two_speed_options() {
  GroupOptions options;
  options.size = kRanks;
  options.backend = BackendKind::kEvent;
  options.fabric =
      sim::FabricModel::from_network(sim::two_speed_cluster(kRanks, 2).network);
  return options;
}

// Golden values: captured on the parent engine before the rewrite.
// Virtual times are compared bitwise (hex literals), not within a
// tolerance: the engine must replay the identical (time, seq) order.
TEST(EventEngineSchedule, CleanTreeRoundAtOneThousandRanks) {
  const RoundResult r = run_round(two_speed_options(), -1, 0.0);
  EXPECT_EQ(r.stats.events_processed, 13506u);
  EXPECT_EQ(r.stats.virtual_time, 0x1.0d56772776334p-8);
  EXPECT_EQ(r.stats.works_stranded, 0u);
  EXPECT_EQ(r.completed, static_cast<std::size_t>(kRanks) * kBuckets);
  EXPECT_EQ(r.exact, static_cast<long>(kRanks) * kBuckets *
                         static_cast<long>(kElements));
  EXPECT_EQ(r.checksum, 0x1.ep+30);
  EXPECT_EQ(r.retry.messages, 8184u);
  EXPECT_EQ(r.retry.resends, 0u);
}

TEST(EventEngineSchedule, LossyTreeRoundWithMidRoundFault) {
  // 5% per-attempt drops under a three-attempt retry budget (one
  // message exhausts it), and rank 300 dies at 2 ms, about halfway
  // through the round: half the buckets finish, the rest strand.
  GroupOptions options = two_speed_options();
  options.fabric.faults.enabled = true;
  options.fabric.faults.drop_probability = 0.05;
  options.fabric.faults.seed = 1;
  options.retry.max_attempts = 3;
  options.retry.backoff_initial_seconds = 2e-5;
  options.retry.seed = 9;
  const RoundResult r = run_round(options, 300, 2e-3);
  EXPECT_EQ(r.stats.events_processed, 9399u);
  EXPECT_EQ(r.stats.virtual_time, 0x1.47e0a5b777865p-9);
  EXPECT_EQ(r.stats.works_stranded, 2046u);
  EXPECT_EQ(r.completed, 2048u);
  EXPECT_EQ(r.exact, 131072);
  EXPECT_EQ(r.checksum, 0x1.e14a2dp+29);
  EXPECT_EQ(r.retry.messages, 5106u);
  EXPECT_EQ(r.retry.resends, 279u);
  EXPECT_EQ(r.retry.dropped, 1u);
}

constexpr int kSmall = 64;

GroupOptions small_two_speed_options() {
  GroupOptions options;
  options.size = kSmall;
  options.backend = BackendKind::kEvent;
  options.fabric =
      sim::FabricModel::from_network(sim::two_speed_cluster(kSmall, 2).network);
  return options;
}

/// Posts `launch(rank, comm)` for every rank of `group` at a fixed,
/// scattered virtual join time, drains the queue and returns its
/// stats. Every work `launch` returns must have completed cleanly.
EventStats run_small_round(
    ProcessGroup& group,
    const std::function<WorkPtr(int, Communicator&)>& launch) {
  EventBackend* backend = group.event_backend();
  std::vector<WorkPtr> works(static_cast<std::size_t>(group.size()));
  const double start = backend->virtual_now();
  for (int rank = 0; rank < group.size(); ++rank) {
    const double join =
        start + static_cast<double>((rank * 37) % 101) * 1e-6;
    backend->post(rank, join, [&, rank] {
      Communicator comm = group.communicator(rank);
      works[static_cast<std::size_t>(rank)] = launch(rank, comm);
    });
  }
  const EventStats stats = backend->run_until_idle();
  for (const WorkPtr& work : works) {
    EXPECT_TRUE(work && work->is_completed() && work->exception() == nullptr);
  }
  return stats;
}

TEST(EventEngineSchedule, WeightedRingRoundAtSixtyFourRanks) {
  // 100 elements over 64 ranks: uneven ring segments (36 of length 2,
  // 28 of length 1). Weight 0.5 keeps every partial sum exact.
  constexpr std::size_t kLength = 100;
  ProcessGroup group(small_two_speed_options());
  std::vector<std::vector<double>> data(kSmall, std::vector<double>(kLength));
  std::vector<double> expected(kLength);
  for (int rank = 0; rank < kSmall; ++rank) {
    for (std::size_t e = 0; e < kLength; ++e) {
      data[static_cast<std::size_t>(rank)][e] = element(rank, 0, e);
      expected[e] += 0.5 * element(rank, 0, e);
    }
  }
  const EventStats stats = run_small_round(group, [&](int rank,
                                                      Communicator& comm) {
    return async_weighted_ring_all_reduce(
        comm, data[static_cast<std::size_t>(rank)], 0.5,
        comm.tags().next(CollectiveKind::kAllReduce));
  });
  EXPECT_EQ(stats.events_processed, 8192u);
  EXPECT_EQ(stats.virtual_time, 0x1.a3893d9e1ea29p-8);
  EXPECT_EQ(stats.open_channels, 0u);
  for (const auto& reduced : data) ASSERT_EQ(reduced, expected);
  EXPECT_EQ(group.retry_stats().messages, 8064u);
}

TEST(EventEngineSchedule, BroadcastFromNonZeroRootAtSixtyFourRanks) {
  constexpr int kRoot = 37;
  const std::vector<double> payload{1.5, -2.25, 3.0, 0.0, 7.75,
                                    -8.5, 9.125, 10.0, -11.0};
  ProcessGroup group(small_two_speed_options());
  std::vector<std::vector<double>> data(kSmall);
  data[kRoot] = payload;
  const EventStats stats = run_small_round(group, [&](int rank,
                                                      Communicator& comm) {
    return async_broadcast(comm, &data[static_cast<std::size_t>(rank)], kRoot,
                           comm.tags().next(CollectiveKind::kBroadcast));
  });
  EXPECT_EQ(stats.events_processed, 191u);
  EXPECT_EQ(stats.virtual_time, 0x1.75a7cb2b4f1d9p-12);
  EXPECT_EQ(stats.open_channels, 0u);
  for (const auto& received : data) ASSERT_EQ(received, payload);
  EXPECT_EQ(group.retry_stats().messages, 63u);
}

TEST(EventEngineSchedule, UnevenAllGatherAtSixtyFourRanks) {
  // Rank r contributes r % 5 elements, so some ranks send nothing.
  ProcessGroup group(small_two_speed_options());
  std::vector<std::vector<double>> parts(kSmall);
  std::vector<double> expected;
  for (int rank = 0; rank < kSmall; ++rank) {
    for (int e = 0; e < rank % 5; ++e) {
      parts[static_cast<std::size_t>(rank)].push_back(rank * 10.0 + e);
      expected.push_back(rank * 10.0 + e);
    }
  }
  std::vector<std::vector<double>> gathered(kSmall);
  const EventStats stats = run_small_round(group, [&](int rank,
                                                      Communicator& comm) {
    const auto r = static_cast<std::size_t>(rank);
    return async_all_gather(comm, &parts[r], &gathered[r],
                            comm.tags().next(CollectiveKind::kAllGather));
  });
  EXPECT_EQ(stats.events_processed, 4160u);
  EXPECT_EQ(stats.virtual_time, 0x1.a9fbe76c8b43ep-9);
  EXPECT_EQ(stats.open_channels, 0u);
  for (const auto& out : gathered) ASSERT_EQ(out, expected);
  EXPECT_EQ(group.retry_stats().messages, 4032u);
}

struct Allocations {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Heap allocations of the last of three bucketed tree rounds on one
/// warm group (slabs, channel table and payload pool at their
/// high-water marks), each round driven by run_small_round.
Allocations warm_round_allocations(ProcessGroup& group) {
  constexpr int kRounds = 3;
  const auto n = static_cast<std::size_t>(group.size());
  std::vector<std::vector<double>> data(n * kBuckets,
                                        std::vector<double>(kElements, 1.0));
  Allocations allocations;
  for (int round = 0; round < kRounds; ++round) {
    const Allocations before{g_allocations.load(std::memory_order_relaxed),
                             g_allocated_bytes.load(std::memory_order_relaxed)};
    run_small_round(group, [&](int rank, Communicator& comm) {
      WorkPtr last;
      for (int b = 0; b < kBuckets; ++b) {
        const auto slot = static_cast<std::size_t>(rank * kBuckets + b);
        std::fill(data[slot].begin(), data[slot].end(), 1.0);
        last = async_tree_all_reduce(
            comm, data[slot], comm.tags().next(CollectiveKind::kAllReduce));
      }
      return last;
    });
    allocations = {
        g_allocations.load(std::memory_order_relaxed) - before.count,
        g_allocated_bytes.load(std::memory_order_relaxed) - before.bytes};
  }
  for (const auto& reduced : data) {
    EXPECT_EQ(reduced,
              std::vector<double>(kElements, static_cast<double>(n)));
  }
  return allocations;
}

// A warm group allocates once per collective per rank (its 48-byte
// Work: state, exception and wait hook plus the shared_ptr control
// block), plus the harness's own closures (one per rank) and work
// vector; machines, event records and payloads come from pools. The
// byte budget catches a per-collective record growing back.
TEST(EventEngineAllocations, SteadyStateTreeRoundStaysWithinItsBudget) {
  ProcessGroup group(small_two_speed_options());
  const Allocations allocations = warm_round_allocations(group);
  EXPECT_LE(allocations.count, 321u);  // 64 * 4 + 64 + 1
  EXPECT_LE(allocations.bytes, 15360u);
}

TEST(EventEngineAllocations, SteadyStateTreeRoundAtOneThousandRanks) {
  ProcessGroup group(two_speed_options());
  const Allocations allocations = warm_round_allocations(group);
  EXPECT_LE(allocations.count, 5121u);  // 1024 * 4 + 1024 + 1
  EXPECT_LE(allocations.bytes, 245760u);
}

TEST(EventEngineChannels, LongLivedGroupClosesEveryChannel) {
  // Every (dst, src, tag) channel must close once its message meets its
  // receive, or a long-lived group grows one channel per tag it ever
  // used. Scattered joins exercise both orders: message first (mailbox)
  // and receive first (waiter).
  GroupOptions options;
  options.size = kSmall;
  options.backend = BackendKind::kEvent;
  options.fabric = sim::FabricModel::uniform_latency(1e-6);
  ProcessGroup group(options);
  EventBackend* backend = group.event_backend();
  std::vector<std::vector<double>> data(kSmall);
  for (int round = 0; round < 1000; ++round) {
    const double start = backend->virtual_now();
    for (int rank = 0; rank < kSmall; ++rank) {
      const auto r = static_cast<std::size_t>(rank);
      data[r] = {static_cast<double>(rank), 1.0};
      const double join = start + static_cast<double>((rank * 7) % 13) * 1e-6;
      backend->post(rank, join, [&group, &data, rank, r] {
        Communicator comm = group.communicator(rank);
        async_tree_all_reduce(comm, data[r],
                              comm.tags().next(CollectiveKind::kAllReduce));
      });
    }
    const EventStats stats = backend->run_until_idle();
    ASSERT_EQ(stats.works_stranded, 0u) << "round " << round;
    ASSERT_EQ(stats.open_channels, 0u) << "round " << round;
    ASSERT_EQ(data[kSmall - 1],
              (std::vector<double>{kSmall * (kSmall - 1) / 2.0, kSmall}))
        << "round " << round;
  }
}

TEST(EventEngineChannels, UnmatchedMessagesStayOpenAcrossTheDrain) {
  // A message nobody receives keeps its channel open (and countable);
  // receiving it later closes the channel.
  GroupOptions options;
  options.size = 2;
  options.backend = BackendKind::kEvent;
  ProcessGroup group(options);
  EventBackend* backend = group.event_backend();
  group.communicator(0).send(1, 5, {1.5});
  group.communicator(0).send(1, 6, {2.5});
  EXPECT_EQ(backend->run_until_idle().open_channels, 2u);
  EXPECT_EQ(group.communicator(1).recv(0, 6), std::vector<double>{2.5});
  EXPECT_EQ(backend->run_until_idle().open_channels, 1u);
  EXPECT_EQ(group.communicator(1).recv(0, 5), std::vector<double>{1.5});
  EXPECT_EQ(backend->run_until_idle().open_channels, 0u);
}

}  // namespace
}  // namespace cannikin::comm
