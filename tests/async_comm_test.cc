// Tests for the async comm engine: Work handles, the per-rank progress
// thread, pending-Work cancellation on abort, the TagAllocator, the
// binomial-tree broadcast, the BucketReducer and link latency. The
// stress tests are the TSan targets for concurrent in-flight Works.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/bucket.h"
#include "comm/collectives.h"
#include "comm/process_group.h"
#include "comm/tag_allocator.h"
#include "comm/work.h"

namespace cannikin::comm {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `fn(rank, comm)` on one thread per rank and joins.
template <typename Fn>
void run_ranks(ProcessGroup& group, Fn fn) {
  std::vector<std::thread> threads;
  for (int rank = 0; rank < group.size(); ++rank) {
    threads.emplace_back([&, rank] {
      Communicator comm = group.communicator(rank);
      fn(rank, comm);
    });
  }
  for (auto& t : threads) t.join();
}

// ------------------------------------------------------------ Work basics

TEST(Work, CompletesAndReportsNoError) {
  ProcessGroup group(1);
  Communicator comm = group.communicator(0);
  std::atomic<bool> ran{false};
  WorkPtr work = comm.submit([&] { ran = true; });
  EXPECT_TRUE(work->wait());
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(work->is_completed());
  EXPECT_EQ(work->exception(), nullptr);
}

TEST(Work, WaitRethrowsTheOpError) {
  ProcessGroup group(1);
  Communicator comm = group.communicator(0);
  WorkPtr work =
      comm.submit([] { throw std::runtime_error("op exploded"); });
  EXPECT_THROW(work->wait(), std::runtime_error);
  EXPECT_TRUE(work->is_completed());
  EXPECT_NE(work->exception(), nullptr);
}

TEST(Work, WaitWithDeadlineReturnsFalseWhileOpIsBlocked) {
  // Rank 0's op blocks on a recv that is satisfied only after the
  // deadline-bounded wait has observed "not done yet".
  ProcessGroup group(2);
  Communicator comm0 = group.communicator(0);
  Communicator comm1 = group.communicator(1);
  WorkPtr work = comm0.submit([comm0]() mutable { comm0.recv(1, 3); });
  EXPECT_FALSE(work->wait(0.02));
  EXPECT_FALSE(work->is_completed());
  comm1.send(0, 3, {1.0});
  EXPECT_TRUE(work->wait());
}

TEST(Work, OutOfOrderWaitsObserveFifoExecution) {
  // Ops run in submission order on the progress thread, so waiting the
  // last Work implies every earlier one already ran.
  ProcessGroup group(1);
  Communicator comm = group.communicator(0);
  std::vector<int> order;
  std::vector<WorkPtr> works;
  for (int i = 0; i < 8; ++i) {
    works.push_back(comm.submit([&order, i] { order.push_back(i); }));
  }
  works.back()->wait();
  for (auto& work : works) EXPECT_TRUE(work->is_completed());
  const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expected);  // safe: progress thread is done with them
}

// ---------------------------------------------------- async collectives

TEST(AsyncCollectives, AsyncRingAllReduceMatchesSync) {
  const int n = 4;
  ProcessGroup group(n);
  std::vector<std::vector<double>> data(
      static_cast<std::size_t>(n), std::vector<double>(33));
  run_ranks(group, [&](int rank, Communicator& comm) {
    auto& mine = data[static_cast<std::size_t>(rank)];
    std::iota(mine.begin(), mine.end(), static_cast<double>(rank));
    WorkPtr work = async_ring_all_reduce(comm, std::span<double>(mine), 5);
    work->wait();
  });
  for (std::size_t i = 0; i < 33; ++i) {
    // sum over ranks of (rank + i) = n*i + 0+1+2+3
    const double expected = 4.0 * static_cast<double>(i) + 6.0;
    for (int rank = 0; rank < n; ++rank) {
      EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(rank)][i], expected);
    }
  }
}

TEST(AsyncCollectives, ManyConcurrentInFlightWorksStress) {
  // The TSan target: 4 ranks x 32 in-flight bucket reductions, all
  // submitted before any wait. Each bucket must still sum correctly.
  const int n = 4;
  const int kBuckets = 32;
  const std::size_t kElems = 64;
  ProcessGroup group(n);
  std::vector<std::vector<double>> data(
      static_cast<std::size_t>(n),
      std::vector<double>(kBuckets * kElems, 1.0));
  run_ranks(group, [&](int rank, Communicator& comm) {
    auto& mine = data[static_cast<std::size_t>(rank)];
    const std::uint64_t base =
        comm.tags().block(CollectiveKind::kBucketAllReduce, kBuckets);
    std::vector<WorkPtr> works;
    for (int b = 0; b < kBuckets; ++b) {
      std::span<double> sub(mine.data() + b * kElems, kElems);
      works.push_back(async_ring_all_reduce(
          comm, sub, base + static_cast<std::uint64_t>(b)));
    }
    for (auto& work : works) work->wait();
  });
  for (int rank = 0; rank < n; ++rank) {
    for (double v : data[static_cast<std::size_t>(rank)]) {
      ASSERT_DOUBLE_EQ(v, static_cast<double>(n));
    }
  }
}

// --------------------------------------------------- abort cancellation

TEST(AsyncAbort, AbortCancelsPendingWorksWithoutHanging) {
  // No timeout configured: only abort() can release the in-flight op
  // (blocked in recv) and the works queued behind it.
  ProcessGroup group(2);
  Communicator comm = group.communicator(0);

  std::vector<WorkPtr> works;
  works.push_back(comm.submit([comm]() mutable { comm.recv(1, 9); }));
  for (int i = 0; i < 4; ++i) {
    works.push_back(comm.submit([] {}));  // queued, never reached
  }
  EXPECT_FALSE(works.front()->wait(0.02));

  const auto start = Clock::now();
  std::thread aborter([&group] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    group.abort();
  });
  for (auto& work : works) {
    EXPECT_THROW(work->wait(), CommAbortedError);
    EXPECT_TRUE(work->is_completed());
  }
  aborter.join();
  EXPECT_LT(seconds_since(start), 2.0);  // bounded unwind, no hang

  // The progress thread survives the abort and submit is poisoned.
  WorkPtr late = comm.submit([] {});
  EXPECT_THROW(late->wait(), CommAbortedError);
}

TEST(AsyncAbort, EngineSurvivesFailedOpsAndKeepsServing) {
  ProcessGroup group(1);
  Communicator comm = group.communicator(0);
  WorkPtr bad = comm.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad->wait(), std::runtime_error);
  WorkPtr good = comm.submit([] {});
  EXPECT_TRUE(good->wait());
}

// -------------------------------------------------------- TagAllocator

TEST(TagAllocator, DeterministicAcrossInstances) {
  TagAllocator a, b;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.next(CollectiveKind::kAllGather),
              b.next(CollectiveKind::kAllGather));
    EXPECT_EQ(a.block(CollectiveKind::kBucketAllReduce, 7),
              b.block(CollectiveKind::kBucketAllReduce, 7));
  }
}

TEST(TagAllocator, KindsGetDisjointRanges) {
  TagAllocator tags;
  const std::uint64_t bucket = tags.next(CollectiveKind::kBucketAllReduce);
  const std::uint64_t gather = tags.next(CollectiveKind::kAllGather);
  const std::uint64_t bcast = tags.next(CollectiveKind::kBroadcast);
  EXPECT_NE(bucket, gather);
  EXPECT_NE(gather, bcast);
  EXPECT_NE(bucket, bcast);
  // All tags carry the allocated bit, so they can never collide with
  // small hand-written literals -- even after the ring doubles them.
  EXPECT_NE(bucket & TagAllocator::kAllocatedBit, 0u);
}

TEST(TagAllocator, BlockReservesContiguousTagsAndValidates) {
  TagAllocator tags;
  const std::uint64_t first = tags.block(CollectiveKind::kBucketAllReduce, 3);
  const std::uint64_t after = tags.next(CollectiveKind::kBucketAllReduce);
  EXPECT_EQ(after, first + 3);
  EXPECT_THROW(tags.block(CollectiveKind::kBucketAllReduce, 0),
               std::invalid_argument);
  EXPECT_THROW(
      tags.block(CollectiveKind::kBucketAllReduce, TagAllocator::kMaxPerKind),
      std::overflow_error);
}

TEST(TagAllocator, ResetReplaysTheSameSequence) {
  TagAllocator tags;
  const std::uint64_t first = tags.next(CollectiveKind::kScalar);
  tags.next(CollectiveKind::kScalar);
  tags.reset();
  EXPECT_EQ(tags.next(CollectiveKind::kScalar), first);
}

// ------------------------------------------- binomial-tree broadcast

class BroadcastShapes : public ::testing::TestWithParam<
                            std::tuple<int /*ranks*/, int /*root*/>> {};

TEST_P(BroadcastShapes, RootValueReachesEveryRank) {
  const auto [n, root] = GetParam();
  ProcessGroup group(n);
  std::atomic<int> correct{0};
  run_ranks(group, [&, root = root](int rank, Communicator& comm) {
    std::vector<double> data;
    if (rank == root) data = {3.5, -1.0, 7.25};
    broadcast(comm, data, root, 11);
    if (data == std::vector<double>({3.5, -1.0, 7.25})) ++correct;
  });
  EXPECT_EQ(correct.load(), n);
}

// Non-power-of-two group sizes exercise the tree's ragged last level.
INSTANTIATE_TEST_SUITE_P(
    NonPowerOfTwo, BroadcastShapes,
    ::testing::Values(std::make_tuple(3, 0), std::make_tuple(3, 2),
                      std::make_tuple(5, 0), std::make_tuple(5, 3),
                      std::make_tuple(6, 5), std::make_tuple(7, 1),
                      std::make_tuple(8, 6)));

TEST(Broadcast, BadRootThrows) {
  ProcessGroup group(2);
  Communicator comm = group.communicator(0);
  std::vector<double> data{1.0};
  EXPECT_THROW(broadcast(comm, data, 2, 1), CommError);
  EXPECT_THROW(broadcast(comm, data, -1, 1), CommError);
}

// --------------------------------------------------------- BucketReducer

TEST(BucketReducerTest, MatchesSingleWeightedAllReduce) {
  const int n = 3;
  const std::size_t elems = 100;
  ProcessGroup group(n);
  const auto buckets = make_buckets(elems, 16);
  std::vector<std::vector<double>> reduced(
      static_cast<std::size_t>(n), std::vector<double>(elems));
  run_ranks(group, [&](int rank, Communicator& comm) {
    auto& mine = reduced[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < elems; ++i) {
      mine[i] = static_cast<double>(rank + 1) * static_cast<double>(i);
    }
    const double weight = 0.25;
    const std::uint64_t base =
        comm.tags().block(CollectiveKind::kBucketAllReduce, buckets.size());
    BucketReducer reducer(comm, std::span<double>(mine), weight, buckets,
                          base);
    // Mark ranges that deliberately straddle bucket boundaries, in the
    // tail-first order backward would produce.
    reducer.mark_ready(60, 40);
    reducer.mark_ready(25, 35);
    reducer.mark_ready(0, 25);
    const auto stats = reducer.finish();
    EXPECT_EQ(stats.num_buckets, buckets.size());
    EXPECT_EQ(stats.buckets_overlapped, buckets.size());
    EXPECT_GE(stats.total_comm_seconds, 0.0);
    EXPECT_GE(stats.last_bucket_seconds, 0.0);
    EXPECT_LE(stats.last_bucket_seconds, stats.total_comm_seconds + 1e-12);
  });
  // Element i: sum over ranks of 0.25 * (rank+1) * i = 0.25 * 6 * i.
  for (int rank = 0; rank < n; ++rank) {
    for (std::size_t i = 0; i < elems; ++i) {
      EXPECT_NEAR(reduced[static_cast<std::size_t>(rank)][i],
                  1.5 * static_cast<double>(i), 1e-9);
    }
  }
}

TEST(BucketReducerTest, FinishLaunchesBucketsNeverMarked) {
  // A rank with an empty local batch marks nothing; finish() must still
  // contribute its (zero) gradient to every bucket.
  const int n = 2;
  const std::size_t elems = 10;
  ProcessGroup group(n);
  const auto buckets = make_buckets(elems, 4);
  std::vector<std::vector<double>> reduced(
      static_cast<std::size_t>(n), std::vector<double>(elems));
  run_ranks(group, [&](int rank, Communicator& comm) {
    auto& mine = reduced[static_cast<std::size_t>(rank)];
    const double weight = rank == 0 ? 1.0 : 0.0;
    if (rank == 0) mine.assign(elems, 2.0);
    const std::uint64_t base =
        comm.tags().block(CollectiveKind::kBucketAllReduce, buckets.size());
    BucketReducer reducer(comm, std::span<double>(mine), weight, buckets,
                          base);
    if (rank == 0) reducer.mark_ready(0, elems);
    const auto stats = reducer.finish();
    if (rank == 0) {
      EXPECT_EQ(stats.buckets_overlapped, buckets.size());
    } else {
      EXPECT_EQ(stats.buckets_overlapped, 0u);
    }
  });
  for (int rank = 0; rank < n; ++rank) {
    for (double v : reduced[static_cast<std::size_t>(rank)]) {
      EXPECT_DOUBLE_EQ(v, 2.0);
    }
  }
}

TEST(BucketReducerTest, DoubleMarkAndMisuseThrow) {
  ProcessGroup group(1);
  Communicator comm = group.communicator(0);
  std::vector<double> grad(8, 1.0);
  const auto buckets = make_buckets(grad.size(), 4);
  BucketReducer reducer(comm, std::span<double>(grad), 1.0, buckets, 100);
  reducer.mark_ready(4, 4);
  EXPECT_THROW(reducer.mark_ready(4, 4), std::invalid_argument);
  EXPECT_THROW(reducer.mark_ready(6, 4), std::out_of_range);
  reducer.finish();
  EXPECT_THROW(reducer.finish(), std::logic_error);
  EXPECT_THROW(reducer.mark_ready(0, 4), std::logic_error);
}

TEST(BucketReducerTest, BucketBeyondGradientThrows) {
  ProcessGroup group(1);
  Communicator comm = group.communicator(0);
  std::vector<double> grad(4, 1.0);
  const std::vector<Bucket> bad{{2, 4}};
  EXPECT_THROW(
      BucketReducer(comm, std::span<double>(grad), 1.0, bad, 1),
      std::out_of_range);
}

// --------------------------------------------------------- link latency

TEST(LinkLatency, DelaysDeliveryWithoutBusyWaiting) {
  ProcessGroup group(2);
  group.set_fabric(sim::FabricModel::uniform_latency(0.05));
  run_ranks(group, [&](int rank, Communicator& comm) {
    if (rank == 0) {
      comm.send(1, 4, {9.0});
    } else {
      const auto start = Clock::now();
      const Payload got = comm.recv(0, 4);
      EXPECT_GE(seconds_since(start), 0.03);  // send happened "instantly"
      EXPECT_DOUBLE_EQ(got[0], 9.0);
    }
  });
}

TEST(LinkLatency, AsyncWorkHidesLatencyBehindCompute) {
  // The point of the whole engine, in miniature: with the reduce in
  // flight on the progress thread, compute of comparable duration runs
  // concurrently and the total is well under the serial sum.
  const int n = 2;
  const double latency = 0.02;
  ProcessGroup group(n);
  group.set_fabric(sim::FabricModel::uniform_latency(latency));
  std::atomic<int> hidden{0};
  run_ranks(group, [&](int rank, Communicator& comm) {
    (void)rank;
    std::vector<double> data(8, 1.0);
    const auto start = Clock::now();
    WorkPtr work = async_ring_all_reduce(comm, std::span<double>(data), 21);
    // "Backward compute": sleep while the reduce rides the link.
    std::this_thread::sleep_for(std::chrono::milliseconds(35));
    work->wait();
    // Serial execution would need >= 35ms + 2 latency hops (40ms+).
    if (seconds_since(start) < 0.055) ++hidden;
  });
  EXPECT_EQ(hidden.load(), n);
}

}  // namespace
}  // namespace cannikin::comm
