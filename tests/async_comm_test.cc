// Tests for the async comm engine: Work handles, the per-rank progress
// thread, pending-Work cancellation on abort, the TagAllocator, the
// binomial-tree broadcast, the BucketReducer and link latency. The
// stress tests are the TSan targets for concurrent in-flight Works.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
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
// Each Work is finished by a ProgressEngine's thread, never by the
// thread waiting on it.

TEST(Work, CompletesAndReportsNoError) {
  ProgressEngine engine;
  std::atomic<bool> ran{false};
  WorkPtr work = engine.submit([&] { ran = true; });
  EXPECT_TRUE(work->wait());
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(work->is_completed());
  EXPECT_EQ(work->exception(), nullptr);
}

TEST(Work, WaitRethrowsTheOpError) {
  ProgressEngine engine;
  WorkPtr work =
      engine.submit([] { throw std::runtime_error("op exploded"); });
  EXPECT_THROW(work->wait(), std::runtime_error);
  EXPECT_TRUE(work->is_completed());
  EXPECT_NE(work->exception(), nullptr);
}

TEST(Work, WaitWithDeadlineReturnsFalseWhileOpIsBlocked) {
  // The op blocks until it is released, which happens only after the
  // deadline-bounded wait has observed "not done yet". The promise is
  // destroyed before the engine, so a failing test cannot hang the
  // engine's join.
  ProgressEngine engine;
  std::promise<void> release;
  WorkPtr work = engine.submit(
      [released = release.get_future().share()] { released.wait(); });
  EXPECT_FALSE(work->wait(0.02));
  EXPECT_FALSE(work->is_completed());
  release.set_value();
  EXPECT_TRUE(work->wait());
}

TEST(Work, OutOfOrderWaitsObserveFifoExecution) {
  // Collectives run in issue order on a rank's progress thread: rank 0
  // queues eight before its peer joins, each one begins only after the
  // one before it ended, and waiting the last Work implies every
  // earlier one already ran.
  constexpr int kOps = 8;
  ProcessGroup group(2);
  Communicator comm0 = group.communicator(0);
  std::vector<std::vector<double>> data(kOps, std::vector<double>{1.0});
  std::vector<std::shared_ptr<OpTimes>> times;
  std::vector<WorkPtr> works;
  for (int i = 0; i < kOps; ++i) {
    times.push_back(std::make_shared<OpTimes>());
    works.push_back(comm0.backend().run_collective(
        0, {.tag = static_cast<std::uint64_t>(i + 1),
            .op_name = "all_reduce",
            .data = data[static_cast<std::size_t>(i)],
            .times = times.back()}));
  }
  EXPECT_FALSE(works.front()->wait(0.02));  // the peer has not joined
  std::thread peer([&group] {
    Communicator comm1 = group.communicator(1);
    for (int i = 0; i < kOps; ++i) {
      std::vector<double> one{1.0};
      ring_all_reduce(comm1, std::span<double>(one),
                      static_cast<std::uint64_t>(i + 1));
    }
  });
  works.back()->wait();
  for (auto& work : works) EXPECT_TRUE(work->is_completed());
  peer.join();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1]->end_seconds, times[i]->begin_seconds);
  }
  for (const auto& reduced : data) {
    EXPECT_EQ(reduced, std::vector<double>{2.0});
  }
}

TEST(Work, EverySleeperWakesWhenTheOpFinishes) {
  // Two threads park on one Work; completion must wake both.
  ProgressEngine engine;
  std::promise<void> release;
  WorkPtr work = engine.submit(
      [released = release.get_future().share()] { released.wait(); });
  std::atomic<int> woken{0};
  std::vector<std::thread> sleepers;
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([&] {
      if (work->wait(5.0)) ++woken;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.set_value();
  for (auto& t : sleepers) t.join();
  EXPECT_EQ(woken.load(), 2);
}

// Event backend: a collective's Work is completed under the scheduler
// mutex while other threads read it without a lock.

GroupOptions event_options(int size) {
  GroupOptions options;
  options.size = size;
  options.backend = BackendKind::kEvent;
  return options;
}

TEST(EventWork, WorkOutlivesItsProcessGroup) {
  WorkPtr finished;
  WorkPtr unfinished;
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{3.0, 4.0};
  std::vector<double> lone{5.0};
  {
    ProcessGroup group(event_options(2));
    finished = async_ring_all_reduce(group.communicator(0), a, 1);
    WorkPtr peer = async_ring_all_reduce(group.communicator(1), b, 1);
    // Rank 1 never joins this one: it is still pending when the group
    // is destroyed.
    unfinished = async_ring_all_reduce(group.communicator(0), lone, 2);
    EXPECT_TRUE(finished->wait());
    EXPECT_TRUE(peer->wait());
    EXPECT_FALSE(unfinished->is_completed());
  }
  // Neither wait may reach back into the destroyed backend.
  EXPECT_TRUE(finished->is_completed());
  EXPECT_TRUE(finished->wait());
  EXPECT_EQ(finished->exception(), nullptr);
  EXPECT_EQ(a, (std::vector<double>{4.0, 6.0}));
  EXPECT_TRUE(unfinished->is_completed());
  EXPECT_NE(unfinished->exception(), nullptr);
  EXPECT_THROW(unfinished->wait(), CommAbortedError);
  EXPECT_THROW(unfinished->wait(1.0), CommAbortedError);
}

TEST(EventWork, PollingThreadSeesTheCompletionOfAWaitedWork) {
  ProcessGroup group(event_options(2));
  std::vector<double> a{1.0};
  std::vector<double> b{2.0};
  std::vector<double> lone{3.0};
  WorkPtr joined = async_ring_all_reduce(group.communicator(0), a, 1);
  WorkPtr aborted = async_ring_all_reduce(group.communicator(0), lone, 2);

  // A second thread polls both Works while this one waits on them.
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_error{false};
  std::exception_ptr seen_error;  // written by the poller, read after join
  std::thread poller([&] {
    while (!stop.load()) {
      if (joined->is_completed()) EXPECT_EQ(joined->exception(), nullptr);
      if (!saw_error.load() && aborted->is_completed()) {
        seen_error = aborted->exception();
        saw_error = true;
      }
    }
  });

  // Rank 1 has not joined yet: the deadline passes with the op pending.
  EXPECT_FALSE(joined->wait(0.02));
  EXPECT_FALSE(joined->is_completed());
  WorkPtr peer = async_ring_all_reduce(group.communicator(1), b, 1);
  EXPECT_TRUE(joined->wait(5.0));
  EXPECT_TRUE(peer->wait(5.0));
  EXPECT_EQ(a, std::vector<double>{3.0});

  // `aborted` waits behind `joined` on rank 0 and never gets a peer;
  // an abort from a third thread fails it while this thread waits.
  std::thread aborter([&group] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    group.abort();
  });
  EXPECT_THROW(aborted->wait(5.0), CommAbortedError);
  aborter.join();
  const auto start = Clock::now();
  while (!saw_error.load() && seconds_since(start) < 5.0) {
    std::this_thread::yield();
  }
  stop = true;
  poller.join();
  ASSERT_NE(seen_error, nullptr);
  EXPECT_THROW(std::rethrow_exception(seen_error), CommAbortedError);
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
  // No timeout configured: only abort() can release the in-flight
  // collective (blocked in recv: its peer never joins) and the
  // collectives queued behind it.
  ProcessGroup group(2);
  Communicator comm = group.communicator(0);

  std::vector<std::vector<double>> data(5, std::vector<double>{1.0});
  std::vector<WorkPtr> works;
  // The first blocks in recv; the rest queue behind it, never reached.
  for (std::size_t i = 0; i < data.size(); ++i) {
    works.push_back(
        async_ring_all_reduce(comm, std::span<double>(data[i]), 9 + i));
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

  // The progress thread survives the abort and later collectives are
  // poisoned.
  std::vector<double> late_data{1.0};
  WorkPtr late = async_ring_all_reduce(comm, std::span<double>(late_data), 20);
  EXPECT_THROW(late->wait(), CommAbortedError);
}

TEST(AsyncAbort, EngineSurvivesFailedOpsAndKeepsServing) {
  // Rank 0's first collective times out (its peer never joins it); the
  // progress thread fails that Work and then serves the next one.
  ProcessGroup group(2, /*timeout_seconds=*/0.25);
  std::vector<double> lone{1.0};
  WorkPtr bad =
      async_ring_all_reduce(group.communicator(0), std::span<double>(lone), 1);
  EXPECT_THROW(bad->wait(), CommTimeoutError);
  std::vector<std::vector<double>> data(2, std::vector<double>{1.0});
  run_ranks(group, [&](int rank, Communicator& comm) {
    WorkPtr good = async_ring_all_reduce(
        comm, std::span<double>(data[static_cast<std::size_t>(rank)]), 2);
    EXPECT_TRUE(good->wait());
  });
  EXPECT_EQ(data[0], std::vector<double>{2.0});
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
  // Both forms reject a root outside [0, size) at the call, on either
  // backend, before any Work exists.
  for (const BackendKind kind : {BackendKind::kThread, BackendKind::kEvent}) {
    GroupOptions options;
    options.size = 2;
    options.backend = kind;
    ProcessGroup group(options);
    Communicator comm = group.communicator(0);
    std::vector<double> data{1.0};
    EXPECT_THROW(broadcast(comm, data, 2, 1), CommError);
    EXPECT_THROW(broadcast(comm, data, -1, 1), CommError);
    EXPECT_THROW(async_broadcast(comm, &data, 2, 1), CommError);
    EXPECT_THROW(async_broadcast(comm, &data, -1, 1), CommError);
    EXPECT_EQ(data, std::vector<double>{1.0});
  }
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
  GroupOptions options;
  options.size = 2;
  options.fabric = sim::FabricModel::uniform_latency(0.05);
  ProcessGroup group(options);
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
  GroupOptions options;
  options.size = n;
  options.fabric = sim::FabricModel::uniform_latency(latency);
  ProcessGroup group(options);
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
