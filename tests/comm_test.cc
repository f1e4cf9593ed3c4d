// Unit tests for src/comm: process group, collectives, bucketing.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "comm/bucket.h"
#include "comm/collectives.h"
#include "comm/process_group.h"
#include "common/rng.h"

namespace cannikin::comm {
namespace {

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

TEST(ProcessGroup, BadSizeOrRankThrows) {
  EXPECT_THROW(ProcessGroup(0), CommError);
  ProcessGroup group(2);
  EXPECT_THROW(group.communicator(2), CommError);
  EXPECT_THROW(group.communicator(-1), CommError);
}

TEST(ProcessGroup, SizeAndTimeoutConstructorBuildsAThreadGroup) {
  // ProcessGroup(size, timeout) is GroupOptions{size, timeout} on the
  // thread backend with no fabric: the timeout it was built with bounds
  // both blocking receives and barriers.
  ProcessGroup group(2, /*timeout_seconds=*/0.05);
  EXPECT_EQ(group.size(), 2);
  EXPECT_EQ(group.backend_kind(), BackendKind::kThread);
  EXPECT_EQ(group.event_backend(), nullptr);
  Communicator comm = group.communicator(0);
  EXPECT_THROW(comm.recv(1, 7), CommTimeoutError);
  EXPECT_THROW(comm.barrier(), CommTimeoutError);
  EXPECT_FALSE(group.aborted());
}

TEST(ProcessGroup, PointToPointDelivers) {
  ProcessGroup group(2);
  run_ranks(group, [](int rank, Communicator& comm) {
    if (rank == 0) {
      comm.send(1, 7, {1.0, 2.0, 3.0});
    } else {
      const Payload got = comm.recv(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[2], 3.0);
    }
  });
}

TEST(ProcessGroup, MessagesWithDifferentTagsDoNotMix) {
  ProcessGroup group(2);
  run_ranks(group, [](int rank, Communicator& comm) {
    if (rank == 0) {
      comm.send(1, 1, {1.0});
      comm.send(1, 2, {2.0});
    } else {
      // Receive in reverse send order; tags must route correctly.
      EXPECT_DOUBLE_EQ(comm.recv(0, 2)[0], 2.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 1)[0], 1.0);
    }
  });
}

TEST(ProcessGroup, BarrierSynchronizesAllRanks) {
  ProcessGroup group(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_ranks(group, [&](int, Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 4) violated = true;
    comm.barrier();  // reusable across generations
  });
  EXPECT_FALSE(violated.load());
}

class RingAllReduceSizes : public ::testing::TestWithParam<
                               std::tuple<int /*ranks*/, int /*elements*/>> {};

TEST_P(RingAllReduceSizes, MatchesNaiveSum) {
  const auto [n, elements] = GetParam();
  ProcessGroup group(n);

  std::vector<std::vector<double>> inputs(static_cast<std::size_t>(n));
  Rng rng(static_cast<std::uint64_t>(n * 1000 + elements));
  std::vector<double> expected(static_cast<std::size_t>(elements), 0.0);
  for (int r = 0; r < n; ++r) {
    auto& input = inputs[static_cast<std::size_t>(r)];
    input.resize(static_cast<std::size_t>(elements));
    for (int e = 0; e < elements; ++e) {
      input[static_cast<std::size_t>(e)] = rng.normal();
      expected[static_cast<std::size_t>(e)] +=
          input[static_cast<std::size_t>(e)];
    }
  }

  run_ranks(group, [&](int rank, Communicator& comm) {
    auto data = inputs[static_cast<std::size_t>(rank)];
    ring_all_reduce(comm, std::span<double>(data), 3);
    for (int e = 0; e < elements; ++e) {
      EXPECT_NEAR(data[static_cast<std::size_t>(e)],
                  expected[static_cast<std::size_t>(e)], 1e-9);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRanks, RingAllReduceSizes,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8),
                       ::testing::Values(1, 2, 5, 16, 64, 257)));

TEST(RingAllReduce, BufferSmallerThanRanks) {
  // 5 ranks, 2 elements: most ring segments are empty.
  const int n = 5;
  ProcessGroup group(n);
  run_ranks(group, [&](int rank, Communicator& comm) {
    std::vector<double> data{static_cast<double>(rank), 1.0};
    ring_all_reduce(comm, std::span<double>(data), 1);
    EXPECT_DOUBLE_EQ(data[0], 0.0 + 1.0 + 2.0 + 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(data[1], 5.0);
  });
}

TEST(WeightedRingAllReduce, ComputesWeightedSum) {
  const int n = 3;
  ProcessGroup group(n);
  const std::vector<double> weights{0.5, 0.25, 0.25};
  run_ranks(group, [&](int rank, Communicator& comm) {
    std::vector<double> data{static_cast<double>(rank + 1)};
    weighted_ring_all_reduce(comm, std::span<double>(data),
                             weights[static_cast<std::size_t>(rank)], 9);
    EXPECT_NEAR(data[0], 0.5 * 1 + 0.25 * 2 + 0.25 * 3, 1e-12);
  });
}

TEST(Broadcast, RootValueReachesAll) {
  const int n = 4;
  ProcessGroup group(n);
  run_ranks(group, [&](int rank, Communicator& comm) {
    std::vector<double> data;
    if (rank == 2) data = {3.0, 1.0, 4.0};
    broadcast(comm, data, 2, 11);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_DOUBLE_EQ(data[0], 3.0);
    EXPECT_DOUBLE_EQ(data[2], 4.0);
  });
}

TEST(AllGather, ConcatenatesInRankOrderWithUnevenSizes) {
  const int n = 3;
  ProcessGroup group(n);
  run_ranks(group, [&](int rank, Communicator& comm) {
    // Rank r contributes r+1 copies of value r.
    std::vector<double> mine(static_cast<std::size_t>(rank + 1),
                             static_cast<double>(rank));
    const std::vector<double> all = all_gather(comm, mine, 13);
    const std::vector<double> expected{0.0, 1.0, 1.0, 2.0, 2.0, 2.0};
    EXPECT_EQ(all, expected);
  });
}

TEST(AllReduceScalar, SumsAcrossRanks) {
  const int n = 6;
  ProcessGroup group(n);
  run_ranks(group, [&](int rank, Communicator& comm) {
    const double total =
        all_reduce_scalar(comm, static_cast<double>(rank), 17);
    EXPECT_DOUBLE_EQ(total, 15.0);
  });
}

// ---------------------------------------------------------------- buckets

TEST(MakeBuckets, CoversGradientExactlyOnceInReverseOrder) {
  const auto buckets = make_buckets(10, 4);
  ASSERT_EQ(buckets.size(), 3u);
  // Bucket 0 is the tail of the flat gradient (ready first in backprop).
  EXPECT_EQ(buckets[0].offset, 6u);
  EXPECT_EQ(buckets[0].length, 4u);
  EXPECT_EQ(buckets[1].offset, 2u);
  EXPECT_EQ(buckets[1].length, 4u);
  EXPECT_EQ(buckets[2].offset, 0u);
  EXPECT_EQ(buckets[2].length, 2u);

  std::size_t total = 0;
  for (const auto& b : buckets) total += b.length;
  EXPECT_EQ(total, 10u);
}

TEST(MakeBuckets, EdgeCases) {
  EXPECT_TRUE(make_buckets(0, 4).empty());
  EXPECT_EQ(make_buckets(3, 100).size(), 1u);
  EXPECT_THROW(make_buckets(5, 0), std::invalid_argument);
}

TEST(BucketizedWeightedAllReduce, EqualsSingleWeightedAllReduce) {
  const int n = 4;
  const std::size_t elements = 37;
  ProcessGroup group(n);
  const std::vector<double> weights{0.1, 0.2, 0.3, 0.4};

  std::vector<std::vector<double>> inputs(static_cast<std::size_t>(n));
  Rng rng(77);
  std::vector<double> expected(elements, 0.0);
  for (int r = 0; r < n; ++r) {
    auto& input = inputs[static_cast<std::size_t>(r)];
    for (std::size_t e = 0; e < elements; ++e) {
      input.push_back(rng.normal());
      expected[e] += weights[static_cast<std::size_t>(r)] * input[e];
    }
  }

  const auto buckets = make_buckets(elements, 8);
  run_ranks(group, [&](int rank, Communicator& comm) {
    auto data = inputs[static_cast<std::size_t>(rank)];
    BucketReducer(comm, std::span<double>(data),
                  weights[static_cast<std::size_t>(rank)], buckets, 100)
        .finish();
    for (std::size_t e = 0; e < elements; ++e) {
      EXPECT_NEAR(data[e], expected[e], 1e-10);
    }
  });
}

}  // namespace
}  // namespace cannikin::comm
