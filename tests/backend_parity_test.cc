// Cross-backend parity suite: every collective must produce bitwise
// identical tensors on the thread backend (real progress threads, wall
// clock) and the event backend (virtual ranks on the discrete-event
// scheduler), with the same TagAllocator sequences, the same abort /
// timeout unwinding, and -- in pure virtual mode -- a fully
// deterministic event trace. The scale tests at the bottom run the
// collectives at 1k-10k virtual ranks, which only the event backend
// can host.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "comm/bucket.h"
#include "comm/collectives.h"
#include "comm/event_backend.h"
#include "comm/process_group.h"
#include "comm/tag_allocator.h"
#include "comm/work.h"
#include "dnn/data.h"
#include "dnn/model.h"
#include "dnn/parallel_trainer.h"
#include "sim/network.h"

namespace cannikin::comm {
namespace {

ProcessGroup make_group(BackendKind kind, int size,
                        double timeout_seconds = 0.0) {
  GroupOptions options;
  options.size = size;
  options.timeout_seconds = timeout_seconds;
  options.backend = kind;
  return ProcessGroup(options);
}

// Deterministic per-rank test payload: distinct, non-round values so a
// reordering of additions would change the bits.
std::vector<double> rank_payload(int rank, std::size_t size) {
  std::vector<double> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = std::sin(static_cast<double>(rank + 1) * 0.7 +
                       static_cast<double>(i) * 0.13) *
              (rank % 2 == 0 ? 1.0 : -3.7);
  }
  return data;
}

// Runs `fn(rank, comm)` on one thread per rank and joins. Works on both
// backends: on the event backend the blocked threads take turns pumping
// the scheduler.
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

// Submits one async collective per rank from this thread, then waits
// them all -- the single-threaded driving style both backends support.
struct CollectiveResult {
  std::vector<std::vector<double>> buffers;  ///< per-rank reduced data
  std::vector<std::vector<double>> gathered;
};

CollectiveResult run_collectives(BackendKind kind, int size,
                                 std::size_t elements, int root) {
  ProcessGroup group = make_group(kind, size);
  CollectiveResult result;
  result.buffers.resize(static_cast<std::size_t>(size));
  result.gathered.resize(static_cast<std::size_t>(size));
  std::vector<double> scalars(static_cast<std::size_t>(size));
  std::vector<std::vector<double>> bcast(static_cast<std::size_t>(size));
  std::vector<std::vector<double>> tree(static_cast<std::size_t>(size));
  std::vector<WorkPtr> works;

  for (int rank = 0; rank < size; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    result.buffers[r] = rank_payload(rank, elements);
    tree[r] = rank_payload(rank, elements);
    bcast[r] = rank == root ? rank_payload(7, 5) : std::vector<double>{};
    scalars[r] = 0.25 * rank + 0.125;
  }
  for (int rank = 0; rank < size; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    Communicator comm = group.communicator(rank);
    TagAllocator& tags = comm.tags();
    works.push_back(async_weighted_ring_all_reduce(
        comm, result.buffers[r], 1.0 / (rank + 1),
        tags.next(CollectiveKind::kAllReduce)));
    works.push_back(async_tree_all_reduce(
        comm, tree[r], tags.next(CollectiveKind::kAllReduce)));
    works.push_back(async_broadcast(comm, &bcast[r], root,
                                    tags.next(CollectiveKind::kBroadcast)));
    works.push_back(async_all_reduce_scalar(
        comm, &scalars[r], tags.next(CollectiveKind::kScalar)));
  }
  // all_gather uses the per-rank payload *after* reduction would be
  // wrong -- gather the original contribution instead, sized unevenly
  // (empty on rank 0 when `elements` is 0).
  std::vector<std::vector<double>> contributions(
      static_cast<std::size_t>(size));
  for (int rank = 0; rank < size; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    contributions[r] =
        rank_payload(rank, elements + static_cast<std::size_t>(rank));
    Communicator comm = group.communicator(rank);
    works.push_back(async_all_gather(
        comm, &contributions[r], &result.gathered[r],
        comm.tags().next(CollectiveKind::kAllGather)));
  }
  for (auto& work : works) work->wait();

  // Fold the remaining outputs into `buffers` so the caller compares
  // one structure: [reduced | tree | bcast | scalar].
  for (int rank = 0; rank < size; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    auto& buffer = result.buffers[r];
    buffer.insert(buffer.end(), tree[r].begin(), tree[r].end());
    buffer.insert(buffer.end(), bcast[r].begin(), bcast[r].end());
    buffer.push_back(scalars[r]);
  }
  return result;
}

TEST(BackendParity, CollectivesAreBitwiseIdenticalAcrossBackends) {
  for (const int size : {1, 2, 3, 5, 8}) {
    // Element counts: empty, a single element, fewer than the ranks
    // (empty ring segments) and 23, which no group size divides, so
    // ring segments are uneven. Every rank takes a turn as the root.
    for (const std::size_t elements :
         {std::size_t{0}, std::size_t{1}, static_cast<std::size_t>(size - 1),
          std::size_t{23}}) {
      for (int root = 0; root < size; ++root) {
        const CollectiveResult threaded =
            run_collectives(BackendKind::kThread, size, elements, root);
        const CollectiveResult event =
            run_collectives(BackendKind::kEvent, size, elements, root);
        for (int rank = 0; rank < size; ++rank) {
          const auto r = static_cast<std::size_t>(rank);
          ASSERT_EQ(threaded.buffers[r].size(), event.buffers[r].size())
              << "size=" << size << " elements=" << elements
              << " root=" << root << " rank=" << rank;
          for (std::size_t i = 0; i < threaded.buffers[r].size(); ++i) {
            ASSERT_EQ(threaded.buffers[r][i], event.buffers[r][i])
                << "size=" << size << " elements=" << elements
                << " root=" << root << " rank=" << rank << " element=" << i;
          }
          ASSERT_EQ(threaded.gathered[r], event.gathered[r])
              << "size=" << size << " elements=" << elements
              << " root=" << root << " rank=" << rank;
        }
      }
    }
  }
}

TEST(BackendParity, TagSequencesMatchAcrossBackends) {
  // Tags come from the backend-independent per-rank TagAllocator, so
  // running the same collective program must allocate the same wire
  // tags on both backends.
  ProcessGroup threaded = make_group(BackendKind::kThread, 2);
  ProcessGroup event = make_group(BackendKind::kEvent, 2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(threaded.tags(0).next(CollectiveKind::kBucketAllReduce),
              event.tags(0).next(CollectiveKind::kBucketAllReduce));
    EXPECT_EQ(threaded.tags(1).block(CollectiveKind::kScalar, 3),
              event.tags(1).block(CollectiveKind::kScalar, 3));
  }
}

TEST(BackendParity, BucketReducerMatchesAcrossBackends) {
  const std::size_t elements = 37;
  const auto buckets = make_buckets(elements, 10);
  std::vector<std::vector<double>> results[2];
  const BackendKind kinds[] = {BackendKind::kThread, BackendKind::kEvent};
  for (int which = 0; which < 2; ++which) {
    ProcessGroup group = make_group(kinds[which], 3);
    auto& grads = results[which];
    grads.resize(3);
    for (int rank = 0; rank < 3; ++rank) {
      grads[static_cast<std::size_t>(rank)] = rank_payload(rank, elements);
    }
    run_ranks(group, [&](int rank, Communicator& comm) {
      const std::uint64_t base = comm.tags().block(
          CollectiveKind::kBucketAllReduce, buckets.size());
      BucketReducer reducer(comm, grads[static_cast<std::size_t>(rank)],
                            1.0 / (rank + 2), buckets, base);
      // Mark ranges out of order and across bucket boundaries.
      reducer.mark_ready(10, elements - 10);
      reducer.mark_ready(0, 10);
      const BucketReducer::Stats stats = reducer.finish();
      EXPECT_EQ(stats.num_buckets, buckets.size());
      EXPECT_GE(stats.total_comm_seconds, 0.0);
    });
  }
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(results[0][static_cast<std::size_t>(rank)],
              results[1][static_cast<std::size_t>(rank)])
        << "rank=" << rank;
  }
}

TEST(BackendParity, ParallelTrainerEpochsMatchBitwise) {
  // The full trainer -- bucketized weighted all-reduce, GNS scalar
  // reduces, parameter broadcast -- run for two epochs on each backend
  // must leave bitwise identical parameters.
  const auto dataset = dnn::make_gaussian_mixture(240, 10, 3, 3.5, 42);
  auto factory = [] { return dnn::make_mlp(10, 16, 1, 3); };
  std::vector<double> params[2];
  const BackendKind kinds[] = {BackendKind::kThread, BackendKind::kEvent};
  for (int which = 0; which < 2; ++which) {
    dnn::TrainerOptions options;
    options.num_nodes = 3;
    options.base_lr = 0.05;
    options.lr_scaling = dnn::LrScaling::kNone;
    options.initial_total_batch = 60;
    options.seed = 7;
    options.comm_backend = kinds[which];
    dnn::ParallelTrainer trainer(&dataset, factory, options);
    trainer.run_epoch({30, 20, 10});
    trainer.run_epoch({20, 20, 20});
    params[which] = trainer.params();
  }
  ASSERT_EQ(params[0].size(), params[1].size());
  for (std::size_t i = 0; i < params[0].size(); ++i) {
    ASSERT_EQ(params[0][i], params[1][i]) << "param " << i;
  }
}

TEST(BackendParity, KernelBackendsBitwiseIdenticalTraining) {
  // Parity contract, end to end: two epochs of the full trainer with
  // the naive and the optimized kernel backend must leave bitwise
  // identical parameters -- on both comm backends. Flipping the compute
  // kernels must never change a training trajectory (heap vs arena
  // scratch is checked per kernel in kernel_parity_test).
  const auto dataset = dnn::make_gaussian_mixture(240, 10, 3, 3.5, 42);
  auto factory = [] { return dnn::make_mlp(10, 16, 1, 3); };
  for (const BackendKind comm_kind :
       {BackendKind::kThread, BackendKind::kEvent}) {
    std::vector<std::vector<double>> params;
    for (const dnn::kernels::KernelKind kind :
         {dnn::kernels::KernelKind::kNaive,
          dnn::kernels::KernelKind::kOptimized}) {
      dnn::TrainerOptions options;
      options.num_nodes = 3;
      options.base_lr = 0.05;
      options.lr_scaling = dnn::LrScaling::kNone;
      options.initial_total_batch = 60;
      options.seed = 7;
      options.comm_backend = comm_kind;
      options.kernel_kind = kind;
      dnn::ParallelTrainer trainer(&dataset, factory, options);
      trainer.run_epoch({30, 20, 10});
      trainer.run_epoch({20, 20, 20});
      params.push_back(trainer.params());
    }
    for (std::size_t which = 1; which < params.size(); ++which) {
      ASSERT_EQ(params[which].size(), params[0].size());
      for (std::size_t i = 0; i < params[0].size(); ++i) {
        ASSERT_EQ(params[which][i], params[0][i])
            << "config " << which << " comm backend "
            << static_cast<int>(comm_kind) << " param " << i;
      }
    }
  }
}

// ------------------------------------------------------ fault semantics

TEST(EventBackend, AbortWakesBlockedRecvAndFailsPendingWork) {
  ProcessGroup group = make_group(BackendKind::kEvent, 2);
  Communicator comm0 = group.communicator(0);
  std::vector<double> data = {1.0, 2.0};
  // Rank 0's ring all-reduce can never finish: rank 1 never joins.
  WorkPtr work = async_ring_all_reduce(comm0, data, 42);
  std::thread aborter([&group] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    group.abort();
  });
  EXPECT_THROW(group.communicator(1).recv(0, 99), CommAbortedError);
  aborter.join();
  EXPECT_THROW(work->wait(), CommAbortedError);
  EXPECT_TRUE(group.aborted());
  EXPECT_THROW(comm0.send(1, 5, {1.0}), CommAbortedError);
}

TEST(EventBackend, GroupTimeoutSurfacesAsCommTimeoutError) {
  ProcessGroup group = make_group(BackendKind::kEvent, 2, /*timeout=*/0.05);
  Communicator comm0 = group.communicator(0);
  EXPECT_THROW(comm0.recv(1, 7), CommTimeoutError);
  std::vector<double> data = {1.0};
  WorkPtr work = async_ring_all_reduce(comm0, data, 9);
  EXPECT_THROW(work->wait(), CommTimeoutError);
}

TEST(BackendParity, RecvAfterTimeoutGetsLateMessage) {
  // A timed-out recv must not leave a waiter behind that swallows the
  // next matching message: the retry sees the late send on both
  // backends.
  for (const BackendKind kind : {BackendKind::kThread, BackendKind::kEvent}) {
    ProcessGroup group = make_group(kind, 2, /*timeout=*/0.05);
    Communicator comm0 = group.communicator(0);
    Communicator comm1 = group.communicator(1);
    EXPECT_THROW(comm1.recv(0, 7), CommTimeoutError)
        << "backend " << static_cast<int>(kind);
    comm0.send(1, 7, {42.0});
    EXPECT_EQ(comm1.recv(0, 7), std::vector<double>{42.0})
        << "backend " << static_cast<int>(kind);
  }
}

TEST(EventBackend, BarrierTimesOutWhenARankNeverArrives) {
  ProcessGroup group = make_group(BackendKind::kEvent, 3, /*timeout=*/0.05);
  Communicator comm = group.communicator(0);
  EXPECT_THROW(comm.barrier(), CommTimeoutError);
}

TEST(EventBackend, InjectFaultStrandsPeersAndFailsTheDeadRank) {
  ProcessGroup group = make_group(BackendKind::kEvent, 4);
  EventBackend* backend = group.event_backend();
  ASSERT_NE(backend, nullptr);
  backend->inject_fault(2, 0.0);

  std::vector<std::vector<double>> data(4, std::vector<double>{1.0, 2.0});
  std::vector<WorkPtr> works;
  for (int rank = 0; rank < 4; ++rank) {
    works.push_back(async_ring_all_reduce(
        group.communicator(rank), data[static_cast<std::size_t>(rank)], 3));
  }
  const EventStats stats = backend->run_until_idle();
  EXPECT_GT(stats.works_stranded, 0u);
  EXPECT_THROW(works[2]->wait(), CommError);
  // The survivors strand: rank 2 never forwards its ring segment.
  EXPECT_THROW(works[1]->wait(), CommTimeoutError);
  for (const auto& work : works) EXPECT_TRUE(work->is_completed());
}

// --------------------------------------------------- virtual-time model

TEST(EventBackend, VirtualClockFollowsTheFabricModel) {
  GroupOptions options;
  options.size = 2;
  options.backend = BackendKind::kEvent;
  options.fabric = sim::FabricModel::uniform_latency(0.001);
  ProcessGroup group(options);
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = {10.0, 20.0, 30.0, 40.0};
  WorkPtr wa = async_ring_all_reduce(group.communicator(0), a, 5);
  WorkPtr wb = async_ring_all_reduce(group.communicator(1), b, 5);
  wa->wait();
  wb->wait();
  // Two-rank ring: one reduce-scatter hop plus one all-gather hop, both
  // directions in parallel -- exactly two serialized message delays.
  EXPECT_DOUBLE_EQ(group.event_backend()->virtual_now(), 0.002);
  EXPECT_EQ(a, (std::vector<double>{11.0, 22.0, 33.0, 44.0}));
  EXPECT_EQ(a, b);
}

TEST(EventBackend, PureVirtualModeIsDeterministic) {
  // Same program, two fresh backends: identical tensors, identical
  // event count, identical virtual end time.
  auto run = [](std::vector<std::vector<double>>& out) {
    GroupOptions options;
    options.size = 16;
    options.backend = BackendKind::kEvent;
    options.fabric = sim::FabricModel::uniform_latency(1e-4);
    ProcessGroup group(options);
    EventBackend* backend = group.event_backend();
    out.assign(16, {});
    for (int rank = 0; rank < 16; ++rank) {
      out[static_cast<std::size_t>(rank)] = rank_payload(rank, 11);
      // Stagger the start times: rank r joins at r * 10us.
      backend->post(rank, rank * 1e-5, [&group, &out, rank] {
        async_ring_all_reduce(group.communicator(rank),
                              out[static_cast<std::size_t>(rank)], 1);
      });
    }
    const EventStats stats = backend->run_until_idle();
    EXPECT_EQ(stats.works_stranded, 0u);
    return std::pair<std::uint64_t, double>(stats.events_processed,
                                            stats.virtual_time);
  };
  std::vector<std::vector<double>> first, second;
  const auto stats1 = run(first);
  const auto stats2 = run(second);
  EXPECT_EQ(stats1.first, stats2.first);
  EXPECT_DOUBLE_EQ(stats1.second, stats2.second);
  EXPECT_EQ(first, second);
  for (int rank = 1; rank < 16; ++rank) {
    EXPECT_EQ(first[0], first[static_cast<std::size_t>(rank)]);
  }
}

// ------------------------------------------------------------ at scale

TEST(EventBackendScale, TreeAllReduceAtOneThousandRanks) {
  const int n = 1000;
  GroupOptions options;
  options.size = n;
  options.backend = BackendKind::kEvent;
  options.fabric = sim::FabricModel::uniform_latency(1e-6);
  ProcessGroup group(options);
  EventBackend* backend = group.event_backend();

  std::vector<std::vector<double>> data(static_cast<std::size_t>(n));
  std::vector<WorkPtr> works(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    data[r] = {static_cast<double>(rank), 1.0};
    backend->post(rank, 0.0, [&, rank, r] {
      works[r] = async_tree_all_reduce(group.communicator(rank), data[r], 1);
    });
  }
  const EventStats stats = backend->run_until_idle();
  EXPECT_EQ(stats.works_stranded, 0u);
  const double expected_sum = static_cast<double>(n) * (n - 1) / 2.0;
  for (const int rank : {0, 1, 499, 998, 999}) {
    const auto r = static_cast<std::size_t>(rank);
    ASSERT_TRUE(works[r] && works[r]->is_completed());
    EXPECT_DOUBLE_EQ(data[r][0], expected_sum) << "rank " << rank;
    EXPECT_DOUBLE_EQ(data[r][1], static_cast<double>(n)) << "rank " << rank;
  }
  // Binomial tree: the collective finishes in O(log n) rounds of the
  // 1us link, far under what a 1000-step ring would need.
  EXPECT_LT(stats.virtual_time, 1000 * 1e-6);
}

TEST(EventBackendScale, BroadcastAtTenThousandRanks) {
  const int n = 10000;
  GroupOptions options;
  options.size = n;
  options.backend = BackendKind::kEvent;
  ProcessGroup group(options);
  EventBackend* backend = group.event_backend();

  std::vector<std::vector<double>> data(static_cast<std::size_t>(n));
  data[0] = {3.25, -1.5, 7.75};
  for (int rank = 0; rank < n; ++rank) {
    backend->post(rank, 0.0, [&group, &data, rank] {
      async_broadcast(group.communicator(rank),
                      &data[static_cast<std::size_t>(rank)], 0, 2);
    });
  }
  const EventStats stats = backend->run_until_idle();
  EXPECT_EQ(stats.works_stranded, 0u);
  for (const int rank : {1, 5000, 9999}) {
    EXPECT_EQ(data[static_cast<std::size_t>(rank)], data[0])
        << "rank " << rank;
  }
  EXPECT_GE(stats.events_processed, static_cast<std::uint64_t>(n));
}

// --------------------------------------- partition tolerance parity

// Both backends share the same LinkFaults + RetryPolicy model, so a
// partition that heals inside the retry budget must be invisible to
// the result (identical tensors), and one that never heals must
// surface the identical typed error on every rank.
GroupOptions partition_options(BackendKind kind, double heal_seconds,
                               double timeout_seconds) {
  GroupOptions options;
  options.size = 4;
  options.timeout_seconds = timeout_seconds;
  options.backend = kind;
  options.fabric = sim::FabricModel::uniform_latency(1e-4);
  options.fabric.faults.enabled = true;
  options.fabric.faults.partition_side = {0, 0, 1, 1};
  options.fabric.faults.partition_start_seconds = 0.0;
  options.fabric.faults.partition_heal_seconds = heal_seconds;
  options.retry.max_attempts = 6;
  options.retry.backoff_initial_seconds = 0.005;
  options.retry.backoff_multiplier = 2.0;
  options.retry.jitter_fraction = 0.0;
  options.retry.seed = 5;
  return options;
}

TEST(BackendParity, PartitionThenHealYieldsIdenticalTensors) {
  // Heal at t=0.05: cross-cut frames sent at t~0 are retried at
  // +0.005/.015/.035/.075 and the post-heal attempt delivers. The
  // reduced tensors must match bitwise across backends and equal the
  // fault-free reference.
  std::vector<std::vector<double>> results[2];
  RetryStats stats[2];
  const BackendKind kinds[] = {BackendKind::kThread, BackendKind::kEvent};
  for (int which = 0; which < 2; ++which) {
    ProcessGroup group(partition_options(kinds[which], 0.05, 10.0));
    auto& data = results[which];
    data.resize(4);
    for (int rank = 0; rank < 4; ++rank) {
      data[static_cast<std::size_t>(rank)] = rank_payload(rank, 6);
    }
    run_ranks(group, [&data](int rank, Communicator comm) {
      async_tree_all_reduce(comm, data[static_cast<std::size_t>(rank)], 1)
          ->wait();
    });
    stats[which] = group.retry_stats();
  }

  ProcessGroup clean = make_group(BackendKind::kThread, 4);
  std::vector<std::vector<double>> reference(4);
  for (int rank = 0; rank < 4; ++rank) {
    reference[static_cast<std::size_t>(rank)] = rank_payload(rank, 6);
  }
  run_ranks(clean, [&reference](int rank, Communicator comm) {
    async_tree_all_reduce(comm, reference[static_cast<std::size_t>(rank)], 1)
        ->wait();
  });

  for (int rank = 0; rank < 4; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    EXPECT_EQ(results[0][r], results[1][r]) << "rank " << rank;
    EXPECT_EQ(results[0][r], reference[r]) << "rank " << rank;
  }
  // The partition really was crossed by retransmissions on both sides.
  EXPECT_GT(stats[0].resends, 0u);
  EXPECT_GT(stats[1].resends, 0u);
  EXPECT_EQ(stats[0].dropped, 0u);
  EXPECT_EQ(stats[1].dropped, 0u);
}

TEST(BackendParity, PartitionThatNeverHealsTimesOutIdentically) {
  // heal < 0: the cut outlives the retry budget, cross-cut messages
  // vanish, and every rank of both backends must surface the same
  // typed error -- CommTimeoutError after the group deadline.
  for (const BackendKind kind : {BackendKind::kThread, BackendKind::kEvent}) {
    ProcessGroup group(partition_options(kind, -1.0, 0.5));
    std::vector<std::string> errors(4, "none");
    std::vector<std::vector<double>> data(4);
    for (int rank = 0; rank < 4; ++rank) {
      data[static_cast<std::size_t>(rank)] = rank_payload(rank, 6);
    }
    run_ranks(group, [&](int rank, Communicator comm) {
      const auto r = static_cast<std::size_t>(rank);
      try {
        async_tree_all_reduce(comm, data[r], 1)->wait();
      } catch (const CommTimeoutError&) {
        errors[r] = "timeout";
      } catch (const CommError&) {
        errors[r] = "comm";
      }
    });
    for (int rank = 0; rank < 4; ++rank) {
      EXPECT_EQ(errors[static_cast<std::size_t>(rank)], "timeout")
          << "backend " << static_cast<int>(kind) << " rank " << rank;
    }
  }
}

TEST(BackendParity, LossyAllToAllRetryStatsMatchThePerLinkPlan) {
  // Every rank sends kMessages frames to every peer at once over a
  // lossy fabric fixed at construction. Each link numbers its frames
  // from 0 in send order, so the retransmissions of both backends --
  // the thread backend counting from concurrent sender threads -- must
  // equal the per-link sim::plan_delivery sum.
  constexpr int kRanks = 5;
  constexpr int kMessages = 8;
  constexpr std::size_t kElements = 3;
  GroupOptions base;
  base.size = kRanks;
  base.timeout_seconds = 10.0;
  base.fabric = sim::FabricModel::uniform_latency(1e-5);
  base.fabric.faults.enabled = true;
  base.fabric.faults.drop_probability = 0.3;
  base.fabric.faults.seed = 21;
  base.retry.max_attempts = 12;
  base.retry.backoff_initial_seconds = 1e-5;
  base.retry.seed = 21;

  std::uint64_t expected_resends = 0;
  for (int src = 0; src < kRanks; ++src) {
    for (int dst = 0; dst < kRanks; ++dst) {
      if (src == dst) continue;
      for (int seq = 0; seq < kMessages; ++seq) {
        const sim::DeliveryPlan plan = sim::plan_delivery(
            base.fabric, base.retry, src, dst, kElements * sizeof(double),
            0.0, static_cast<std::uint64_t>(seq));
        ASSERT_TRUE(plan.delivered);
        expected_resends += static_cast<std::uint64_t>(plan.resends);
      }
    }
  }
  ASSERT_GT(expected_resends, 0u);

  for (const BackendKind kind : {BackendKind::kThread, BackendKind::kEvent}) {
    GroupOptions options = base;
    options.backend = kind;
    ProcessGroup group(options);
    run_ranks(group, [&](int rank, Communicator comm) {
      for (int seq = 0; seq < kMessages; ++seq) {
        for (int peer = 0; peer < kRanks; ++peer) {
          if (peer == rank) continue;
          comm.send(peer, static_cast<std::uint64_t>(seq),
                    Payload(kElements, rank * 100.0 + seq));
        }
      }
      for (int peer = 0; peer < kRanks; ++peer) {
        if (peer == rank) continue;
        for (int seq = 0; seq < kMessages; ++seq) {
          EXPECT_EQ(comm.recv(peer, static_cast<std::uint64_t>(seq)),
                    Payload(kElements, peer * 100.0 + seq));
        }
      }
    });
    const RetryStats stats = group.retry_stats();
    EXPECT_EQ(stats.messages,
              static_cast<std::uint64_t>(kRanks * (kRanks - 1) * kMessages))
        << "backend " << static_cast<int>(kind);
    EXPECT_EQ(stats.resends, expected_resends)
        << "backend " << static_cast<int>(kind);
    EXPECT_EQ(stats.dropped, 0u) << "backend " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace cannikin::comm
