// comm::Backend -- the seam between the ProcessGroup/Communicator/Work
// API and the machinery that actually moves bytes.
//
// Two implementations exist (mirroring NCCL-vs-simulator in systems
// like Proteus/DistIR):
//
//   * ThreadBackend -- today's runtime: one mailbox per rank, one comm
//     progress thread (ProgressEngine) per rank, wall-clock delivery
//     delays. Faithful overlap measurement, caps out at tens of ranks.
//
//   * EventBackend -- rank virtualization: collectives are suspended
//     coroutines multiplexed onto one discrete-event queue driven by
//     *virtual* time (sim::FabricModel supplies per-pair delays). The
//     same API runs at 1,000-10,000 virtual ranks because a rank costs
//     a few queue entries, not an OS thread.
//
// Collectives cross the seam as plain data (CollectiveCall) through one
// hook, run_collective(), and both backends run each algorithm's one
// coroutine body (transport.h), so reduced tensors are bitwise
// identical across backends by construction.
//
// Error model (shared by both backends): CommTimeoutError when a peer
// is dead or hung past the group deadline, CommAbortedError after
// abort() poisons the group. Payload is the wire unit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/work.h"
#include "obs/scope.h"
#include "sim/network.h"

namespace cannikin::comm {

using Payload = std::vector<double>;

/// Error raised for invalid rank / size arguments.
class CommError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A blocking receive or barrier exceeded the group's timeout: some
/// peer rank is dead, hung, or has left the collective.
class CommTimeoutError : public CommError {
 public:
  using CommError::CommError;
};

/// The group was abort()ed (by this rank or a peer); the operation did
/// not and will never complete. All further calls on the group fail.
class CommAbortedError : public CommError {
 public:
  using CommError::CommError;
};

enum class BackendKind {
  kThread,  ///< thread-per-rank ProgressEngine, wall-clock delays
  kEvent,   ///< discrete-event scheduler, virtual-time delays
};

/// How a ProcessGroup is built; the timeout, fabric and retry policy
/// are fixed for the group's lifetime. ProcessGroup(size, timeout)
/// maps onto {size, timeout, kThread, fabric-disabled}.
struct GroupOptions {
  int size = 1;
  /// <= 0 disables the deadline on blocking receives and barriers.
  double timeout_seconds = 0.0;
  BackendKind backend = BackendKind::kThread;
  /// Per-pair delivery delays, shared by both backends. Disabled =
  /// immediate delivery (thread backend) / zero-delay events (event
  /// backend). `fabric.faults` carries the lossy-network model
  /// (partition / flaky drops) both backends evaluate at transmission
  /// time.
  sim::FabricModel fabric;
  /// Bounded retry with exponential backoff + seeded jitter on
  /// point-to-point sends. Default max_attempts = 1 is single-shot; a
  /// message whose budget is exhausted vanishes, surfacing the
  /// receiver's CommTimeoutError.
  sim::RetryPolicy retry;
};

/// Cumulative retry/drop accounting for one backend instance. Exported
/// as comm.retry.* metrics when a scope is attached.
struct RetryStats {
  std::uint64_t messages = 0;   ///< point-to-point sends planned
  std::uint64_t resends = 0;    ///< retransmissions beyond 1st attempts
  std::uint64_t dropped = 0;    ///< messages whose retry budget ran out

  /// Counts one planned send, here and in `scope`'s metrics.
  void record(const sim::DeliveryPlan& plan, const obs::Scope& scope) {
    ++messages;
    resends += static_cast<std::uint64_t>(plan.resends);
    if (!plan.delivered) ++dropped;
    if (!scope.enabled()) return;
    if (plan.resends > 0) scope.counter_add("comm.retry.resends", plan.resends);
    if (!plan.delivered) scope.counter_add("comm.retry.dropped", 1);
  }
};

/// Begin/end of one collective on one rank, in seconds. On the thread
/// backend these are wall-clock (steady_clock since an arbitrary
/// epoch); on the event backend they are virtual seconds since the
/// group's creation. Consumers (BucketReducer stats) only ever take
/// differences and compare ends, which is meaningful for either clock.
struct OpTimes {
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
  double seconds() const { return end_seconds - begin_seconds; }
};

/// One rank's part in one collective, as plain data: which algorithm,
/// the caller's buffers and arguments, and how to label the op. The
/// buffers must stay alive and untouched until the op's Work completes.
struct CollectiveCall {
  enum class Algorithm : std::uint8_t {
    kRingAllReduce,  ///< in-place ring sum of `data`, pre-scaled by `weight`
    kTreeAllReduce,  ///< in-place binomial-tree sum of `data`
    kBroadcast,      ///< binomial broadcast of `*vector` from `root`
    kAllGather,      ///< every rank's `*input`, in rank order, into `*vector`
  };
  Algorithm algorithm = Algorithm::kRingAllReduce;
  std::uint64_t tag = 0;
  /// Labels traces and metrics ("all_reduce", "weighted_all_reduce",
  /// "bucket_all_reduce", ...); pass a string literal.
  const char* op_name = "op";
  std::span<double> data{};
  /// Ring pre-scale; skipped bitwise when 1.0.
  double weight = 1.0;
  std::vector<double>* vector = nullptr;
  const std::vector<double>* input = nullptr;
  int root = 0;
  /// When set, receives the op's begin/end.
  std::shared_ptr<OpTimes> times{};
};

/// One rank-indexed communication substrate. All methods are
/// thread-safe; `rank` / `src` / `dst` are validated by the owning
/// ProcessGroup before dispatch. Collectives return immediately with a
/// Work handle; every rank must issue matching collective sequences
/// with matching tags (the per-rank deterministic TagAllocator
/// guarantees this and is backend-independent).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;

  virtual RetryStats retry_stats() const = 0;
  virtual void set_scope(obs::Scope scope) = 0;

  /// Irreversibly poisons the backend: wakes every blocked operation
  /// with CommAbortedError, fails every pending Work, and makes all
  /// subsequent calls fail. Idempotent, callable from any thread.
  virtual void abort() = 0;
  virtual bool aborted() const = 0;

  /// Point-to-point: send never blocks; recv blocks (subject to the
  /// group timeout) until a matching (src, tag) message is delivered.
  virtual void send(int src, int dst, std::uint64_t tag, Payload payload,
                    const char* op) = 0;
  virtual Payload recv(int dst, int src, std::uint64_t tag,
                       const char* op) = 0;

  /// Blocks until every rank has entered the barrier.
  virtual void barrier(int rank) = 0;

  /// Runs `call` on `rank` behind the rank's earlier ops and returns its
  /// Work at once. Both backends execute the algorithm's one body
  /// (transport.h).
  virtual WorkPtr run_collective(int rank, CollectiveCall call) = 0;
};

}  // namespace cannikin::comm
