// In-process "process group": the communication substrate that plays the
// role NCCL/Gloo play for PyTorch DDP in the paper.
//
// A ProcessGroup is a façade over a pluggable comm::Backend (backend.h):
//
//   * BackendKind::kThread (default, the legacy runtime) -- one mailbox
//     and one comm progress thread (ProgressEngine) per rank; worker
//     threads drive Communicator handles, async collectives overlap
//     with compute on the progress threads, wall-clock delivery delays.
//
//   * BackendKind::kEvent -- rank virtualization: collectives are
//     coroutines multiplexed on a discrete-event scheduler in virtual
//     time (event_backend.h), scaling the same API to thousands of
//     virtual ranks.
//
// The API is backend-independent: Communicator send/recv/barrier and
// the async_* collectives (collectives.h) behave identically, message
// tags come from the per-rank deterministic TagAllocator either way,
// and the same sim::FabricModel (GroupOptions::fabric) supplies
// delivery delays to both backends.
//
// Fault tolerance (mirroring the NCCL watchdog / comm-abort protocol
// real DDP relies on): the group carries an optional timeout, fixed at
// construction, applied to every blocking receive and barrier, and an
// abort() that wakes every blocked rank, fails every pending Work and
// poisons all subsequent calls. A worker that dies mid-collective
// therefore converts a would-be deadlock into a CommTimeoutError on its
// peers within the configured deadline; the first peer to notice calls
// abort() and the whole group unwinds with CommAbortedError instead of
// hanging.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/backend.h"
#include "comm/tag_allocator.h"
#include "comm/work.h"

namespace cannikin::comm {

class Communicator;
class EventBackend;

/// A group of `size` ranks sharing an in-process message fabric.
/// Thread-safe: each rank's Communicator may be driven by its own thread.
class ProcessGroup {
 public:
  /// Thread backend, no fabric delays. `timeout_seconds` <= 0
  /// disables the deadline; a positive value bounds every
  /// recv()/barrier().
  explicit ProcessGroup(int size, double timeout_seconds = 0.0);

  /// Backend, timeout, network model and retry policy chosen via
  /// options, fixed for the group's lifetime.
  explicit ProcessGroup(const GroupOptions& options);

  /// Aborts (failing any still-pending Works) and tears the backend
  /// down (the thread backend joins its progress threads). All
  /// outstanding Works should be waited before destruction; the abort
  /// is a safety net, not a substitute.
  ~ProcessGroup();

  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  int size() const { return size_; }

  /// Retries and drops of point-to-point sends so far (see
  /// GroupOptions::retry).
  RetryStats retry_stats() const;

  /// Attaches an instrumentation scope to the group: every rank's comm
  /// operations are traced onto row obs::kCommTidBase + rank (virtual
  /// timestamps on the event backend), and Communicator::scope()
  /// derives worker scopes from it. Call before spawning worker
  /// threads.
  void set_scope(obs::Scope scope);

  /// Irreversibly poisons the group: every rank blocked in recv() or
  /// barrier() wakes with CommAbortedError, every pending (queued)
  /// Work fails without running, and every subsequent
  /// send/recv/barrier/collective fails immediately. Safe to call from any
  /// thread and idempotent -- this is the comm-abort path a watchdog
  /// takes when one worker is known dead.
  void abort();
  bool aborted() const;

  /// Returns the communicator handle for `rank`; the handle borrows the
  /// group, which must outlive it.
  Communicator communicator(int rank);

  /// The deterministic per-rank tag allocator for `rank`.
  TagAllocator& tags(int rank);

  /// The backend this group runs on.
  Backend& backend() { return *backend_; }
  BackendKind backend_kind() const { return backend_->kind(); }

  /// The event backend's scale-mode controls (post / inject_fault /
  /// run_until_idle), or nullptr on the thread backend.
  EventBackend* event_backend();

 private:
  friend class Communicator;

  void send(int src, int dst, std::uint64_t tag, Payload payload,
            const char* op);
  Payload recv(int dst, int src, std::uint64_t tag, const char* op);

  int size_;
  obs::Scope scope_;  ///< set before workers spawn
  std::vector<TagAllocator> tag_allocators_;
  std::unique_ptr<Backend> backend_;
};

/// Rank-local handle used to communicate within a ProcessGroup.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return group_->size(); }
  bool aborted() const { return group_->aborted(); }

  /// Aborts the whole owning group (ncclCommAbort analogue): wakes
  /// blocked peers, fails pending Works, poisons future calls.
  void abort() { group_->abort(); }

  /// Point-to-point send (copies the payload into the fabric). `op`
  /// names the operation for error attribution (collectives pass their
  /// own name; wire tags are mangled per-phase, so the kind cannot be
  /// recovered from the tag alone).
  void send(int dst, std::uint64_t tag, Payload payload,
            const char* op = "send");

  /// Blocking point-to-point receive of a message with matching tag.
  /// Bounded by the group timeout: throws CommTimeoutError when the
  /// deadline passes and CommAbortedError once the group is aborted;
  /// both errors carry this rank, `op` and the tag.
  Payload recv(int src, std::uint64_t tag, const char* op = "recv");

  /// Blocks until every rank in the group has entered the barrier,
  /// subject to the same timeout/abort semantics as recv().
  void barrier();

  /// The group's instrumentation scope bound to this rank's worker row
  /// (tid == rank). Disabled when the group has no scope attached.
  obs::Scope scope() const { return group_->scope_.for_rank(rank_); }

  /// This rank's tag allocator (deterministic across ranks executing
  /// the same collective sequence).
  TagAllocator& tags() { return group_->tags(rank_); }

  /// The owning group and its backend (collectives dispatch here).
  ProcessGroup& group() const { return *group_; }
  Backend& backend() const { return *group_->backend_; }

 private:
  friend class ProcessGroup;
  Communicator(ProcessGroup* group, int rank) : group_(group), rank_(rank) {}

  ProcessGroup* group_;
  int rank_;
};

}  // namespace cannikin::comm
