// Nonblocking work handles and the per-rank comm progress engine.
//
// This is the shape NCCL / torch::ProcessGroup::Work give PyTorch DDP:
// a collective call returns immediately with a Work handle, a dedicated
// comm progress thread drives the operation to completion, and the
// caller overlaps its remaining compute with the communication before
// waiting on the handle. Operations submitted to one rank's engine
// execute in submission order (NCCL stream semantics); every rank must
// therefore submit matching collective sequences, which the trainers
// guarantee by construction (same model, same bucket layout).
//
// Fault routing: ProcessGroup::abort() fails every queued Work with
// CommAbortedError without running it and poisons future submissions,
// while the op currently executing on the progress thread is unwound
// through the aborted mailboxes. A dead rank therefore converts every
// pending Work on every peer into an error within the comm deadline --
// the progress thread itself never hangs and is joined on shutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/scope.h"

namespace cannikin::comm {

/// Handle to one asynchronous communication operation.
///
/// Completion is one atomic state: finish() stores the exception first
/// and then publishes the state with a release store, so
/// is_completed() and exception() take no lock. A thread that has to
/// sleep in wait() parks on a mutex and condition variable shared by a
/// stripe of Works; finish() touches them only while a thread is
/// parked on this Work.
class Work {
 public:
  /// True once the operation finished (successfully or with an error).
  bool is_completed() const {
    return state_.load(std::memory_order_acquire) != State::kPending;
  }

  /// Blocks until the operation completes, then rethrows its exception
  /// if it failed. `timeout_seconds` <= 0 waits forever. Returns false
  /// if the deadline passed with the operation still pending (the
  /// operation keeps running; wait again or abort the group).
  bool wait(double timeout_seconds = 0.0);

  /// The operation's failure, or nullptr while pending / on success.
  std::exception_ptr exception() const;

  /// Drives a pending Work towards completion on the waiting thread;
  /// returns whether `work` completed within `timeout_seconds` (<= 0
  /// waits forever).
  using WaitHook = bool (*)(void* context, Work& work, double timeout_seconds);

  /// Backend-internal, called before the Work is handed out. wait() on
  /// a pending Work calls `hook(context, *this, timeout)` *instead of*
  /// sleeping: the event backend's hook pumps its scheduler until this
  /// Work completes, so a caller blocked on a virtual-rank collective
  /// drives the simulation forward. wait() calls the hook only while
  /// the Work is pending, and `context` is the backend: a backend that
  /// installs a hook must therefore finish every Work it handed out
  /// before it is destroyed (EventBackend asserts this), after which a
  /// WorkPtr may outlive it.
  void set_wait_hook(WaitHook hook, void* context);

 private:
  friend class ProgressEngine;
  friend class EventBackend;
  enum class State : std::uint8_t { kPending, kSucceeded, kFailed };

  /// Completes the Work; at most once per Work, and only through a
  /// reference that keeps the Work alive until finish() returns.
  void finish(std::exception_ptr error);

  std::atomic<State> state_{State::kPending};
  /// Threads parked in wait(); finish() notifies only when non-zero.
  std::atomic<std::uint32_t> sleepers_{0};
  std::exception_ptr error_;  ///< written once, before state_ is published
  WaitHook wait_hook_ = nullptr;
  void* wait_context_ = nullptr;
};

using WorkPtr = std::shared_ptr<Work>;

/// One rank's comm progress thread: executes submitted operations in
/// FIFO order and completes their Work handles. Owned by ProcessGroup.
class ProgressEngine {
 public:
  /// A non-null `poison` starts the engine in the cancelled state
  /// (group already aborted): every submission fails with it
  /// immediately.
  explicit ProgressEngine(std::exception_ptr poison = nullptr);
  ~ProgressEngine();

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Enqueues `op` for the progress thread; returns its Work handle.
  /// After cancel(), the Work is failed immediately without running.
  /// `op_name` / `tag` label the operation in traces and metrics (the
  /// pointer must outlive the engine -- pass string literals).
  WorkPtr submit(std::function<void()> op, const char* op_name = "op",
                 int tag = 0);

  /// Attaches an instrumentation scope (already bound to this engine's
  /// timeline row). Each executed operation then emits a span with its
  /// op name, tag and time spent queued.
  void set_scope(obs::Scope scope);

  /// Fails every queued (not yet started) Work with `error`, and makes
  /// every future submit() fail the same way. The in-flight operation,
  /// if any, is expected to unwind through the aborted mailboxes. The
  /// thread stays alive and joinable.
  void cancel_pending(std::exception_ptr error);

  /// Queued + in-flight operations (for tests / introspection).
  std::size_t pending() const;

 private:
  struct Item {
    std::function<void()> op;
    WorkPtr work;
    const char* op_name = "op";
    int tag = 0;
    /// Scope stamped at submit() (under mutex_) so a concurrent
    /// set_scope() cannot race the progress thread mid-operation.
    obs::Scope scope;
    std::chrono::steady_clock::time_point enqueued;
  };

  void run();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  obs::Scope scope_;  ///< guarded by mutex_
  std::deque<Item> queue_;
  std::size_t in_flight_ = 0;
  bool cancelled_ = false;
  std::exception_ptr cancel_error_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace cannikin::comm
