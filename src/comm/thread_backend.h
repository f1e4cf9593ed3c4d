// ThreadBackend: the original runtime behind ProcessGroup -- one
// mailbox per rank, one comm progress thread (ProgressEngine) per rank,
// wall-clock message delivery delayed by the shared sim::FabricModel.
// A collective runs its shared coroutine body (transport.h) on the
// rank's progress thread; every receive blocks in the awaiter's
// await_ready(), so the body never suspends.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/transport.h"

namespace cannikin::comm {

namespace detail {

/// Per-rank inbox. Messages are keyed by (source rank, tag); receive
/// blocks until a matching message arrives *and* its delivery time has
/// passed, the timeout expires, or the mailbox is aborted.
class Mailbox {
 public:
  void put(int src, std::uint64_t tag, Payload payload,
           std::chrono::steady_clock::time_point ready_at);
  /// `timeout_seconds` <= 0 waits forever. Throws CommTimeoutError on
  /// deadline expiry and CommAbortedError after abort(). `self_rank`
  /// and `op` (the collective or p2p operation doing the receive) are
  /// included in error messages so a timeout is attributable from the
  /// log alone.
  Payload take(int self_rank, int src, std::uint64_t tag,
               double timeout_seconds, const char* op);
  /// Wakes every blocked take() with CommAbortedError and makes all
  /// future takes fail immediately.
  void abort();

 private:
  struct Message {
    Payload payload;
    std::chrono::steady_clock::time_point ready_at;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  bool aborted_ = false;
  std::map<std::pair<int, std::uint64_t>, std::deque<Message>> queues_;
};

}  // namespace detail

class ThreadBackend final : public Backend {
 public:
  explicit ThreadBackend(const GroupOptions& options);

  /// Aborts (failing any still-pending Works) and joins every progress
  /// thread.
  ~ThreadBackend() override;

  BackendKind kind() const override { return BackendKind::kThread; }

  RetryStats retry_stats() const override;
  void set_scope(obs::Scope scope) override;

  void abort() override;
  bool aborted() const override {
    return aborted_.load(std::memory_order_acquire);
  }

  void send(int src, int dst, std::uint64_t tag, Payload payload,
            const char* op) override;
  Payload recv(int dst, int src, std::uint64_t tag, const char* op) override;
  void barrier(int rank) override;

  WorkPtr run_collective(int rank, CollectiveCall call) override;

 private:
  /// The comm progress thread for `rank` (created on first use).
  ProgressEngine& engine(int rank);

  const int size_;
  const double timeout_seconds_;
  obs::Scope scope_;  ///< guarded by engines_mutex_
  std::atomic<bool> aborted_{false};
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;

  // The delivery model, fixed at construction. LinkFaults timestamps
  // are wall seconds since `epoch_`, matching the clock plan_delivery
  // sees.
  const sim::FabricModel fabric_;
  const sim::RetryPolicy retry_;
  const std::chrono::steady_clock::time_point epoch_;
  // Send-path state, guarded by send_mutex_.
  mutable std::mutex send_mutex_;
  /// Per-(src, dst) message counter for plan_delivery; counts only
  /// messages sent while the fabric is lossy, the only case that reads it.
  std::map<std::pair<int, int>, std::uint64_t> pair_seq_;
  RetryStats retry_stats_;
  obs::Scope retry_scope_;  ///< copy of scope_ for the send path

  // Per-rank progress engines, created lazily under engines_mutex_.
  std::mutex engines_mutex_;
  std::vector<std::unique_ptr<ProgressEngine>> engines_;
  /// Per-rank collective frames, each used only by its rank's engine.
  std::vector<FrameBuffer> frames_;

  // Barrier state (central counter barrier, generation-counted).
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;
  bool barrier_aborted_ = false;
};

}  // namespace cannikin::comm
