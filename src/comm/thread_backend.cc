#include "comm/thread_backend.h"

#include <algorithm>
#include <string>
#include <utility>

#include "comm/transport.h"

namespace cannikin::comm {

namespace detail {

using Clock = std::chrono::steady_clock;

void Mailbox::put(int src, std::uint64_t tag, Payload payload,
                  Clock::time_point ready_at) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[{src, tag}].push_back({std::move(payload), ready_at});
  }
  cv_.notify_all();
}

Payload Mailbox::take(int self_rank, int src, std::uint64_t tag,
                      double timeout_seconds, const char* op) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto key = std::make_pair(src, tag);
  const bool bounded = timeout_seconds > 0.0;
  const auto deadline =
      bounded ? Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(timeout_seconds))
              : Clock::time_point{};
  for (;;) {
    if (aborted_) {
      throw CommAbortedError(std::string(op) + ": process group aborted (rank=" +
                             std::to_string(self_rank) +
                             ", src=" + std::to_string(src) +
                             ", tag=" + std::to_string(tag) + ")");
    }
    const auto it = queues_.find(key);
    if (it != queues_.end() && !it->second.empty()) {
      Message& front = it->second.front();
      const auto now = Clock::now();
      if (front.ready_at <= now) {
        Payload payload = std::move(front.payload);
        it->second.pop_front();
        return payload;
      }
      // Message in flight on the simulated link: sleep until delivery
      // (or the deadline, whichever is first) without burning CPU.
      if (bounded) {
        if (now >= deadline) break;
        cv_.wait_until(lock, std::min(deadline, front.ready_at));
      } else {
        cv_.wait_until(lock, front.ready_at);
      }
      continue;
    }
    if (bounded) {
      if (Clock::now() >= deadline) break;
      cv_.wait_until(lock, deadline);
    } else {
      cv_.wait(lock);
    }
  }
  throw CommTimeoutError(
      std::string(op) + ": rank " + std::to_string(self_rank) +
      " timed out after " + std::to_string(timeout_seconds) +
      "s waiting for message (src=" + std::to_string(src) +
      ", tag=" + std::to_string(tag) + "); peer dead or hung");
}

void Mailbox::abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

}  // namespace detail

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A collective's view of the thread backend from the rank's progress
/// thread: receives block until the message arrives (or the group times
/// out or aborts), so the body never suspends.
struct BlockingTransport final : Transport {
  BlockingTransport(ThreadBackend& backend, int rank, int size,
                    FrameBuffer& frames, const std::atomic<bool>& aborted,
                    const char* op)
      : Transport(rank, size, frames, aborted), backend(backend), op(op) {}

  void send(int dst, std::uint64_t tag, Payload payload) override {
    backend.send(rank(), dst, tag, std::move(payload), op);
  }

  bool receive(int src, std::uint64_t tag) override {
    inbox = backend.recv(rank(), src, tag, op);
    return true;
  }

  ThreadBackend& backend;
  const char* op;  ///< the algorithm's name, for error attribution
};

}  // namespace

ThreadBackend::ThreadBackend(const GroupOptions& options)
    : size_(options.size),
      timeout_seconds_(options.timeout_seconds),
      fabric_(options.fabric),
      retry_(options.retry),
      epoch_(detail::Clock::now()) {
  mailboxes_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  }
  engines_.resize(static_cast<std::size_t>(size_));
  frames_.resize(static_cast<std::size_t>(size_));
}

ThreadBackend::~ThreadBackend() {
  // Safety net for error paths: fail any Work still queued and unblock
  // an op stuck in recv, so joining the progress threads cannot hang.
  // On the success path every engine is idle and this is a flag flip.
  abort();
  engines_.clear();  // joins the progress threads
}

RetryStats ThreadBackend::retry_stats() const {
  std::lock_guard<std::mutex> lock(send_mutex_);
  return retry_stats_;
}

void ThreadBackend::set_scope(obs::Scope scope) {
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    retry_scope_ = scope;
  }
  std::lock_guard<std::mutex> lock(engines_mutex_);
  scope_ = scope;
  for (std::size_t rank = 0; rank < engines_.size(); ++rank) {
    if (engines_[rank]) {
      engines_[rank]->set_scope(
          scope.for_rank(obs::kCommTidBase + static_cast<int>(rank)));
    }
  }
}

void ThreadBackend::abort() {
  aborted_.store(true, std::memory_order_release);
  // Order matters: cancel the engine queues *before* waking blocked
  // ops. The other way round, a progress thread released from recv()
  // could drain (and "successfully" run) queued Works in the window
  // before their cancellation.
  {
    std::lock_guard<std::mutex> lock(engines_mutex_);
    const auto error = std::make_exception_ptr(
        CommAbortedError("pending work cancelled: process group aborted"));
    for (auto& engine : engines_) {
      if (engine) engine->cancel_pending(error);
    }
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_aborted_ = true;
  }
  barrier_cv_.notify_all();
  for (auto& mailbox : mailboxes_) mailbox->abort();
}

ProgressEngine& ThreadBackend::engine(int rank) {
  std::lock_guard<std::mutex> lock(engines_mutex_);
  auto& slot = engines_[static_cast<std::size_t>(rank)];
  if (!slot) {
    std::exception_ptr poison;
    if (aborted()) {
      poison = std::make_exception_ptr(
          CommAbortedError("submit: process group aborted"));
    }
    slot = std::make_unique<ProgressEngine>(std::move(poison));
    if (scope_.enabled()) {
      const obs::Scope engine_scope =
          scope_.for_rank(obs::kCommTidBase + rank);
      engine_scope.thread_name("rank " + std::to_string(rank) + " comm");
      slot->set_scope(engine_scope);
    }
  }
  return *slot;
}

void ThreadBackend::send(int src, int dst, std::uint64_t tag, Payload payload,
                         const char* op) {
  if (aborted()) {
    throw CommAbortedError(std::string(op) + ": process group aborted (rank=" +
                           std::to_string(src) +
                           ", dst=" + std::to_string(dst) +
                           ", tag=" + std::to_string(tag) + ")");
  }
  const auto now_tp = detail::Clock::now();
  sim::DeliveryPlan plan;
  double now = 0.0;
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    now = std::chrono::duration<double>(now_tp - epoch_).count();
    const std::uint64_t seq =
        fabric_.faults.any() ? pair_seq_[{src, dst}]++ : 0;
    plan = sim::plan_delivery(fabric_, retry_, src, dst,
                              payload.size() * sizeof(double), now, seq);
    retry_stats_.record(plan, retry_scope_);
  }
  if (!plan.delivered) return;  // budget exhausted: the message vanishes
  auto ready_at = now_tp;
  if (plan.delivery_seconds > now) {
    ready_at = epoch_ + std::chrono::duration_cast<detail::Clock::duration>(
                            std::chrono::duration<double>(
                                plan.delivery_seconds));
  }
  mailboxes_[static_cast<std::size_t>(dst)]->put(src, tag, std::move(payload),
                                                 ready_at);
}

Payload ThreadBackend::recv(int dst, int src, std::uint64_t tag,
                            const char* op) {
  return mailboxes_[static_cast<std::size_t>(dst)]->take(
      dst, src, tag, timeout_seconds_, op);
}

void ThreadBackend::barrier(int rank) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (barrier_aborted_) {
    throw CommAbortedError("barrier: process group aborted (rank=" +
                           std::to_string(rank) + ")");
  }
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_waiting_ == size_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  const auto released = [&] {
    return barrier_generation_ != generation || barrier_aborted_;
  };
  const double timeout_seconds = timeout_seconds_;
  bool completed = true;
  if (timeout_seconds > 0.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    completed = barrier_cv_.wait_until(lock, deadline, released);
  } else {
    barrier_cv_.wait(lock, released);
  }
  if (barrier_aborted_) {
    throw CommAbortedError("barrier: process group aborted (rank=" +
                           std::to_string(rank) + ")");
  }
  if (!completed) {
    // Withdraw from the unfinished generation so the count stays
    // consistent if the missing rank ever arrives.
    --barrier_waiting_;
    throw CommTimeoutError(
        "barrier: rank " + std::to_string(rank) + " timed out after " +
        std::to_string(timeout_seconds) + "s; some rank never arrived");
  }
}

WorkPtr ThreadBackend::run_collective(int rank, CollectiveCall call) {
  return engine(rank).submit(
      [this, rank, call] {
        if (call.times) call.times->begin_seconds = wall_seconds();
        BlockingTransport transport(*this, rank, size_,
                                    frames_[static_cast<std::size_t>(rank)],
                                    aborted_, algorithm_name(call.algorithm));
        Collective body = collective_body(transport, call);
        body.resume();
        if (call.times) call.times->end_seconds = wall_seconds();
      },
      call.op_name, static_cast<int>(call.tag));
}

}  // namespace cannikin::comm
