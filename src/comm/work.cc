#include "comm/work.h"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace cannikin::comm {

namespace {

/// Where threads sleeping in Work::wait() park: one mutex and condition
/// variable per stripe of Works, so a Work carries neither. A finish()
/// wakes every sleeper of its stripe, so the stripe is a multiplicative
/// hash of the address: consecutive Works (allocated 64 bytes apart)
/// land on different stripes.
struct ParkingLot {
  std::mutex mutex;
  std::condition_variable cv;
};

ParkingLot& parking_lot(const Work* work) {
  constexpr int kStripeBits = 6;
  static ParkingLot lots[1 << kStripeBits];
  const auto address = reinterpret_cast<std::uintptr_t>(work);
  return lots[(address * 0x9e3779b97f4a7c15ULL) >> (64 - kStripeBits)];
}

}  // namespace

bool Work::wait(double timeout_seconds) {
  // An installed hook (event backend) replaces the sleep: the waiting
  // thread pumps the backend's scheduler, which is what completes this
  // Work. The parking path below then returns without blocking.
  if (!is_completed() && wait_hook_ != nullptr &&
      !wait_hook_(wait_context_, *this, timeout_seconds)) {
    return false;
  }
  if (!is_completed()) {
    ParkingLot& lot = parking_lot(this);
    std::unique_lock<std::mutex> lock(lot.mutex);
    // Registering before the re-check pairs with finish()'s store then
    // load (both seq_cst): either finish() sees the sleeper and notifies
    // under the mutex, or this thread sees the completion.
    sleepers_.fetch_add(1);
    const auto done = [&] { return state_.load() != State::kPending; };
    bool completed = true;
    if (timeout_seconds > 0.0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timeout_seconds));
      completed = lot.cv.wait_until(lock, deadline, done);
    } else {
      lot.cv.wait(lock, done);
    }
    sleepers_.fetch_sub(1);
    if (!completed) return false;
  }
  if (const std::exception_ptr error = exception()) {
    std::rethrow_exception(error);
  }
  return true;
}

std::exception_ptr Work::exception() const {
  return state_.load(std::memory_order_acquire) == State::kFailed ? error_
                                                                  : nullptr;
}

void Work::set_wait_hook(WaitHook hook, void* context) {
  wait_hook_ = hook;
  wait_context_ = context;
}

void Work::finish(std::exception_ptr error) {
  const State state = error ? State::kFailed : State::kSucceeded;
  error_ = std::move(error);
  if (wait_hook_ != nullptr) {
    // wait() on a hooked Work returns from the hook completed: no thread
    // ever parks on it.
    state_.store(state, std::memory_order_release);
    return;
  }
  state_.store(state);
  if (sleepers_.load() == 0) return;
  ParkingLot& lot = parking_lot(this);
  { std::lock_guard<std::mutex> lock(lot.mutex); }
  lot.cv.notify_all();
}

ProgressEngine::ProgressEngine(std::exception_ptr poison) {
  if (poison) {
    cancelled_ = true;
    cancel_error_ = std::move(poison);
  }
  thread_ = std::thread([this] { run(); });
}

ProgressEngine::~ProgressEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Orphaned queue entries (submitted after the last wait) must still
    // complete so no Work handle outlives the engine unfinished.
    for (auto& item : queue_) {
      item.work->finish(std::make_exception_ptr(
          std::runtime_error("progress engine: shut down before the "
                            "operation ran")));
    }
    queue_.clear();
  }
  cv_.notify_all();
  thread_.join();
}

WorkPtr ProgressEngine::submit(std::function<void()> op, const char* op_name,
                               int tag) {
  auto work = std::make_shared<Work>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cancelled_) {
      work->finish(cancel_error_);
      return work;
    }
    Item item;
    item.op = std::move(op);
    item.work = work;
    item.op_name = op_name;
    item.tag = tag;
    item.scope = scope_;
    if (scope_.enabled()) item.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(item));
  }
  cv_.notify_all();
  return work;
}

void ProgressEngine::set_scope(obs::Scope scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  scope_ = scope;
}

void ProgressEngine::cancel_pending(std::exception_ptr error) {
  std::deque<Item> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
    cancel_error_ = error;
    cancelled.swap(queue_);
  }
  for (auto& item : cancelled) item.work->finish(error);
  cv_.notify_all();
}

std::size_t ProgressEngine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + in_flight_;
}

void ProgressEngine::run() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    const auto started = std::chrono::steady_clock::now();
    {
      obs::SpanGuard span;
      if (item.scope.tracing()) {
        const double queue_us =
            std::chrono::duration<double, std::micro>(started - item.enqueued)
                .count();
        span = item.scope.span("comm", item.op_name,
                               obs::ArgList()
                                   .add("tag", item.tag)
                                   .add("queue_us", queue_us));
      }
      try {
        item.op();
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (item.scope.metrics() != nullptr) {
      item.scope.counter_add(error ? "comm.ops_failed" : "comm.ops_completed",
                             1.0);
      item.scope.observe(
          "comm.queue_us",
          std::chrono::duration<double, std::micro>(started - item.enqueued)
              .count());
      item.scope.observe(
          "comm.run_us",
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - started)
              .count());
    }
    item.work->finish(std::move(error));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
  }
}

}  // namespace cannikin::comm
