// One body per collective algorithm, two drivers.
//
// Each collective (ring all-reduce, tree all-reduce, broadcast,
// all-gather) is written once, in collectives.cc, as a C++20 coroutine
// against the per-rank Transport below. The thread backend drives it on
// the rank's progress thread, where a receive completes synchronously
// (await_ready() does the blocking Mailbox::take), so the body never
// suspends and runs like a blocking function. The event backend drives
// it under the scheduler mutex, where a receive suspends the body until
// the message's delivery event resumes it. One body means one sequence
// of sends, receives and additions, so parity holds by construction.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "comm/backend.h"

namespace cannikin::comm {

/// A collective body: a coroutine that starts suspended before its
/// first statement and is advanced by its driver with resume().
class Collective {
 public:
  struct promise_type;  // collectives.cc

  Collective() = default;
  explicit Collective(std::coroutine_handle<> handle) : handle_(handle) {}
  /// Swaps, so the right-hand side destroys the body this one held.
  Collective& operator=(Collective&& other) noexcept {
    std::swap(handle_, other.handle_);
    return *this;
  }
  ~Collective() {
    if (handle_) handle_.destroy();
  }

  /// Runs the body to its next suspended receive or to its end. An
  /// exception that ends the body propagates out of resume().
  void resume() { handle_.resume(); }
  bool done() const { return handle_.done(); }

 private:
  std::coroutine_handle<> handle_;
};

/// Storage for one rank's collective frames. A rank runs one body at a
/// time, so its successive bodies share one buffer, grown to the largest
/// frame seen: a warm rank runs collectives without allocating.
struct FrameBuffer {
  std::unique_ptr<std::byte[]> bytes;
  std::size_t size = 0;
};

/// One rank's view of the fabric for the length of one collective. It
/// hosts one body at a time.
class Transport {
 public:
  /// `frames` is the rank's; the body's frame lives there until the
  /// body is destroyed, which must happen before the rank's next body
  /// is built.
  Transport(int rank, int size, FrameBuffer& frames,
            const std::atomic<bool>& aborted)
      : rank_(rank), size_(size), frames_(frames), aborted_(aborted) {}
  Transport(const Transport&) = delete;  // a running body refers to it
  Transport& operator=(const Transport&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  virtual void send(int dst, std::uint64_t tag, Payload payload) = 0;

  /// A payload holding a copy of `values` (the event backend reuses
  /// spent buffers).
  virtual Payload payload_of(std::span<const double> values) {
    return Payload(values.begin(), values.end());
  }

  /// Hands a consumed payload's buffer back for reuse.
  virtual void recycle(Payload&&) {}

  /// `co_await recv(src, tag)` yields the next (src, tag) message, held
  /// in `inbox` until the body moves it out. Awaiters carry no payload,
  /// which keeps the bodies' frames small.
  struct Recv {
    Transport& transport;
    int src;
    std::uint64_t tag;

    bool await_ready() { return transport.receive(src, tag); }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    Payload& await_resume() const { return transport.inbox; }
  };
  Recv recv(int src, std::uint64_t tag) { return Recv{*this, src, tag}; }

  /// The payload of the body's latest receive.
  Payload inbox;

 protected:
  ~Transport() = default;

  /// Either moves the next (src, tag) message into `inbox` and returns
  /// true, or registers the body to be resumed once the message is in
  /// `inbox` and returns false (the body then suspends). The
  /// registration precedes the suspension, so a transport must never
  /// resume the body from inside receive().
  virtual bool receive(int src, std::uint64_t tag) = 0;

 private:
  friend struct Collective::promise_type;

  int rank_;
  int size_;
  FrameBuffer& frames_;
  const std::atomic<bool>& aborted_;
};

/// Builds `call`'s body on `transport`, suspended before its first
/// statement. Both arguments must outlive the returned Collective.
Collective collective_body(Transport& transport, const CollectiveCall& call);

/// The algorithm's own name ("ring_all_reduce", "tree_all_reduce",
/// "broadcast", "all_gather"), which attributes wire-level errors.
const char* algorithm_name(CollectiveCall::Algorithm algorithm);

}  // namespace cannikin::comm
