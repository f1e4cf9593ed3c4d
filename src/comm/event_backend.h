// EventBackend: rank virtualization. Thousands of virtual ranks share
// one discrete-event scheduler instead of owning OS threads.
//
// Every collective runs the same coroutine body the thread backend runs
// (transport.h), so reduced tensors are bitwise identical across
// backends by construction. Here a receive suspends the body and the
// message event addressed to it resumes it; between messages it costs
// nothing. Virtual time comes from the shared sim::FabricModel: a send
// at virtual time t arrives at t + delay(src, dst, bytes), and the
// scheduler pops events in (time, insertion-seq) order, so a fixed
// program replays the same event sequence every run.
//
// Two driving modes:
//
//   * Pump-on-block (mixed mode). External OS threads (the existing
//     trainers, unchanged) call the same blocking API; any caller that
//     blocks -- recv(), barrier(), Work::wait() -- pumps the event
//     loop under the scheduler mutex until its predicate is satisfied.
//     There is no scheduler thread: the blocked callers *are* the
//     scheduler, one at a time. Compute time spent outside the
//     backend is invisible to the virtual clock (see DESIGN.md for
//     what fidelity this loses).
//
//   * Pure virtual mode (scale mode). No per-rank threads at all:
//     post() schedules closures at chosen virtual times (e.g. each
//     rank's syncStart), the closures launch collectives, and a single
//     caller drains everything with run_until_idle(). This is the mode
//     that reaches 10k ranks.
//
// Failure semantics mirror the thread backend: a peer that never shows
// up surfaces as CommTimeoutError after the group timeout of
// *wall-clock* idleness (no event progress), the watchdog abort()
// poisons the group and fails everything with CommAbortedError, and
// run_until_idle() fails still-pending Works as stranded once the
// queue runs dry. inject_fault() kills a rank at a virtual time, the
// event-world analogue of a worker thread dying mid-collective.
//
// Re-entrancy: closures running inside the scheduler (post() tasks,
// collective bodies) may issue non-blocking calls (collectives, send,
// post, inject_fault) but must not block; blocking calls from inside
// an event handler throw CommError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "comm/backend.h"

namespace cannikin::comm {

/// Progress accounting for the discrete-event scheduler (cumulative
/// over the backend's lifetime).
struct EventStats {
  std::uint64_t events_processed = 0;
  double virtual_time = 0.0;       ///< scheduler clock, seconds
  std::size_t works_stranded = 0;  ///< failed by this run_until_idle()
  /// (dst, src, tag) channels still holding undelivered messages or
  /// unmatched receives once this run_until_idle() ran the queue dry
  /// (the drain then drops the receives). 0 after a clean round.
  std::size_t open_channels = 0;
};

class EventBackend final : public Backend {
 public:
  explicit EventBackend(const GroupOptions& options);
  ~EventBackend() override;

  BackendKind kind() const override { return BackendKind::kEvent; }

  RetryStats retry_stats() const override;
  void set_scope(obs::Scope scope) override;

  void abort() override;
  bool aborted() const override;

  void send(int src, int dst, std::uint64_t tag, Payload payload,
            const char* op) override;
  Payload recv(int dst, int src, std::uint64_t tag, const char* op) override;
  void barrier(int rank) override;

  WorkPtr run_collective(int rank, CollectiveCall call) override;

  /// Schedules `fn` as an event at virtual time `vtime` (clamped to
  /// now if in the past) on behalf of `rank`. Inside `fn`,
  /// non-blocking backend calls are legal; blocking calls throw.
  void post(int rank, double vtime, std::function<void()> fn);

  /// Kills `rank` at virtual time `vtime`: its queued and in-flight
  /// collectives fail with CommError, and messages to or from it are
  /// dropped from then on. Peers waiting on it strand (timeout /
  /// run_until_idle semantics above).
  void inject_fault(int rank, double vtime);

  /// Pure virtual mode driver: drains the event queue on the calling
  /// thread, then fails any Work still pending as stranded
  /// (CommTimeoutError) -- its peers never issued the matching
  /// collective. Not callable from inside an event handler.
  EventStats run_until_idle();

  /// Current virtual time (seconds since group creation).
  double virtual_now() const;

  /// Events executed so far.
  std::uint64_t events_processed() const;

 private:
  struct Impl;  ///< scheduler internals
  std::unique_ptr<Impl> impl_;
};

}  // namespace cannikin::comm
