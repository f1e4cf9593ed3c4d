#include "comm/event_backend.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "common/hash.h"
#include "sim/event_queue.h"

namespace cannikin::comm {

struct EventMachine;

namespace {

using WallClock = std::chrono::steady_clock;

WallClock::duration wall_duration(double seconds) {
  return std::chrono::duration_cast<WallClock::duration>(
      std::chrono::duration<double>(seconds));
}

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// Recycling object pool addressed by 32-bit index: `put` reuses a freed
/// slot before growing, so a steady stream of short-lived records costs
/// no allocation once the pool has reached its high-water mark. `take`
/// moves the record out and frees its slot.
template <typename T>
class Slab {
 public:
  std::uint32_t put(T item) {
    if (free_.empty()) {
      items_.push_back(std::move(item));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    items_[index] = std::move(item);
    return index;
  }

  T take(std::uint32_t index) {
    T item = std::move(items_[index]);
    free_.push_back(index);
    return item;
  }

  T& operator[](std::uint32_t index) { return items_[index]; }

  void clear() {
    items_.clear();
    free_.clear();
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

/// Intrusive FIFO threaded through a Slab's `next` links.
struct Fifo {
  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;

  bool empty() const { return head == kNil; }

  template <typename Node>
  void push(Slab<Node>& slab, Node node) {
    node.next = kNil;
    const std::uint32_t index = slab.put(std::move(node));
    if (tail == kNil) {
      head = index;
    } else {
      slab[tail].next = index;
    }
    tail = index;
  }

  template <typename Node>
  Node pop(Slab<Node>& slab) {
    Node node = slab.take(head);
    head = node.next;
    if (head == kNil) tail = kNil;
    return node;
  }

  template <typename Node>
  void clear(Slab<Node>& slab) {
    while (!empty()) pop(slab);
  }
};

/// Two ranks packed into one 64-bit key, `hi` in the upper half.
std::uint64_t pack_ranks(int hi, int lo) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32 |
         static_cast<std::uint32_t>(lo);
}

/// Open-addressing hash map (linear probing, backward-shift erase) for
/// the scheduler's hot lookups. Erasing never leaves tombstones, so a
/// table whose keys churn -- a channel per in-flight (dst, src, tag) --
/// keeps short probe runs and allocates only when it grows.
template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  std::size_t size() const { return size_; }

  Value* find(const Key& key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Finds `key`, inserting a value-initialized entry if absent. The
  /// reference is invalidated by the next insertion or erase.
  Value& operator[](const Key& key) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].used; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i] = Slot{key, Value{}, true};
    ++size_;
    return slots_[i].value;
  }

  /// `key` must be present.
  void erase(const Key& key) {
    std::size_t i = home(key);
    while (!(slots_[i].key == key)) i = (i + 1) & mask();
    // Backward shift: pull each later entry of the probe run into the
    // hole unless that would move it before its home slot.
    for (std::size_t j = (i + 1) & mask(); slots_[j].used;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask()) >= ((j - i) & mask())) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

  template <typename Fn>
  void for_each(Fn fn) {
    for (Slot& slot : slots_) {
      if (slot.used) fn(slot.key, slot.value);
    }
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(const Key& key) const { return Hash{}(key) & mask(); }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (Slot& slot : old) {
      if (!slot.used) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].used) i = (i + 1) & mask();
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Receiver-side channel key.
struct ChannelKey {
  int dst = 0;
  int src = 0;
  std::uint64_t tag = 0;

  bool operator==(const ChannelKey&) const = default;
};

struct ChannelKeyHash {
  std::size_t operator()(const ChannelKey& key) const {
    return mix64(pack_ranks(key.dst, key.src) ^
                 key.tag * 0x9e3779b97f4a7c15ULL);
  }
};

struct PairHash {
  std::size_t operator()(std::uint64_t key) const { return mix64(key); }
};

}  // namespace

// All scheduler state lives behind one mutex. There is no scheduler
// thread: whoever blocks (or calls run_until_idle) pumps the event
// queue while holding the mutex, one event at a time. Event handlers
// are pure state transitions -- they never block -- so holding the
// lock across a handler is cheap and makes the whole backend
// TSan-clean by construction.
struct EventBackend::Impl {
  /// Filled by the delivery that satisfies a blocking recv().
  struct RecvSlot {
    bool filled = false;
    Payload payload;
    double time = 0.0;
  };
  /// A pending receive: a machine's one suspended receive, or a
  /// blocking recv() caller's slot (exactly one is set).
  struct Waiter {
    std::shared_ptr<EventMachine> machine;
    std::shared_ptr<RecvSlot> slot;
  };
  struct MsgNode {
    Payload payload;
    double time = 0.0;
    std::uint32_t next = kNil;
  };
  struct WaiterNode {
    Waiter waiter;
    std::uint32_t next = kNil;
  };
  /// Messages that arrived before their receive, and receives posted
  /// before their message, for one (dst, src, tag). At most one of the
  /// two FIFOs is non-empty; the channel is erased when both are.
  struct Channel {
    Fifo mail;
    Fifo waiters;
  };
  /// Typed event record. Only kTask (post / inject_fault closures)
  /// carries a std::function; the rest are plain data.
  struct Event {
    enum class Kind : std::uint8_t { kTask, kDeliver, kResume, kStart };
    Kind kind = Kind::kTask;
    int dst = 0;  ///< kDeliver: receiver; kStart: rank whose stream starts
    int src = 0;
    std::uint64_t tag = 0;
    double msg_time = 0.0;  ///< kResume: arrival time of the queued message
    Payload payload;
    std::shared_ptr<EventMachine> machine;  ///< kResume
    std::function<void()> task;             ///< kTask
  };

  // Set while the current thread is executing an event handler for
  // this backend; public entry points use it to switch to the
  // already-locked code paths (and to reject blocking calls).
  static thread_local Impl* tl_pump;

  int size = 0;
  std::atomic<double> timeout_seconds{0.0};
  std::atomic<bool> aborted{false};

  mutable std::mutex mu;
  std::condition_variable cv;
  /// Orders event-record indices by (time, seq); the records live in
  /// `records`.
  sim::EventQueue<std::uint32_t> queue;
  Slab<Event> records;
  double vnow = 0.0;
  std::uint64_t events = 0;
  sim::FabricModel fabric;
  sim::RetryPolicy retry;
  /// Per-(src, dst) monotone message counter feeding plan_delivery's
  /// replayable drop/jitter hashes, keyed pack_ranks(src, dst). Hashed, not
  /// an n*n matrix: at 10k ranks only the O(n log n) tree edges appear.
  FlatMap<std::uint64_t, std::uint64_t, PairHash> pair_seq;
  RetryStats retry_totals;
  obs::Scope scope;
  std::vector<char> row_named;
  std::vector<double> vclock;  ///< per-rank virtual clock
  std::vector<char> dead;
  FlatMap<ChannelKey, Channel, ChannelKeyHash> channels;
  Slab<MsgNode> mail_nodes;
  Slab<WaiterNode> waiter_nodes;
  /// Spent payload buffers, reused by the collective bodies' sends.
  std::vector<Payload> spare_payloads;
  /// Per-rank collective frames: a body exists only while its machine
  /// is its stream's front and running.
  std::vector<FrameBuffer> frames;
  /// Per-rank FIFO of collective machines (NCCL stream semantics):
  /// front is in flight, the rest wait for it.
  std::vector<std::deque<std::shared_ptr<EventMachine>>> streams;

  // Central counter barrier in virtual time: released at the max of
  // the arrival clocks.
  int barrier_waiting = 0;
  std::uint64_t barrier_generation = 0;
  double barrier_max = 0.0;

  bool in_pump() const { return tl_pump == this; }

  /// Runs `fn` under the scheduler mutex, which an event handler
  /// already holds.
  template <typename Fn>
  auto locked(Fn fn) {
    if (in_pump()) return fn();
    std::lock_guard<std::mutex> lock(mu);
    return fn();
  }

  /// locked() for a change to the scheduler's state: a caller outside
  /// the scheduler then wakes the blocked pumpers, whose predicates the
  /// change may satisfy.
  template <typename Fn>
  void change(Fn fn) {
    if (in_pump()) {
      fn();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      fn();
    }
    cv.notify_all();
  }

  // --- core scheduler (all _locked methods require mu held) ---

  void push_event_locked(double time, Event event) {
    queue.push(std::max(time, vnow), records.put(std::move(event)));
  }

  void push_task_locked(double time, std::function<void()> fn) {
    Event event;
    event.task = std::move(fn);
    push_event_locked(time, std::move(event));
  }

  void run_one_locked() {
    const auto [time, index] = queue.pop();
    vnow = std::max(vnow, time);
    ++events;
    Event event = records.take(index);
    Impl* const prev = tl_pump;
    tl_pump = this;
    try {
      dispatch_locked(event);
    } catch (...) {
      tl_pump = prev;
      throw;
    }
    tl_pump = prev;
  }

  void dispatch_locked(Event& event);

  /// Pumps events until `pred` holds. Returns false if the *explicit*
  /// deadline passes first (Work::wait(timeout) semantics: the op keeps
  /// running). When the queue is dry and no progress happens for the
  /// group timeout of wall time, `on_stall` fires -- it must either
  /// throw (recv/barrier) or fail the stalled machine so `pred` turns
  /// true (Work::wait). `op`/`rank` label the abort error.
  template <typename Pred, typename OnStall>
  bool pump_until(std::unique_lock<std::mutex>& lock, Pred pred,
                  double explicit_timeout_seconds, OnStall on_stall,
                  const char* op, int rank) {
    const bool bounded = explicit_timeout_seconds > 0.0;
    const auto deadline =
        bounded ? WallClock::now() + wall_duration(explicit_timeout_seconds)
                : WallClock::time_point{};
    const double idle_seconds = timeout_seconds.load(std::memory_order_relaxed);
    const bool idle_bounded = idle_seconds > 0.0;
    auto idle_deadline = idle_bounded
                             ? WallClock::now() + wall_duration(idle_seconds)
                             : WallClock::time_point{};
    std::uint64_t seen = events;
    for (;;) {
      if (pred()) return true;
      if (aborted.load(std::memory_order_acquire)) {
        throw CommAbortedError(std::string(op) +
                               ": process group aborted (rank=" +
                               std::to_string(rank) + ")");
      }
      if (!queue.empty()) {
        run_one_locked();
        cv.notify_all();  // another blocked thread's predicate may hold now
        continue;
      }
      const auto now = WallClock::now();
      if (events != seen) {
        seen = events;
        if (idle_bounded) idle_deadline = now + wall_duration(idle_seconds);
      }
      if (bounded && now >= deadline) return false;
      if (idle_bounded && now >= idle_deadline) {
        on_stall();
        idle_deadline = now + wall_duration(idle_seconds);
        continue;
      }
      auto wake = WallClock::time_point::max();
      if (bounded) wake = std::min(wake, deadline);
      if (idle_bounded) wake = std::min(wake, idle_deadline);
      if (wake == WallClock::time_point::max()) {
        cv.wait(lock);
      } else {
        cv.wait_until(lock, wake);
      }
    }
  }

  // --- payload recycling ---

  void recycle(Payload&& payload) {
    if (payload.capacity() == 0) return;
    payload.clear();
    spare_payloads.push_back(std::move(payload));
  }

  // --- message fabric ---

  void send_locked(int src, int dst, std::uint64_t tag, Payload payload,
                   double at_time) {
    if (dead[static_cast<std::size_t>(src)] ||
        dead[static_cast<std::size_t>(dst)]) {
      recycle(std::move(payload));
      return;  // messages to or from a failed rank vanish
    }
    const std::uint64_t seq = pair_seq[pack_ranks(src, dst)]++;
    const sim::DeliveryPlan plan =
        sim::plan_delivery(fabric, retry, src, dst,
                           payload.size() * sizeof(double), at_time, seq);
    retry_totals.record(plan, scope);
    if (!plan.delivered) {
      // Retry budget exhausted: the message vanishes and the receiver
      // surfaces CommTimeoutError / strands, same as a dead peer.
      recycle(std::move(payload));
      return;
    }
    Event event;
    event.kind = Event::Kind::kDeliver;
    event.dst = dst;
    event.src = src;
    event.tag = tag;
    event.payload = std::move(payload);
    push_event_locked(plan.delivery_seconds, std::move(event));
  }

  void deliver_locked(int dst, int src, std::uint64_t tag, Payload payload,
                      double time) {
    if (dead[static_cast<std::size_t>(dst)] ||
        dead[static_cast<std::size_t>(src)]) {
      recycle(std::move(payload));
      return;
    }
    const ChannelKey key{dst, src, tag};
    Channel& channel = channels[key];
    if (channel.waiters.empty()) {
      channel.mail.push(mail_nodes, MsgNode{std::move(payload), time});
      return;
    }
    Waiter waiter = channel.waiters.pop(waiter_nodes).waiter;
    if (channel.waiters.empty()) channels.erase(key);
    resume_locked(waiter, std::move(payload), time);
  }

  /// Hands a message to its receive: fills a recv() slot, or resumes a
  /// machine's body (skipped if the machine has failed meanwhile).
  void resume_locked(const Waiter& waiter, Payload payload, double time);

  /// Registers `machine`'s one suspended receive for the next
  /// (src, tag) message at `dst`. A message already in the mailbox is
  /// re-dispatched through a zero-delay event (never recursively),
  /// keeping handler stack depth constant at 10k ranks.
  void await_locked(int dst, int src, std::uint64_t tag,
                    std::shared_ptr<EventMachine> machine) {
    const ChannelKey key{dst, src, tag};
    Channel* const channel = channels.find(key);
    if (channel == nullptr || channel->mail.empty()) {
      channels[key].waiters.push(waiter_nodes,
                                 WaiterNode{Waiter{std::move(machine), {}}});
      return;
    }
    MsgNode msg = channel->mail.pop(mail_nodes);
    if (channel->mail.empty()) channels.erase(key);
    Event event;
    event.kind = Event::Kind::kResume;
    event.msg_time = msg.time;
    event.payload = std::move(msg.payload);
    event.machine = std::move(machine);
    push_event_locked(vnow, std::move(event));
  }

  /// Withdraws a blocking recv()'s waiter that gave up (timeout or
  /// abort), so it cannot swallow a later matching message.
  void withdraw_locked(const ChannelKey& key,
                       const std::shared_ptr<RecvSlot>& slot) {
    Channel* const channel = channels.find(key);
    if (channel == nullptr) return;
    Fifo kept;
    while (!channel->waiters.empty()) {
      WaiterNode node = channel->waiters.pop(waiter_nodes);
      if (node.waiter.slot != slot) kept.push(waiter_nodes, std::move(node));
    }
    channel->waiters = kept;
    if (channel->waiters.empty() && channel->mail.empty()) channels.erase(key);
  }

  /// Drops the pending receives of every channel `drop(key)` selects,
  /// erasing channels left empty.
  template <typename Pred>
  void drop_waiters_locked(Pred drop) {
    std::vector<ChannelKey> emptied;
    channels.for_each([&](const ChannelKey& key, Channel& channel) {
      if (!drop(key)) return;
      channel.waiters.clear(waiter_nodes);
      if (channel.mail.empty()) emptied.push_back(key);
    });
    for (const ChannelKey& key : emptied) channels.erase(key);
  }

  // --- machine lifecycle (definitions below EventMachine) ---

  void submit_machine_locked(std::shared_ptr<EventMachine> m);
  void schedule_start_locked(int rank, double at);
  void start_stream_locked(int rank);
  void complete_machine_locked(const std::shared_ptr<EventMachine>& m);
  void fail_machine_locked(const std::shared_ptr<EventMachine>& m,
                           std::exception_ptr error);
  void emit_completion_obs_locked(const EventMachine& m, bool failed);
  bool wait_for_work(EventMachine& m, double timeout_seconds_arg);
  void abort_locked();
};

thread_local EventBackend::Impl* EventBackend::Impl::tl_pump = nullptr;

/// One rank's participation in one collective: the algorithm's shared
/// body (transport.h) plus its stream bookkeeping. Lives on the rank's
/// stream queue. The body is built in the rank's FrameBuffer when the
/// stream starts the machine, runs under the scheduler mutex on each
/// message delivery, and is destroyed when the machine completes or
/// fails, before the rank's next machine starts.
/// `now` is the machine's local virtual clock (max of its start time
/// and every message it has consumed), which becomes the op's end time.
struct EventMachine final : Transport,
                            std::enable_shared_from_this<EventMachine> {
  EventMachine(EventBackend::Impl& backend, int rank, CollectiveCall call)
      : Transport(rank, backend.size,
                  backend.frames[static_cast<std::size_t>(rank)],
                  backend.aborted),
        b(&backend),
        call(std::move(call)) {}

  EventBackend::Impl* b;
  CollectiveCall call;
  /// The Work handed to the caller aliases this machine (one
  /// allocation for both), so a live WorkPtr keeps the machine alive.
  Work work;
  Collective body;
  double enqueue_time = 0.0;
  double start_time = 0.0;
  double now = 0.0;
  bool started = false;
  bool failed = false;

  void send(int dst, std::uint64_t tag, Payload payload) override {
    b->send_locked(rank(), dst, tag, std::move(payload), now);
  }

  Payload payload_of(std::span<const double> values) override {
    Payload payload;
    if (!b->spare_payloads.empty()) {
      payload = std::move(b->spare_payloads.back());
      b->spare_payloads.pop_back();
    }
    payload.assign(values.begin(), values.end());
    return payload;
  }

  void recycle(Payload&& payload) override { b->recycle(std::move(payload)); }

  /// Runs the body to its next receive or its end; a finished body
  /// completes or fails the machine.
  void step() {
    try {
      body.resume();
    } catch (...) {
      b->fail_machine_locked(shared_from_this(), std::current_exception());
      return;
    }
    if (body.done()) b->complete_machine_locked(shared_from_this());
  }

  /// Every receive goes through the scheduler, never straight to the
  /// body: a message already waiting resumes it via a zero-delay event.
  bool receive(int src, std::uint64_t tag) override {
    b->await_locked(rank(), src, tag, shared_from_this());
    return false;
  }
};

void EventBackend::Impl::resume_locked(const Waiter& waiter, Payload payload,
                                       double time) {
  if (waiter.slot) {
    waiter.slot->payload = std::move(payload);
    waiter.slot->time = time;
    waiter.slot->filled = true;
    return;
  }
  EventMachine& m = *waiter.machine;
  if (m.failed) {
    recycle(std::move(payload));
    return;
  }
  m.now = std::max(m.now, time);
  m.inbox = std::move(payload);
  m.step();
}

// --- machine lifecycle on the Impl ---

void EventBackend::Impl::submit_machine_locked(
    std::shared_ptr<EventMachine> m) {
  if (aborted.load(std::memory_order_acquire)) {
    m->work.finish(std::make_exception_ptr(
        CommAbortedError("submit: process group aborted")));
    return;
  }
  // Two raw pointers fit std::function's inline buffer: no allocation.
  // `machine` stays valid while the hook can run -- only through a live
  // WorkPtr, which aliases the machine.
  m->work.set_wait_hook([this, machine = m.get()](double timeout) {
    return wait_for_work(*machine, timeout);
  });
  const std::size_t r = static_cast<std::size_t>(m->rank());
  if (dead[r]) {
    m->failed = true;
    m->work.finish(std::make_exception_ptr(CommError(
        "rank " + std::to_string(m->rank()) + " failed (injected fault)")));
    return;
  }
  m->enqueue_time = std::max(vnow, vclock[r]);
  streams[r].push_back(m);
  if (streams[r].size() == 1) {
    schedule_start_locked(m->rank(), m->enqueue_time);
  }
}

void EventBackend::Impl::schedule_start_locked(int rank, double at) {
  Event event;
  event.kind = Event::Kind::kStart;
  event.dst = rank;
  push_event_locked(at, std::move(event));
}

void EventBackend::Impl::start_stream_locked(int rank) {
  auto& stream = streams[static_cast<std::size_t>(rank)];
  if (stream.empty()) return;
  const std::shared_ptr<EventMachine> m = stream.front();
  if (m->started || m->failed) return;
  m->started = true;
  m->start_time = m->now = std::max(vnow, m->enqueue_time);
  m->body = collective_body(*m, m->call);
  m->step();
}

void EventBackend::Impl::dispatch_locked(Event& event) {
  switch (event.kind) {
    case Event::Kind::kTask:
      event.task();
      return;
    case Event::Kind::kDeliver:
      deliver_locked(event.dst, event.src, event.tag, std::move(event.payload),
                     vnow);
      return;
    case Event::Kind::kResume:
      resume_locked(Waiter{std::move(event.machine), {}},
                    std::move(event.payload), event.msg_time);
      return;
    case Event::Kind::kStart:
      start_stream_locked(event.dst);
      return;
  }
}

void EventBackend::Impl::complete_machine_locked(
    const std::shared_ptr<EventMachine>& m) {
  if (m->failed || m->work.is_completed()) return;
  m->body = {};
  const std::size_t r = static_cast<std::size_t>(m->rank());
  vclock[r] = std::max(vclock[r], m->now);
  if (m->call.times) {
    m->call.times->begin_seconds = m->start_time;
    m->call.times->end_seconds = m->now;
  }
  emit_completion_obs_locked(*m, /*failed=*/false);
  m->work.finish(nullptr);
  auto& stream = streams[r];
  if (!stream.empty() && stream.front().get() == m.get()) {
    stream.pop_front();
    if (!stream.empty()) schedule_start_locked(m->rank(), m->now);
  }
}

void EventBackend::Impl::fail_machine_locked(
    const std::shared_ptr<EventMachine>& m, std::exception_ptr error) {
  if (m->failed) return;
  m->failed = true;
  m->body = {};
  if (!m->work.is_completed()) {
    emit_completion_obs_locked(*m, /*failed=*/true);
    m->work.finish(std::move(error));
  }
  auto& stream = streams[static_cast<std::size_t>(m->rank())];
  const auto it = std::find(stream.begin(), stream.end(), m);
  if (it != stream.end()) {
    const bool was_front = it == stream.begin();
    stream.erase(it);
    if (was_front && !stream.empty() && !stream.front()->started) {
      schedule_start_locked(m->rank(), vnow);
    }
  }
}

void EventBackend::Impl::emit_completion_obs_locked(const EventMachine& m,
                                                    bool failed) {
  if (!scope.enabled()) return;
  const obs::Scope row = scope.for_rank(obs::kCommTidBase + m.rank());
  const double queue_us = (m.start_time - m.enqueue_time) * 1e6;
  if (scope.tracing() && !failed) {
    if (!row_named[static_cast<std::size_t>(m.rank())]) {
      row.thread_name("rank " + std::to_string(m.rank()) + " comm");
      row_named[static_cast<std::size_t>(m.rank())] = 1;
    }
    row.complete_span("comm", m.call.op_name, m.start_time,
                      m.now - m.start_time,
                      obs::ArgList()
                          .add("tag", static_cast<std::int64_t>(m.call.tag))
                          .add("queue_us", queue_us));
  }
  if (scope.metrics() != nullptr) {
    row.counter_add(failed ? "comm.ops_failed" : "comm.ops_completed", 1.0);
    row.observe("comm.queue_us", queue_us);
    row.observe("comm.run_us", (m.now - m.start_time) * 1e6);
  }
}

bool EventBackend::Impl::wait_for_work(EventMachine& m,
                                       double timeout_seconds_arg) {
  if (in_pump()) {
    throw CommError("Work::wait: blocking wait inside an event handler");
  }
  std::unique_lock<std::mutex> lock(mu);
  return pump_until(
      lock, [&] { return m.work.is_completed(); }, timeout_seconds_arg,
      [&] {
        // Group-timeout stall: the machine is stuck awaiting a peer
        // that will never show up -- the event-world analogue of a
        // mailbox recv timing out.
        fail_machine_locked(
            m.shared_from_this(),
            std::make_exception_ptr(CommTimeoutError(
                std::string(m.call.op_name) + ": rank " +
                std::to_string(m.rank()) + " timed out after " +
                std::to_string(
                    timeout_seconds.load(std::memory_order_relaxed)) +
                "s of scheduler idleness (tag=" + std::to_string(m.call.tag) +
                "); peer dead or hung")));
      },
      "wait", -1);
}

void EventBackend::Impl::abort_locked() {
  aborted.store(true, std::memory_order_release);
  const auto error = std::make_exception_ptr(
      CommAbortedError("pending work cancelled: process group aborted"));
  for (auto& stream : streams) {
    for (const auto& m : stream) {
      m->failed = true;
      m->body = {};
      if (!m->work.is_completed()) m->work.finish(error);
    }
    stream.clear();
  }
  channels.clear();
  mail_nodes.clear();
  waiter_nodes.clear();
  queue.clear();
  records.clear();
}

// --- EventBackend public surface ---

EventBackend::EventBackend(const GroupOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->size = options.size;
  impl_->timeout_seconds.store(options.timeout_seconds,
                               std::memory_order_relaxed);
  impl_->fabric = options.fabric;
  impl_->retry = options.retry;
  impl_->row_named.assign(static_cast<std::size_t>(options.size), 0);
  impl_->vclock.assign(static_cast<std::size_t>(options.size), 0.0);
  impl_->dead.assign(static_cast<std::size_t>(options.size), 0);
  impl_->streams.resize(static_cast<std::size_t>(options.size));
  impl_->frames.resize(static_cast<std::size_t>(options.size));
}

EventBackend::~EventBackend() { abort(); }

void EventBackend::set_timeout(double seconds) {
  impl_->timeout_seconds.store(seconds, std::memory_order_relaxed);
}

double EventBackend::timeout() const {
  return impl_->timeout_seconds.load(std::memory_order_relaxed);
}

void EventBackend::set_fabric(const sim::FabricModel& fabric) {
  impl_->locked([&] { impl_->fabric = fabric; });
}

void EventBackend::set_retry(const sim::RetryPolicy& retry) {
  impl_->locked([&] { impl_->retry = retry; });
}

RetryStats EventBackend::retry_stats() const {
  return impl_->locked([&] { return impl_->retry_totals; });
}

bool EventBackend::reachable(int a, int b) const {
  if (aborted()) return false;
  Impl& impl = *impl_;
  const auto check = [&impl, a, b] {
    if (a < 0 || b < 0 || a >= impl.size || b >= impl.size) return false;
    if (impl.dead[static_cast<std::size_t>(a)] ||
        impl.dead[static_cast<std::size_t>(b)]) {
      return false;
    }
    return !impl.fabric.faults.partitioned(a, b, impl.vnow);
  };
  return impl.locked(check);
}

void EventBackend::set_scope(obs::Scope scope) {
  impl_->locked([&] { impl_->scope = scope; });
}

void EventBackend::abort() {
  impl_->change([&] { impl_->abort_locked(); });
}

bool EventBackend::aborted() const {
  return impl_->aborted.load(std::memory_order_acquire);
}

void EventBackend::send(int src, int dst, std::uint64_t tag, Payload payload,
                        const char* op) {
  if (aborted()) {
    throw CommAbortedError(std::string(op) + ": process group aborted (rank=" +
                           std::to_string(src) +
                           ", dst=" + std::to_string(dst) +
                           ", tag=" + std::to_string(tag) + ")");
  }
  Impl& b = *impl_;
  b.change([&] {
    b.send_locked(src, dst, tag, std::move(payload),
                  std::max(b.vclock[static_cast<std::size_t>(src)], b.vnow));
  });
}

Payload EventBackend::recv(int dst, int src, std::uint64_t tag,
                           const char* op) {
  Impl& b = *impl_;
  if (b.in_pump()) {
    throw CommError(std::string(op) +
                    ": blocking recv inside an event handler");
  }
  std::unique_lock<std::mutex> lock(b.mu);
  const ChannelKey key{dst, src, tag};
  if (Impl::Channel* const channel = b.channels.find(key);
      channel != nullptr && !channel->mail.empty()) {
    Impl::MsgNode msg = channel->mail.pop(b.mail_nodes);
    if (channel->mail.empty()) b.channels.erase(key);
    auto& clock = b.vclock[static_cast<std::size_t>(dst)];
    clock = std::max(clock, msg.time);
    return std::move(msg.payload);
  }
  auto slot = std::make_shared<Impl::RecvSlot>();
  b.channels[key].waiters.push(b.waiter_nodes,
                               Impl::WaiterNode{Impl::Waiter{{}, slot}});
  try {
    b.pump_until(
        lock, [&] { return slot->filled; }, /*explicit timeout*/ 0.0,
        [&] {
          throw CommTimeoutError(
              std::string(op) + ": rank " + std::to_string(dst) +
              " timed out after " +
              std::to_string(
                  b.timeout_seconds.load(std::memory_order_relaxed)) +
              "s waiting for message (src=" + std::to_string(src) +
              ", tag=" + std::to_string(tag) + "); peer dead or hung");
        },
        op, dst);
  } catch (...) {
    // A receive that gave up must not consume a later message.
    b.withdraw_locked(key, slot);
    throw;
  }
  auto& clock = b.vclock[static_cast<std::size_t>(dst)];
  clock = std::max(clock, slot->time);
  return std::move(slot->payload);
}

void EventBackend::barrier(int rank) {
  Impl& b = *impl_;
  if (b.in_pump()) {
    throw CommError("barrier: blocking barrier inside an event handler");
  }
  std::unique_lock<std::mutex> lock(b.mu);
  if (aborted()) {
    throw CommAbortedError("barrier: process group aborted (rank=" +
                           std::to_string(rank) + ")");
  }
  const std::uint64_t generation = b.barrier_generation;
  b.barrier_max = std::max(
      b.barrier_max,
      std::max(b.vclock[static_cast<std::size_t>(rank)], b.vnow));
  if (++b.barrier_waiting == b.size) {
    b.barrier_waiting = 0;
    ++b.barrier_generation;
    const double release = b.barrier_max;
    b.barrier_max = 0.0;
    for (auto& clock : b.vclock) clock = std::max(clock, release);
    b.vnow = std::max(b.vnow, release);
    b.cv.notify_all();
    return;
  }
  b.cv.notify_all();
  b.pump_until(
      lock, [&] { return b.barrier_generation != generation; },
      /*explicit timeout*/ 0.0,
      [&] {
        // Withdraw from the unfinished generation so the count stays
        // consistent if the missing rank ever arrives.
        --b.barrier_waiting;
        throw CommTimeoutError(
            "barrier: rank " + std::to_string(rank) + " timed out after " +
            std::to_string(
                b.timeout_seconds.load(std::memory_order_relaxed)) +
            "s; some rank never arrived");
      },
      "barrier", rank);
}

WorkPtr EventBackend::submit(int rank, std::function<void()> op,
                             const char* op_name, int tag) {
  (void)rank;
  (void)tag;
  auto work = std::make_shared<Work>();
  if (aborted()) {
    work->finish(std::make_exception_ptr(
        CommAbortedError("submit: process group aborted")));
    return work;
  }
  if (impl_->in_pump()) {
    work->finish(std::make_exception_ptr(CommError(
        std::string(op_name) +
        ": generic submit cannot run inside an event handler")));
    return work;
  }
  // The event backend has no per-rank progress threads: generic ops run
  // inline on the caller (any blocking comm inside pumps the
  // scheduler). Overlap comes from the typed collectives instead.
  try {
    op();
    work->finish(nullptr);
  } catch (...) {
    work->finish(std::current_exception());
  }
  return work;
}

WorkPtr EventBackend::run_collective(int rank, CollectiveCall call) {
  Impl& b = *impl_;
  auto m = std::make_shared<EventMachine>(b, rank, std::move(call));
  WorkPtr work(m, &m->work);
  b.change([&] { b.submit_machine_locked(std::move(m)); });
  return work;
}

void EventBackend::post(int rank, double vtime, std::function<void()> fn) {
  Impl& b = *impl_;
  if (rank < 0 || rank >= b.size) throw CommError("post: bad rank");
  if (aborted()) throw CommAbortedError("post: process group aborted");
  b.change([&] { b.push_task_locked(vtime, std::move(fn)); });
}

void EventBackend::inject_fault(int rank, double vtime) {
  Impl& b = *impl_;
  if (rank < 0 || rank >= b.size) throw CommError("inject_fault: bad rank");
  const auto fault = [&b, rank] {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (b.dead[r]) return;
    b.dead[r] = 1;
    if (b.scope.tracing()) {
      b.scope.for_rank(obs::kCommTidBase + rank)
          .complete_span("fault", "rank_failed", b.vnow, 0.0);
    }
    const std::deque<std::shared_ptr<EventMachine>> doomed = b.streams[r];
    const auto error = std::make_exception_ptr(CommError(
        "rank " + std::to_string(rank) + " failed (injected fault)"));
    for (const auto& m : doomed) b.fail_machine_locked(m, error);
    // The dead rank's pending receives will never fire; drop them.
    b.drop_waiters_locked(
        [rank](const ChannelKey& key) { return key.dst == rank; });
  };
  b.change([&] { b.push_task_locked(vtime, fault); });
}

EventStats EventBackend::run_until_idle() {
  Impl& b = *impl_;
  if (b.in_pump()) {
    throw CommError("run_until_idle: cannot drain inside an event handler");
  }
  std::unique_lock<std::mutex> lock(b.mu);
  while (!b.queue.empty()) b.run_one_locked();
  EventStats stats;
  // Machines still queued after a full drain are stranded: some peer
  // never issued the matching collective.
  std::vector<std::shared_ptr<EventMachine>> stranded;
  for (const auto& stream : b.streams) {
    stranded.insert(stranded.end(), stream.begin(), stream.end());
  }
  for (const auto& m : stranded) {
    b.fail_machine_locked(
        m, std::make_exception_ptr(CommTimeoutError(
               std::string(m->call.op_name) + ": rank " +
               std::to_string(m->rank()) +
               " stranded (tag=" + std::to_string(m->call.tag) +
               "): event queue ran dry before every rank joined the "
               "collective")));
    ++stats.works_stranded;
  }
  // Counted before the stranded receives are dropped: a channel is
  // erased as soon as both its FIFOs drain, so every entry left holds
  // an undelivered message or a receive that will never be matched.
  stats.open_channels = b.channels.size();
  b.drop_waiters_locked([](const ChannelKey&) { return true; });
  stats.events_processed = b.events;
  stats.virtual_time = b.vnow;
  lock.unlock();
  b.cv.notify_all();
  return stats;
}

double EventBackend::virtual_now() const {
  return impl_->locked([&] { return impl_->vnow; });
}

std::uint64_t EventBackend::events_processed() const {
  return impl_->locked([&] { return impl_->events; });
}

}  // namespace cannikin::comm
