#include "comm/event_backend.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "common/hash.h"
#include "sim/event_queue.h"

namespace cannikin::comm {

namespace {

using WallClock = std::chrono::steady_clock;

WallClock::duration wall_duration(double seconds) {
  return std::chrono::duration_cast<WallClock::duration>(
      std::chrono::duration<double>(seconds));
}

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// Recycling object pool addressed by 32-bit index: `alloc` reuses a
/// freed slot before growing, so a steady stream of short-lived records
/// costs no allocation once the pool has reached its high-water mark.
/// A reused slot keeps its previous contents until overwritten. Growth
/// moves the records: hold indices across an `alloc`, never references.
template <typename T>
class Slab {
 public:
  std::uint32_t alloc() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }

  void free(std::uint32_t index) { free_.push_back(index); }

  std::uint32_t put(T item) {
    const std::uint32_t index = alloc();
    items_[index] = std::move(item);
    return index;
  }

  /// Moves the record out and frees its slot.
  T take(std::uint32_t index) {
    T item = std::move(items_[index]);
    free(index);
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

  /// Appends the slab node at `index`.
  template <typename Node>
  void link(Slab<Node>& slab, std::uint32_t index) {
    slab[index].next = kNil;
    if (tail == kNil) {
      head = index;
    } else {
      slab[tail].next = index;
    }
    tail = index;
  }

  /// Unlinks the front node, which stays in the slab; returns its index.
  template <typename Node>
  std::uint32_t unlink_front(Slab<Node>& slab) {
    const std::uint32_t index = head;
    head = slab[index].next;
    if (head == kNil) tail = kNil;
    return index;
  }

  template <typename Node>
  void push(Slab<Node>& slab, const Node& node) {
    link(slab, slab.put(node));
  }

  template <typename Node>
  Node pop(Slab<Node>& slab) {
    return slab.take(unlink_front(slab));
  }

  /// Unlinks, in order, every node for which `unlink(index)` returns
  /// true; `unlink` may free the node.
  template <typename Node, typename Pred>
  void unlink_if(Slab<Node>& slab, Pred unlink) {
    Fifo kept;
    while (!empty()) {
      const std::uint32_t index = unlink_front(slab);
      if (!unlink(index)) kept.link(slab, index);
    }
    *this = kept;
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
// TSan-clean by construction. Every per-event record is plain data
// addressed by a 32-bit index into a recycling pool.
struct EventBackend::Impl {
  /// Filled by the delivery that satisfies a blocking recv(); lives on
  /// that caller's stack.
  struct RecvSlot {
    bool filled = false;
    Payload payload;
    double time = 0.0;
  };
  /// A message in flight, or in its channel's mailbox (linked through
  /// `next`) once it arrived before its receive.
  struct Message {
    Payload payload;
    double time = 0.0;  ///< arrival time, set on delivery
    std::uint32_t next = kNil;
  };
  /// A pending receive: a machine's one suspended receive, or a blocking
  /// recv() caller's slot (exactly one is set).
  struct WaiterNode {
    std::uint32_t machine = kNil;
    RecvSlot* slot = nullptr;
    std::uint32_t next = kNil;
  };
  /// Messages that arrived before their receive, and receives posted
  /// before their message, for one (dst, src, tag). At most one of the
  /// two FIFOs is non-empty; the channel is erased when both are.
  struct Channel {
    Fifo mail;
    Fifo waiters;
  };
  /// Typed event record, plain data: a kTask's closure and a message
  /// live in their own pools.
  struct Event {
    enum class Kind : std::uint8_t { kTask, kDeliver, kResume, kStart };
    Kind kind = Kind::kTask;
    int dst = 0;  ///< kDeliver: receiver; kResume, kStart: the rank
    int src = 0;  ///< kDeliver: sender
    /// kTask: its closure in `tasks`; kDeliver, kResume: its message in
    /// `messages`.
    std::uint32_t index = kNil;
    std::uint32_t machine = kNil;  ///< kResume
    std::uint64_t tag = 0;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  /// One rank's part in one collective, from submission until it
  /// completes or fails, linked into the rank's stream.
  struct Machine {
    CollectiveCall call;  ///< moved to the rank's transport at start
    WorkPtr work;
    double enqueue_time = 0.0;
    int rank = 0;
    std::uint32_t next = kNil;
    /// Failed while its body awaited a message: a channel waiter or a
    /// kResume event still names it, so it keeps its slot until that
    /// reference is consumed and the index never names a newer
    /// collective.
    bool awaited = false;
  };

  /// One rank's scheduler state, built with the group. Its stream is a
  /// FIFO of machines (NCCL stream semantics): the front one runs, the
  /// rest wait for it. As the rank's transport it hosts the front
  /// machine's body, built in the rank's FrameBuffer when the machine
  /// starts, run under the scheduler mutex on each message delivery and
  /// destroyed when the machine completes or fails, before the next one
  /// starts.
  struct RankTransport final : Transport {
    RankTransport(Impl& backend, int rank)
        : Transport(rank, backend.size,
                    backend.frames[static_cast<std::size_t>(rank)],
                    backend.aborted),
          b(&backend) {}

    Impl* b;
    Fifo stream;
    double vclock = 0.0;  ///< the rank's virtual clock
    bool row_named = false;
    Collective body;
    /// The running machine's call, moved out of its pooled record at
    /// start so the body's reference stays valid while the pool grows.
    CollectiveCall call;
    std::uint32_t machine = kNil;  ///< running machine; kNil between bodies
    bool awaiting = false;         ///< the body is suspended in a receive
    double start_time = 0.0;
    /// The running machine's local virtual clock (max of its start time
    /// and every message it has consumed), which becomes the op's end
    /// time.
    double now = 0.0;

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

    /// Every receive goes through the scheduler, never straight to the
    /// body: a message already waiting resumes it via a zero-delay event.
    bool receive(int src, std::uint64_t tag) override {
      b->await_locked(*this, src, tag);
      return false;
    }

    /// Runs the body to its next receive or its end; a finished body
    /// completes or fails the machine.
    void step() {
      try {
        body.resume();
      } catch (...) {
        b->fail_machine_locked(machine, std::current_exception());
        return;
      }
      if (body.done()) b->complete_machine_locked(machine);
    }
  };

  // Set while the current thread is executing an event handler for
  // this backend; public entry points use it to switch to the
  // already-locked code paths (and to reject blocking calls).
  static thread_local Impl* tl_pump;

  explicit Impl(const GroupOptions& options)
      : size(options.size),
        timeout_seconds(options.timeout_seconds),
        fabric(options.fabric),
        retry(options.retry) {}

  const int size;
  /// Wall seconds of scheduler idleness before a blocked call gives up;
  /// <= 0 waits forever.
  const double timeout_seconds;
  std::atomic<bool> aborted{false};

  mutable std::mutex mu;
  std::condition_variable cv;
  /// Orders event-record indices by (time, seq); the records live in
  /// `records`.
  sim::EventQueue<std::uint32_t> queue;
  Slab<Event> records;
  Slab<std::function<void()>> tasks;  ///< post() / inject_fault() closures
  Slab<Message> messages;
  double vnow = 0.0;
  std::uint64_t events = 0;
  const sim::FabricModel fabric;
  const sim::RetryPolicy retry;
  /// Per-(src, dst) monotone message counter feeding plan_delivery's
  /// replayable drop/jitter hashes, keyed pack_ranks(src, dst). Hashed, not
  /// an n*n matrix: at 10k ranks only the O(n log n) tree edges appear.
  /// Counts only messages sent while the fabric is lossy, the only case
  /// plan_delivery reads it, so a clean round never touches the map.
  FlatMap<std::uint64_t, std::uint64_t, PairHash> pair_seq;
  RetryStats retry_totals;
  obs::Scope scope;
  std::vector<char> dead;
  FlatMap<ChannelKey, Channel, ChannelKeyHash> channels;
  Slab<WaiterNode> waiter_nodes;
  /// Spent payload buffers, reused by the collective bodies' sends.
  std::vector<Payload> spare_payloads;
  /// Per-rank collective frames: a body exists only while its machine
  /// is its stream's front and running.
  std::vector<FrameBuffer> frames;
  Slab<Machine> machines;
  std::unique_ptr<std::optional<RankTransport>[]> transports;

  // Central counter barrier in virtual time: released at the max of
  // the arrival clocks.
  int barrier_waiting = 0;
  std::uint64_t barrier_generation = 0;
  double barrier_max = 0.0;

  bool in_pump() const { return tl_pump == this; }

  RankTransport& transport(int rank) {
    return *transports[static_cast<std::size_t>(rank)];
  }

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

  void push_event_locked(double time, const Event& event) {
    queue.push(std::max(time, vnow), records.put(event));
  }

  void push_task_locked(double time, std::function<void()> fn) {
    push_event_locked(time, {.index = tasks.put(std::move(fn))});
  }

  void run_one_locked() {
    const auto [time, index] = queue.pop();
    vnow = std::max(vnow, time);
    ++events;
    const Event event = records.take(index);
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

  void dispatch_locked(const Event& event) {
    switch (event.kind) {
      case Event::Kind::kTask:
        tasks.take(event.index)();
        return;
      case Event::Kind::kDeliver:
        deliver_locked(event.dst, event.src, event.tag, event.index, vnow);
        return;
      case Event::Kind::kResume:
        resume_machine_locked(event.dst, event.machine, event.index);
        return;
      case Event::Kind::kStart:
        start_stream_locked(event.dst);
        return;
    }
  }

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
    const bool idle_bounded = timeout_seconds > 0.0;
    auto idle_deadline = idle_bounded
                             ? WallClock::now() + wall_duration(timeout_seconds)
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
        if (idle_bounded) idle_deadline = now + wall_duration(timeout_seconds);
      }
      if (bounded && now >= deadline) return false;
      if (idle_bounded && now >= idle_deadline) {
        on_stall();
        idle_deadline = now + wall_duration(timeout_seconds);
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

  void send_locked(int src, int dst, std::uint64_t tag, Payload&& payload,
                   double at_time) {
    if (dead[static_cast<std::size_t>(src)] ||
        dead[static_cast<std::size_t>(dst)]) {
      recycle(std::move(payload));
      return;  // messages to or from a failed rank vanish
    }
    const std::uint64_t seq =
        fabric.faults.any() ? pair_seq[pack_ranks(src, dst)]++ : 0;
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
    push_event_locked(
        plan.delivery_seconds,
        {.kind = Event::Kind::kDeliver, .dst = dst, .src = src,
         .index = messages.put({std::move(payload)}), .tag = tag});
  }

  void deliver_locked(int dst, int src, std::uint64_t tag,
                      std::uint32_t message, double time) {
    if (dead[static_cast<std::size_t>(dst)] ||
        dead[static_cast<std::size_t>(src)]) {
      recycle(std::move(messages.take(message).payload));
      return;
    }
    messages[message].time = time;
    const ChannelKey key{dst, src, tag};
    Channel& channel = channels[key];
    if (channel.waiters.empty()) {
      channel.mail.link(messages, message);
      return;
    }
    const WaiterNode waiter = channel.waiters.pop(waiter_nodes);
    if (channel.waiters.empty()) channels.erase(key);
    if (waiter.slot == nullptr) {
      resume_machine_locked(dst, waiter.machine, message);
      return;
    }
    waiter.slot->payload = std::move(messages.take(message).payload);
    waiter.slot->time = time;
    waiter.slot->filled = true;
  }

  /// Registers the one suspended receive of `t`'s running machine for
  /// the next (src, tag) message. A message already in the mailbox is
  /// re-dispatched through a zero-delay event (never recursively),
  /// keeping handler stack depth constant at 10k ranks.
  void await_locked(RankTransport& t, int src, std::uint64_t tag) {
    t.awaiting = true;
    const ChannelKey key{t.rank(), src, tag};
    Channel& channel = channels[key];
    if (channel.mail.empty()) {
      channel.waiters.push(waiter_nodes, WaiterNode{t.machine, nullptr});
      return;
    }
    const std::uint32_t message = channel.mail.unlink_front(messages);
    if (channel.mail.empty()) channels.erase(key);
    push_event_locked(vnow, {.kind = Event::Kind::kResume, .dst = t.rank(),
                             .index = message, .machine = t.machine});
  }

  /// Hands `message` to the suspended receive of `rank`'s machine
  /// `index` and resumes its body. A machine that failed meanwhile is no
  /// longer its rank's running one: it drops the message and frees its
  /// slot.
  void resume_machine_locked(int rank, std::uint32_t index,
                             std::uint32_t message) {
    Message msg = messages.take(message);
    RankTransport& t = transport(rank);
    if (t.machine != index) {
      release_machine_locked(index);
      recycle(std::move(msg.payload));
      return;
    }
    t.awaiting = false;
    t.now = std::max(t.now, msg.time);
    t.inbox = std::move(msg.payload);
    t.step();
  }

  /// Withdraws a blocking recv()'s waiter that gave up (timeout or
  /// abort), so it cannot swallow a later matching message.
  void withdraw_locked(const ChannelKey& key, const RecvSlot* slot) {
    Channel* const channel = channels.find(key);
    if (channel == nullptr) return;
    channel->waiters.unlink_if(waiter_nodes, [&](std::uint32_t i) {
      if (waiter_nodes[i].slot != slot) return false;
      waiter_nodes.take(i);
      return true;
    });
    if (channel->waiters.empty() && channel->mail.empty()) channels.erase(key);
  }

  /// Drops the pending receives of every channel `drop(key)` selects,
  /// erasing channels left empty. The callers fail every machine of the
  /// selected channels' ranks first, so each machine a waiter names is
  /// failed, and its slot is freed here.
  template <typename Pred>
  void drop_waiters_locked(Pred drop) {
    std::vector<ChannelKey> emptied;
    channels.for_each([&](const ChannelKey& key, Channel& channel) {
      if (!drop(key)) return;
      channel.waiters.unlink_if(waiter_nodes, [&](std::uint32_t i) {
        const WaiterNode waiter = waiter_nodes.take(i);
        if (waiter.slot == nullptr) release_machine_locked(waiter.machine);
        return true;
      });
      if (channel.mail.empty()) emptied.push_back(key);
    });
    for (const ChannelKey& key : emptied) channels.erase(key);
  }

  // --- machine lifecycle ---

  void submit_machine_locked(int rank, CollectiveCall&& call,
                             WorkPtr&& work) {
    if (aborted.load(std::memory_order_acquire)) {
      work->finish(std::make_exception_ptr(
          CommAbortedError("submit: process group aborted")));
      return;
    }
    const std::size_t r = static_cast<std::size_t>(rank);
    if (dead[r]) {
      work->finish(std::make_exception_ptr(CommError(
          "rank " + std::to_string(rank) + " failed (injected fault)")));
      return;
    }
    const std::uint32_t index = machines.alloc();
    Machine& m = machines[index];
    m.call = std::move(call);
    m.work = std::move(work);
    RankTransport& t = transport(rank);
    m.enqueue_time = std::max(vnow, t.vclock);
    m.rank = rank;
    const bool idle = t.stream.empty();
    t.stream.link(machines, index);
    if (idle) schedule_start_locked(rank, m.enqueue_time);
  }

  /// Frees machine `index`'s slot, dropping the references it holds.
  void release_machine_locked(std::uint32_t index) {
    Machine& m = machines[index];
    m.work.reset();
    m.call.times.reset();
    machines.free(index);
  }

  void schedule_start_locked(int rank, double at) {
    push_event_locked(at, {.kind = Event::Kind::kStart, .dst = rank});
  }

  void start_stream_locked(int rank) {
    RankTransport& t = transport(rank);
    if (t.stream.empty() || t.machine == t.stream.head) return;
    Machine& m = machines[t.stream.head];
    t.machine = t.stream.head;
    t.call = std::move(m.call);
    t.start_time = t.now = std::max(vnow, m.enqueue_time);
    t.body = collective_body(t, t.call);
    t.step();
  }

  /// Fails machine `index` with a CommTimeoutError reading
  /// "<op>: rank <r> <what> (tag=<tag>)<why>".
  void fail_timed_out_locked(std::uint32_t index, const std::string& what,
                             const char* why) {
    const Machine& m = machines[index];
    const RankTransport& t = transport(m.rank);
    const CollectiveCall& call = t.machine == index ? t.call : m.call;
    fail_machine_locked(
        index, std::make_exception_ptr(CommTimeoutError(
                   std::string(call.op_name) + ": rank " +
                   std::to_string(m.rank) + " " + what +
                   " (tag=" + std::to_string(call.tag) + ")" + why)));
  }

  void complete_machine_locked(std::uint32_t index) {
    Machine& m = machines[index];
    const int rank = m.rank;
    RankTransport& t = transport(rank);
    t.body = {};
    t.machine = kNil;
    t.vclock = std::max(t.vclock, t.now);
    if (t.call.times) {
      t.call.times->begin_seconds = t.start_time;
      t.call.times->end_seconds = t.now;
      t.call.times.reset();
    }
    emit_completion_obs_locked(rank, t.call, m.enqueue_time, t.start_time,
                               t.now, /*failed=*/false);
    m.work->finish(nullptr);
    t.stream.unlink_front(machines);
    release_machine_locked(index);
    if (!t.stream.empty()) schedule_start_locked(rank, t.now);
  }

  /// Fails a machine of some rank's stream.
  void fail_machine_locked(std::uint32_t index, std::exception_ptr error) {
    Machine& m = machines[index];
    const int rank = m.rank;
    RankTransport& t = transport(rank);
    const bool running = t.machine == index;
    m.awaited = running && t.awaiting;
    if (running) {
      t.body = {};
      t.machine = kNil;
      t.awaiting = false;
      t.call.times.reset();
    }
    if (!m.work->is_completed()) {
      // A machine that never started reports start = end = 0.
      emit_completion_obs_locked(rank, running ? t.call : m.call,
                                 m.enqueue_time, running ? t.start_time : 0.0,
                                 running ? t.now : 0.0, /*failed=*/true);
      m.work->finish(std::move(error));
    }
    const bool was_front = t.stream.head == index;
    t.stream.unlink_if(machines,
                       [index](std::uint32_t i) { return i == index; });
    if (was_front && !t.stream.empty()) schedule_start_locked(rank, vnow);
    if (!m.awaited) release_machine_locked(index);
  }

  void emit_completion_obs_locked(int rank, const CollectiveCall& call,
                                  double enqueue_time, double start_time,
                                  double end_time, bool failed) {
    if (!scope.enabled()) return;
    const obs::Scope row = scope.for_rank(obs::kCommTidBase + rank);
    const double queue_us = (start_time - enqueue_time) * 1e6;
    if (scope.tracing() && !failed) {
      if (!transport(rank).row_named) {
        row.thread_name("rank " + std::to_string(rank) + " comm");
        transport(rank).row_named = true;
      }
      row.complete_span("comm", call.op_name, start_time,
                        end_time - start_time,
                        obs::ArgList()
                            .add("tag", static_cast<std::int64_t>(call.tag))
                            .add("queue_us", queue_us));
    }
    if (scope.metrics() != nullptr) {
      row.counter_add(failed ? "comm.ops_failed" : "comm.ops_completed", 1.0);
      row.observe("comm.queue_us", queue_us);
      row.observe("comm.run_us", (end_time - start_time) * 1e6);
    }
  }

  /// Work::WaitHook of every collective's Work; `context` is the Impl.
  static bool wait_hook(void* context, Work& work, double timeout_seconds) {
    return static_cast<Impl*>(context)->wait_for_work(work, timeout_seconds);
  }

  bool wait_for_work(Work& work, double timeout_seconds_arg) {
    if (in_pump()) {
      throw CommError("Work::wait: blocking wait inside an event handler");
    }
    std::unique_lock<std::mutex> lock(mu);
    return pump_until(
        lock, [&] { return work.is_completed(); }, timeout_seconds_arg,
        [&] {
          // Group-timeout stall: the machine is stuck awaiting a peer
          // that will never show up -- the event-world analogue of a
          // mailbox recv timing out. A pending Work's machine is in
          // some rank's stream.
          for (int r = 0; r < size; ++r) {
            for (std::uint32_t i = transport(r).stream.head; i != kNil;
                 i = machines[i].next) {
              if (machines[i].work.get() != &work) continue;
              fail_timed_out_locked(i,
                                    "timed out after " +
                                        std::to_string(timeout_seconds) +
                                        "s of scheduler idleness",
                                    "; peer dead or hung");
              return;
            }
          }
        },
        "wait", -1);
  }

  void abort_locked() {
    aborted.store(true, std::memory_order_release);
    const auto error = std::make_exception_ptr(
        CommAbortedError("pending work cancelled: process group aborted"));
    for (int r = 0; r < size; ++r) {
      RankTransport& t = transport(r);
      for (std::uint32_t i = t.stream.head; i != kNil; i = machines[i].next) {
        if (!machines[i].work->is_completed()) machines[i].work->finish(error);
      }
      t.stream = {};
      t.body = {};
      t.machine = kNil;
      t.awaiting = false;
      t.call = {};
    }
    machines.clear();
    channels.clear();
    waiter_nodes.clear();
    queue.clear();
    records.clear();
    tasks.clear();
    messages.clear();
  }
};

thread_local EventBackend::Impl* EventBackend::Impl::tl_pump = nullptr;

// --- EventBackend public surface ---

EventBackend::EventBackend(const GroupOptions& options)
    : impl_(std::make_unique<Impl>(options)) {
  Impl& b = *impl_;
  const auto n = static_cast<std::size_t>(options.size);
  b.dead.assign(n, 0);
  b.frames.resize(n);
  b.transports = std::make_unique<std::optional<Impl::RankTransport>[]>(n);
  for (int r = 0; r < options.size; ++r) b.transports[r].emplace(b, r);
}

EventBackend::~EventBackend() {
  abort();
  // A pending Work's wait() would call Impl::wait_hook on the destroyed
  // Impl: abort() has finished every Work this backend handed out.
  for (int r = 0; r < impl_->size; ++r) {
    assert(impl_->transport(r).stream.empty());
  }
}

RetryStats EventBackend::retry_stats() const {
  return impl_->locked([&] { return impl_->retry_totals; });
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
                  std::max(b.transport(src).vclock, b.vnow));
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
    Impl::Message msg = b.messages.take(channel->mail.unlink_front(b.messages));
    if (channel->mail.empty()) b.channels.erase(key);
    double& clock = b.transport(dst).vclock;
    clock = std::max(clock, msg.time);
    return std::move(msg.payload);
  }
  Impl::RecvSlot slot;
  b.channels[key].waiters.push(b.waiter_nodes, Impl::WaiterNode{kNil, &slot});
  try {
    b.pump_until(
        lock, [&] { return slot.filled; }, /*explicit timeout*/ 0.0,
        [&] {
          throw CommTimeoutError(
              std::string(op) + ": rank " + std::to_string(dst) +
              " timed out after " + std::to_string(b.timeout_seconds) +
              "s waiting for message (src=" + std::to_string(src) +
              ", tag=" + std::to_string(tag) + "); peer dead or hung");
        },
        op, dst);
  } catch (...) {
    // A receive that gave up must not consume a later message.
    b.withdraw_locked(key, &slot);
    throw;
  }
  double& clock = b.transport(dst).vclock;
  clock = std::max(clock, slot.time);
  return std::move(slot.payload);
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
      std::max(b.transport(rank).vclock, b.vnow));
  if (++b.barrier_waiting == b.size) {
    b.barrier_waiting = 0;
    ++b.barrier_generation;
    const double release = b.barrier_max;
    b.barrier_max = 0.0;
    for (int r = 0; r < b.size; ++r) {
      b.transport(r).vclock = std::max(b.transport(r).vclock, release);
    }
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
            std::to_string(b.timeout_seconds) + "s; some rank never arrived");
      },
      "barrier", rank);
}

WorkPtr EventBackend::run_collective(int rank, CollectiveCall call) {
  Impl& b = *impl_;
  auto work = std::make_shared<Work>();
  work->set_wait_hook(&Impl::wait_hook, &b);
  b.change(
      [&] { b.submit_machine_locked(rank, std::move(call), WorkPtr(work)); });
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
    const auto error = std::make_exception_ptr(CommError(
        "rank " + std::to_string(rank) + " failed (injected fault)"));
    const Fifo& stream = b.transport(rank).stream;
    while (!stream.empty()) b.fail_machine_locked(stream.head, error);
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
  for (int r = 0; r < b.size; ++r) {
    const Fifo& stream = b.transport(r).stream;
    while (!stream.empty()) {
      b.fail_timed_out_locked(stream.head, "stranded",
                              ": event queue ran dry before every rank "
                              "joined the collective");
      ++stats.works_stranded;
    }
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
