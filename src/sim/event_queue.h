// Deterministic discrete-event queue: the scheduling core of the
// event-driven comm backend and of the fleet simulator.
//
// Events pop in (time, insertion-sequence) order. The sequence
// tie-break is what makes whole-run determinism fall out for free:
// simultaneous events (same virtual time) always replay in the order
// they were scheduled, so two runs of the same program produce the
// same event interleaving, the same floating-point reduction order,
// and bitwise-identical tensors.
//
// Most pushes arrive nearly in time order: zero-delay events at the
// current time, and deliveries whose delay is one of a few link costs.
// So the queue keeps two sorted runs (FIFOs whose times never
// decrease; seq increases by construction) beside a 4-ary min-heap. A
// push appends to the first run it does not unsort, and only the rest
// pay a heap insertion; pop() takes the earliest of the three fronts.
// On a 1024-rank tree all-reduce about four in five events bypass the
// heap.
//
// Not thread-safe by itself; the event backend serializes access under
// its scheduler mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cannikin::sim {

template <typename Event>
class EventQueue {
 public:
  void push(double time, Event event) {
    Entry entry{time, next_seq_++, std::move(event)};
    for (Run& run : runs_) {
      if (run.empty() || run.entries.back().time <= time) {
        run.entries.push_back(std::move(entry));
        return;
      }
    }
    heap_push(std::move(entry));
  }

  bool empty() const { return size() == 0; }

  std::size_t size() const {
    std::size_t n = heap_.size();
    for (const Run& run : runs_) n += run.entries.size() - run.head;
    return n;
  }

  /// Virtual time of the earliest pending event.
  double next_time() const {
    if (empty()) throw std::logic_error("EventQueue::next_time: empty");
    const int run = earliest_run();
    return run < 0 ? heap_.front().time : runs_[run].front().time;
  }

  /// Removes and returns the earliest (time, seq) event.
  std::pair<double, Event> pop() {
    if (empty()) throw std::logic_error("EventQueue::pop: empty");
    const int run = earliest_run();
    Entry entry = run < 0 ? heap_pop() : runs_[run].pop();
    return {entry.time, std::move(entry.event)};
  }

  /// Drops every pending event; the sequence keeps counting.
  void clear() {
    heap_.clear();
    for (Run& run : runs_) run = Run{};
  }

 private:
  struct Entry {
    double time = 0.0;
    std::uint64_t seq = 0;
    Event event;
  };

  /// Pending entries entries[head..], in (time, seq) order.
  struct Run {
    std::vector<Entry> entries;
    std::size_t head = 0;

    bool empty() const { return head == entries.size(); }
    const Entry& front() const { return entries[head]; }

    Entry pop() {
      Entry entry = std::move(entries[head++]);
      if (empty()) {
        entries.clear();
        head = 0;
      } else if (head >= 64 && head * 2 >= entries.size()) {
        // A run that never drains is compacted, so it stays O(pending).
        entries.erase(entries.begin(),
                      entries.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return entry;
    }
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// The run holding the earliest front, or -1 for the heap.
  int earliest_run() const {
    int best = -1;
    const Entry* first = heap_.empty() ? nullptr : &heap_.front();
    for (int i = 0; i < kRuns; ++i) {
      if (runs_[i].empty()) continue;
      if (first == nullptr || earlier(runs_[i].front(), *first)) {
        first = &runs_[i].front();
        best = i;
      }
    }
    return best;
  }

  void heap_push(Entry entry) {
    std::size_t i = heap_.size();
    heap_.push_back(std::move(entry));
    Entry moving = std::move(heap_.back());
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(moving, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(moving);
  }

  Entry heap_pop() {
    Entry top = std::move(heap_.front());
    Entry moving = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], moving)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(moving);
    return top;
  }

  static constexpr int kRuns = 2;
  static constexpr std::size_t kArity = 4;

  Run runs_[kRuns];
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cannikin::sim
