#include "comm/bucket.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace cannikin::comm {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

std::vector<Bucket> make_buckets(std::size_t total_elements,
                                 std::size_t bucket_capacity) {
  if (bucket_capacity == 0) {
    throw std::invalid_argument("make_buckets: zero capacity");
  }
  std::vector<Bucket> buckets;
  if (total_elements == 0) return buckets;

  // Walk from the end of the flat gradient toward the front, so bucket 0
  // holds the tail (ready first during backprop).
  std::size_t remaining = total_elements;
  while (remaining > 0) {
    const std::size_t len = std::min(bucket_capacity, remaining);
    remaining -= len;
    buckets.push_back({remaining, len});
  }
  return buckets;
}

BucketReducer::BucketReducer(Communicator comm, std::span<double> gradient,
                             double weight,
                             const std::vector<Bucket>& buckets,
                             std::uint64_t base_tag)
    : comm_(comm),
      gradient_(gradient),
      weight_(weight),
      buckets_(buckets),
      base_tag_(base_tag) {
  remaining_.reserve(buckets_.size());
  for (const Bucket& bucket : buckets_) {
    if (bucket.offset + bucket.length > gradient_.size()) {
      throw std::out_of_range("BucketReducer: bucket out of range");
    }
    remaining_.push_back(bucket.length);
  }
  works_.resize(buckets_.size());
  timings_.resize(buckets_.size());
}

BucketReducer::~BucketReducer() {
  // Error-path safety: the progress thread may still be reducing into
  // the gradient buffer; never let it outlive the buffer. The trainer
  // aborts the group before unwinding, so these waits are bounded.
  for (auto& work : works_) {
    if (work) {
      try {
        work->wait();
      } catch (...) {
        // The first failure was already reported by finish().
      }
    }
  }
}

void BucketReducer::launch(std::size_t index) {
  const Bucket& bucket = buckets_[index];
  auto timing = std::make_shared<OpTimes>();
  timings_[index] = timing;
  const auto sub = gradient_.subspan(bucket.offset, bucket.length);
  const std::uint64_t tag = base_tag_ + index;
  const obs::Scope scope = comm_.scope();
  if (scope.tracing()) {
    // Worker-row marker pairing this bucket with the span the comm
    // engine will emit for the same wire tag.
    scope.instant("reducer", "bucket_launch",
                  obs::ArgList()
                      .add("bucket", static_cast<std::int64_t>(index))
                      .add("tag", static_cast<std::int64_t>(tag))
                      .add("elements", static_cast<std::int64_t>(sub.size())));
  }
  works_[index] = comm_.backend().run_collective(
      comm_.rank(), {.algorithm = CollectiveCall::Algorithm::kRingAllReduce,
                     .tag = tag, .op_name = "bucket_all_reduce", .data = sub,
                     .weight = weight_, .times = std::move(timing)});
  ++launched_;
}

void BucketReducer::mark_ready(std::size_t offset, std::size_t length) {
  if (finished_) {
    throw std::logic_error("BucketReducer: mark_ready after finish");
  }
  if (offset + length > gradient_.size()) {
    throw std::out_of_range("BucketReducer: ready range out of range");
  }
  const std::size_t end = offset + length;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& bucket = buckets_[i];
    const std::size_t lo = std::max(offset, bucket.offset);
    const std::size_t hi = std::min(end, bucket.offset + bucket.length);
    if (lo >= hi) continue;
    const std::size_t covered = hi - lo;
    if (covered > remaining_[i]) {
      throw std::invalid_argument(
          "BucketReducer: gradient range marked ready twice");
    }
    remaining_[i] -= covered;
    if (remaining_[i] == 0 && !works_[i]) launch(i);
  }
}

BucketReducer::Stats BucketReducer::finish() {
  if (finished_) throw std::logic_error("BucketReducer: finish called twice");
  finished_ = true;

  Stats stats;
  stats.num_buckets = buckets_.size();
  stats.buckets_overlapped = launched_;

  // Ranks that produced no gradients (empty local batch) still owe the
  // collective their zero contribution: launch whatever never filled.
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (!works_[i]) launch(i);
  }

  const obs::Scope scope = comm_.scope();
  const auto wait_begin = Clock::now();
  std::exception_ptr first_error;
  {
    obs::SpanGuard wait_span;
    if (scope.tracing()) {
      wait_span = scope.span(
          "reducer", "reduce_wait",
          obs::ArgList().add("buckets_overlapped",
                             static_cast<std::int64_t>(
                                 stats.buckets_overlapped)));
    }
    for (auto& work : works_) {
      try {
        work->wait();
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
          // Watchdog behaviour: one failed bucket means the collective is
          // broken group-wide. Abort now so the remaining Works (and our
          // peers) fail fast instead of each riding out its own timeout.
          comm_.abort();
        }
      }
    }
  }
  stats.exposed_wait_seconds = seconds_between(wait_begin, Clock::now());
  if (scope.metrics() != nullptr) {
    scope.observe("reducer.exposed_wait_us",
                  stats.exposed_wait_seconds * 1e6);
    scope.counter_add("reducer.buckets_reduced",
                      static_cast<double>(stats.num_buckets));
    scope.counter_add("reducer.buckets_overlapped",
                      static_cast<double>(stats.buckets_overlapped));
  }
  if (first_error) std::rethrow_exception(first_error);

  double latest = -std::numeric_limits<double>::infinity();
  for (const auto& timing : timings_) {
    stats.total_comm_seconds += timing->seconds();
    if (timing->end_seconds >= latest) {
      latest = timing->end_seconds;
      stats.last_bucket_seconds = timing->seconds();
    }
  }
  return stats;
}

}  // namespace cannikin::comm
