// Gradient bucketing, mirroring PyTorch DDP's Reducer.
//
// DDP groups gradients into fixed-capacity buckets and all-reduces each
// bucket as soon as all of its gradients are produced by the backward
// pass, overlapping communication with the remaining computation
// (Section 3.2.3 of the paper). Buckets are filled in reverse parameter
// order because backpropagation produces gradients from the last layer
// backwards.
//
// BucketReducer makes that overlap *executed* rather than modeled: the
// trainer marks gradient ranges ready as backward produces them, the
// reducer launches each bucket's weighted ring all-reduce through the
// group's comm backend the moment the bucket fills (progress thread on
// the thread backend, virtual-time state machine on the event backend),
// and finish() waits on every outstanding Work at step end, reporting
// how much communication was hidden behind compute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/collectives.h"
#include "comm/process_group.h"
#include "comm/work.h"

namespace cannikin::comm {

struct Bucket {
  std::size_t offset = 0;  ///< first element of the flat gradient
  std::size_t length = 0;  ///< number of elements in this bucket
};

/// Partitions a flat gradient of `total_elements` into buckets holding at
/// most `bucket_capacity` elements each. Buckets are returned in
/// synchronization order: bucket 0 covers the *tail* of the flat gradient
/// (the last layer's parameters, which finish first in the backward
/// pass). At least one bucket is returned for a non-empty gradient.
std::vector<Bucket> make_buckets(std::size_t total_elements,
                                 std::size_t bucket_capacity);

/// One training step's bucketized weighted all-reduce (Eq. 9
/// proportional aggregation, weight = b_i / B), overlapped with the
/// backward pass. Single-threaded use per rank: the owning worker
/// thread calls mark_ready()/finish(); the launched Works run on the
/// rank's comm progress thread. The gradient buffer must outlive the
/// reducer. Every rank must construct its reducer with the same bucket
/// layout and base tag, and buckets must fill in the same order on all
/// ranks (guaranteed when every rank runs the same model backward).
class BucketReducer {
 public:
  /// Measured communication profile of one step, the executed analogue
  /// of the simulator's (gamma, T_o, T_u) observation.
  struct Stats {
    double exposed_wait_seconds = 0.0;  ///< time finish() spent blocked
    double total_comm_seconds = 0.0;    ///< sum of per-bucket op times
    double last_bucket_seconds = 0.0;   ///< duration of the bucket that
                                        ///< completed last (T_u analogue)
    std::size_t buckets_overlapped = 0; ///< launched before finish()
    std::size_t num_buckets = 0;
  };

  /// `base_tag` must leave room for one tag per bucket; allocate it
  /// with `comm.tags().block(CollectiveKind::kBucketAllReduce, n)`.
  BucketReducer(Communicator comm, std::span<double> gradient, double weight,
                const std::vector<Bucket>& buckets, std::uint64_t base_tag);

  /// Waits (errors swallowed) for any Work still in flight so the
  /// progress thread cannot outlive the gradient buffer on error paths.
  ~BucketReducer();

  BucketReducer(const BucketReducer&) = delete;
  BucketReducer& operator=(const BucketReducer&) = delete;

  /// Declares gradient[offset, offset+length) produced by backward.
  /// Ranges may span several buckets and arrive in any order, but must
  /// not overlap previously marked ranges. Every bucket launches the
  /// moment its last element is marked.
  void mark_ready(std::size_t offset, std::size_t length);

  /// Buckets whose all-reduce has been launched so far.
  std::size_t launched() const { return launched_; }

  /// Launches every remaining bucket (covering ranks that skipped
  /// backward, e.g. an empty local batch), waits for all Works and
  /// rethrows the first failure. A failed bucket aborts the whole
  /// group (watchdog semantics) so peers and the remaining Works
  /// unwind in bounded time. Call exactly once.
  Stats finish();

 private:
  void launch(std::size_t index);

  Communicator comm_;
  std::span<double> gradient_;
  double weight_;
  std::vector<Bucket> buckets_;
  std::uint64_t base_tag_;
  std::vector<std::size_t> remaining_;
  std::vector<WorkPtr> works_;
  /// Per-bucket op times filled by the backend: wall seconds on the
  /// thread backend, virtual seconds on the event backend.
  std::vector<std::shared_ptr<OpTimes>> timings_;
  std::size_t launched_ = 0;
  bool finished_ = false;
};

}  // namespace cannikin::comm
