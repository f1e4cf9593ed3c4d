// Durable training-job checkpoints with atomic writes and retention.
//
// A Checkpoint is the composed restart state of an elastic Cannikin
// job: scalar progress (epochs, progress fraction), the allocation and
// the accumulated cluster damage (contention, network scale), the
// per-type ModelBank, the live controller's learned state, and an
// optional opaque payload for a real-training TrainerState. It
// serializes through the common framed format (magic, version, length,
// CRC), so truncated or bit-flipped files are detected and rejected at
// load time rather than silently restoring garbage.
//
// CheckpointStore implements the crash-safe file protocol:
//   * save() writes to `<name>.tmp` in the same directory, fsyncs, then
//     renames over the final `ckpt-<epoch>-<seq>.bin` -- a crash
//     mid-write leaves at worst a stale .tmp, never a half-written
//     checkpoint under the real name;
//   * load_latest() walks files newest-first and skips (reporting, not
//     crashing on) any that fail validation, so one corrupt file
//     degrades to the previous good checkpoint;
//   * keep-last-K retention prunes old checkpoints after each save.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "obs/scope.h"

namespace cannikin::sched {

struct Checkpoint {
  static constexpr std::uint32_t kFormatVersion = 1;

  // -- job progress ------------------------------------------------
  int epochs = 0;
  double progress = 0.0;
  std::vector<int> allocation;  ///< full-cluster node ids, rank order

  // -- accumulated cluster damage (faults persist across restarts) --
  double network_scale = 1.0;
  std::vector<double> node_contention;  ///< one entry per full-cluster node

  // -- observability counters, for trace continuity -----------------
  int crash_recoveries = 0;
  int warm_reallocations = 0;
  int node_rejoins = 0;
  double recovery_overhead_seconds = 0.0;

  // -- learned state ------------------------------------------------
  std::string bank_text;  ///< ModelBank::serialize(), may be empty
  core::ControllerState controller;

  // -- optional real-training payload -------------------------------
  std::string payload_kind;  ///< e.g. "trainer-state"; empty when unused
  std::string payload;       ///< e.g. dnn::serialize_trainer_state()

  /// Framed file bytes (version kFormatVersion).
  std::string serialize() const;
  /// Parses serialize() output; throws common::SerializeError on any
  /// corruption, truncation, or structural mismatch.
  static Checkpoint deserialize(std::string_view file_bytes);
};

class CheckpointStore {
 public:
  /// Creates `dir` if needed. `keep_last` >= 1 bounds retention.
  explicit CheckpointStore(std::string dir, int keep_last = 3);

  const std::string& dir() const { return dir_; }
  int keep_last() const { return keep_last_; }

  /// Instrumentation: load_latest bumps `sched.checkpoint.skipped_corrupt`
  /// (and logs the path) for every corrupt file it skips.
  void set_scope(obs::Scope scope) { scope_ = scope; }

  /// Atomically persists `ckpt`; returns the final file path. Prunes
  /// checkpoints beyond keep_last afterwards.
  std::string save(const Checkpoint& ckpt);

  /// Serialized bytes of every checkpoint save() has written.
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Checkpoint file paths, newest first.
  std::vector<std::string> list() const;

  /// Loads the newest checkpoint that validates. File names of corrupt
  /// or unreadable checkpoints that were skipped are appended to
  /// `*skipped` when non-null. nullopt when no usable checkpoint exists.
  std::optional<Checkpoint> load_latest(
      std::vector<std::string>* skipped = nullptr) const;

  /// Fault-injection hook (kCheckpointCorrupt): XORs one bit into the
  /// newest checkpoint file on disk, which the framed format's CRC
  /// must catch at the next load. `salt` varies the flipped bit.
  /// Returns the damaged path, or empty when no checkpoint exists.
  std::string flip_bit_in_latest(std::uint64_t salt = 0) const;

 private:
  void prune() const;

  std::string dir_;
  int keep_last_;
  obs::Scope scope_;
  std::uint64_t seq_ = 0;  ///< tie-breaker for same-epoch checkpoints
  std::uint64_t bytes_written_ = 0;
};

}  // namespace cannikin::sched
