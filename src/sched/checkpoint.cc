#include "sched/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"

namespace cannikin::sched {

namespace fs = std::filesystem;

namespace {

constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".bin";

bool is_checkpoint_name(const std::string& name) {
  return name.rfind(kFilePrefix, 0) == 0 && name.size() > sizeof(kFileSuffix) &&
         name.compare(name.size() + 1 - sizeof(kFileSuffix),
                      sizeof(kFileSuffix) - 1, kFileSuffix) == 0;
}

// Sequence number embedded in "ckpt-<seq>-e<epoch>.bin"; 0 if absent.
std::uint64_t sequence_of(const std::string& name) {
  std::uint64_t seq = 0;
  std::sscanf(name.c_str(), "ckpt-%lu-", &seq);  // NOLINT
  return seq;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw common::SerializeError("checkpoint: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::string Checkpoint::serialize() const {
  common::BinaryWriter body;
  body.i32(epochs);
  body.f64(progress);
  body.ints(allocation);
  body.f64(network_scale);
  body.doubles(node_contention);
  body.i32(crash_recoveries);
  body.i32(warm_reallocations);
  body.i32(node_rejoins);
  body.f64(recovery_overhead_seconds);
  body.str(bank_text);
  core::save_controller_state(body, controller);
  body.str(payload_kind);
  body.str(payload);
  return common::frame_checkpoint(body.buffer(), kFormatVersion);
}

Checkpoint Checkpoint::deserialize(std::string_view file_bytes) {
  const std::string body =
      common::unframe_checkpoint(file_bytes, kFormatVersion);
  common::BinaryReader in(body);
  Checkpoint ckpt;
  ckpt.epochs = in.i32();
  ckpt.progress = in.f64();
  ckpt.allocation = in.ints();
  ckpt.network_scale = in.f64();
  ckpt.node_contention = in.doubles();
  ckpt.crash_recoveries = in.i32();
  ckpt.warm_reallocations = in.i32();
  ckpt.node_rejoins = in.i32();
  ckpt.recovery_overhead_seconds = in.f64();
  ckpt.bank_text = in.str();
  ckpt.controller = core::load_controller_state(in);
  ckpt.payload_kind = in.str();
  ckpt.payload = in.str();
  if (!in.exhausted()) {
    throw common::SerializeError("checkpoint: trailing bytes in body");
  }
  if (ckpt.epochs < 0 || ckpt.progress < 0.0) {
    throw common::SerializeError("checkpoint: negative progress fields");
  }
  for (int id : ckpt.allocation) {
    if (id < 0) {
      throw common::SerializeError("checkpoint: negative node id");
    }
  }
  return ckpt;
}

CheckpointStore::CheckpointStore(std::string dir, int keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last) {
  if (dir_.empty()) {
    throw std::invalid_argument("CheckpointStore: empty directory");
  }
  if (keep_last_ < 1) {
    throw std::invalid_argument("CheckpointStore: keep_last must be >= 1");
  }
  fs::create_directories(dir_);
  // Resume the sequence counter past any existing checkpoints so a
  // restarted supervisor keeps newest-first ordering monotonic.
  for (const std::string& path : list()) {
    seq_ = std::max(seq_, sequence_of(fs::path(path).filename().string()));
  }
}

std::string CheckpointStore::save(const Checkpoint& ckpt) {
  const std::string bytes = ckpt.serialize();
  ++seq_;
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%08llu-e%06d.bin",
                static_cast<unsigned long long>(seq_), ckpt.epochs);
  const fs::path final_path = fs::path(dir_) / name;
  const fs::path tmp_path = final_path.string() + ".tmp";

  // Write-to-temp + fsync + rename: a crash at any point leaves either
  // the previous checkpoint set intact or the new file fully written.
  {
    std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
    if (f == nullptr) {
      throw std::runtime_error("CheckpointStore: cannot create " +
                               tmp_path.string());
    }
    const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fflush(f) == 0;
    const bool synced = ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed || !synced) {
      std::error_code ec;
      fs::remove(tmp_path, ec);
      throw std::runtime_error("CheckpointStore: short write to " +
                               tmp_path.string());
    }
  }
  fs::rename(tmp_path, final_path);
  bytes_written_ += bytes.size();
  prune();
  return final_path.string();
}

std::vector<std::string> CheckpointStore::list() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && is_checkpoint_name(name)) {
      names.push_back(name);
    }
  }
  // Zero-padded sequence numbers sort lexicographically; newest first.
  std::sort(names.begin(), names.end(), std::greater<>());
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& name : names) {
    paths.push_back((fs::path(dir_) / name).string());
  }
  return paths;
}

std::optional<Checkpoint> CheckpointStore::load_latest(
    std::vector<std::string>* skipped) const {
  for (const std::string& path : list()) {
    try {
      return Checkpoint::deserialize(read_file(path));
    } catch (const common::SerializeError& error) {
      // Corrupt, truncated, or wrong-version file: fall back to the
      // next-newest good checkpoint -- but never silently, or an
      // operator cannot tell routine restores from storage rot.
      LOG_WARN << "CheckpointStore: skipping corrupt checkpoint " << path
               << " (" << error.what() << ")";
      scope_.counter_add("sched.checkpoint.skipped_corrupt", 1);
      if (skipped != nullptr) skipped->push_back(path);
    }
  }
  return std::nullopt;
}

std::string CheckpointStore::flip_bit_in_latest(std::uint64_t salt) const {
  const std::vector<std::string> paths = list();
  if (paths.empty()) return {};
  const std::string& path = paths.front();
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const common::SerializeError&) {
    return {};
  }
  if (bytes.empty()) return {};
  const std::size_t byte_index = salt % bytes.size();
  bytes[byte_index] ^= static_cast<char>(1 << (salt / bytes.size() % 8));
  // In-place overwrite, deliberately *not* the atomic temp+rename
  // protocol: we are simulating storage rot, not a clean writer.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

void CheckpointStore::prune() const {
  const std::vector<std::string> paths = list();
  for (std::size_t i = static_cast<std::size_t>(keep_last_); i < paths.size();
       ++i) {
    std::error_code ec;
    fs::remove(paths[i], ec);
  }
}

}  // namespace cannikin::sched
