// Hermetic scratch directories for anything that touches files: tests,
// and the fleet / chaos runs when the caller names no directory. Each
// TempDir is a fresh mkdtemp directory under the system temp path:
// unique across processes and across runs in parallel (ctest -j, two
// same-seed simulations on two threads), so no two users ever share,
// clean or race on one path. The directory and its contents are
// removed on destruction.
#pragma once

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace cannikin {

class TempDir {
 public:
  explicit TempDir(const std::string& stem = "cannikin-test") {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (stem + "-XXXXXX")).string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + pattern);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace cannikin
