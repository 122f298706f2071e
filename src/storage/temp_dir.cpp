#include "storage/temp_dir.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

namespace stabletext {

namespace fs = std::filesystem;

namespace {
std::atomic<uint64_t> g_counter{0};
// Names tried before giving up; a name is only retried when it exists.
constexpr int kMaxCreateAttempts = 16;
}  // namespace

TempDir::TempDir(const std::string& tag) {
  std::error_code ec;
  const fs::path base = fs::temp_directory_path(ec);
  if (ec) {
    status_ = Status::IOError("no usable temp directory: " + ec.message());
    return;
  }
  const uint64_t id = g_counter.fetch_add(1);
  for (int attempt = 0; attempt < kMaxCreateAttempts; ++attempt) {
    // getpid() keeps parallel ctest processes from colliding.
    const fs::path dir =
        base / (tag + "." + std::to_string(::getpid()) + "." +
                std::to_string(id) + "." + std::to_string(attempt));
    if (fs::create_directory(dir, ec)) {
      path_ = dir.string();
      return;
    }
    if (ec) break;  // Not a name clash: another name will not help.
  }
  status_ = Status::IOError("cannot create a scratch directory under " +
                            base.string() +
                            (ec ? ": " + ec.message() : std::string()));
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  // A destructor cannot return a Status; at least make the leak visible.
  Status s = Cleanup();
  if (!s.ok()) {
    std::fprintf(stderr, "TempDir: %s\n", s.ToString().c_str());
  }
}

Status TempDir::Cleanup() {
  if (path_.empty()) return Status::OK();
  std::error_code ec;
  fs::remove_all(path_, ec);
  if (ec) {
    return Status::IOError("failed to remove " + path_ + ": " +
                           ec.message());
  }
  path_.clear();
  return Status::OK();
}

std::string TempDir::FilePath(const std::string& name) const {
  return (fs::path(path_) / name).string();
}

}  // namespace stabletext
