// RAII scratch directory for spill files, sort runs and test fixtures.

#ifndef STABLETEXT_STORAGE_TEMP_DIR_H_
#define STABLETEXT_STORAGE_TEMP_DIR_H_

#include <string>

#include "util/status.h"

namespace stabletext {

/// \brief A unique directory under the system temp path, removed
/// (recursively) on destruction.
///
/// Spilling structures (ExternalSorter, SpillableStack) construct theirs at
/// their first spill, so work that stays in memory never needs a usable
/// TMPDIR.
class TempDir {
 public:
  /// Creates the directory. Never throws and tries a bounded number of
  /// names: when the temp path is missing or unusable, path() stays empty
  /// and status() says why.
  /// \param tag human-readable component embedded in the directory name.
  explicit TempDir(const std::string& tag = "stabletext");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// OK when the constructor created the directory; IOError otherwise.
  const Status& status() const { return status_; }

  /// Absolute path of the directory (no trailing separator); empty when
  /// creation failed or after Cleanup().
  const std::string& path() const { return path_; }

  /// Returns path()/name.
  std::string FilePath(const std::string& name) const;

  /// Removes the directory tree now, reporting failure instead of hiding
  /// it. Idempotent; the destructor becomes a no-op afterwards. Callers
  /// that care whether scratch space was actually reclaimed (tests, the
  /// CLI) should use this; the destructor can only warn on stderr.
  Status Cleanup();

 private:
  std::string path_;
  Status status_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STORAGE_TEMP_DIR_H_
