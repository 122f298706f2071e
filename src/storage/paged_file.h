// PagedFile: the simulated-disk primitive. A real file accessed in fixed-size
// pages through an LRU buffer pool of configurable capacity. Capacity 0
// reproduces the paper's experimental environment ("the page cache was
// disabled during the experiments"): every logical access becomes a physical
// one and is charged to IoStats.

#ifndef STABLETEXT_STORAGE_PAGED_FILE_H_
#define STABLETEXT_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <cstdio>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/io_stats.h"
#include "util/status.h"

namespace stabletext {

/// Options controlling a PagedFile.
struct PagedFileOptions {
  size_t page_size = 4096;     ///< Bytes per page.
  size_t cache_pages = 0;      ///< LRU buffer-pool capacity; 0 disables it.
  bool truncate = false;       ///< Start from an empty file.
  /// Fault injection (tests): after this many physical operations, every
  /// further physical read/write fails with IOError. 0 disables.
  uint64_t fail_after_physical_ops = 0;
};

/// \brief Page-granular file with an LRU buffer pool and I/O accounting.
///
/// All reads/writes are whole pages. Dirty pages are written back on
/// eviction and on Flush()/close. Sequentiality is tracked so IoStats can
/// distinguish sequential scans from random probes: an access to page p is a
/// random seek unless the previous physical access was to page p-1 or p.
class PagedFile {
 public:
  PagedFile() = default;
  ~PagedFile();

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Opens (creating if necessary) the file at `path`.
  /// `stats` may be null; if provided it must outlive the PagedFile.
  Status Open(const std::string& path, const PagedFileOptions& options,
              IoStats* stats);

  /// Writes back dirty pages and closes, surfacing flush *and* fclose
  /// failures as Status (a close that loses buffered bytes is an
  /// IOError, not a silent success). Idempotent.
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  size_t page_size() const { return options_.page_size; }

  /// Number of pages currently in the file (including cached appends).
  uint64_t PageCount() const { return page_count_; }

  /// Reads page `page_no` into `out` (resized to page_size). Reading a page
  /// at or beyond PageCount() is an error.
  Status ReadPage(uint64_t page_no, std::vector<uint8_t>* out);

  /// Writes a full page. `data` must be exactly page_size bytes. Writing at
  /// PageCount() appends; writing beyond it is an error.
  Status WritePage(uint64_t page_no, const uint8_t* data);

  /// Writes back all dirty cached pages.
  Status Flush();

 private:
  struct Frame {
    std::vector<uint8_t> data;
    bool dirty = false;
  };

  Status PhysicalRead(uint64_t page_no, uint8_t* out);
  Status PhysicalWrite(uint64_t page_no, const uint8_t* data);
  Status EvictIfFull();
  void Touch(uint64_t page_no);
  void NoteAccess(uint64_t page_no);

  std::FILE* file_ = nullptr;
  std::string path_;
  PagedFileOptions options_;
  IoStats* stats_ = nullptr;
  uint64_t page_count_ = 0;
  uint64_t physical_ops_ = 0;
  // LRU: front = most recent. Map values point into lru_.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t,
                     std::pair<Frame, std::list<uint64_t>::iterator>>
      cache_;
  uint64_t last_physical_page_ = UINT64_MAX;
};

}  // namespace stabletext

#endif  // STABLETEXT_STORAGE_PAGED_FILE_H_
