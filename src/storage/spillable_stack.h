// SpillableStack: the edge stack of Algorithm 1. Section 3 of the paper:
// "Since the data structure in memory is a stack with well defined access
// patterns, it can be efficiently paged to secondary storage if its size
// exceeds available resources."
//
// The stack keeps a hot window of entries in memory; when the window
// overflows, the coldest (bottom-most) block is spilled to a paged file and
// read back only when the stack shrinks into it.

#ifndef STABLETEXT_STORAGE_SPILLABLE_STACK_H_
#define STABLETEXT_STORAGE_SPILLABLE_STACK_H_

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/paged_file.h"
#include "storage/temp_dir.h"
#include "util/status.h"

namespace stabletext {

/// Options for SpillableStack.
struct SpillableStackOptions {
  /// Maximum in-memory entries before spilling. Must be at least
  /// 2 * block_entries.
  size_t memory_entries = 1 << 16;
  /// Entries moved to/from disk per spill/unspill operation.
  size_t block_entries = 1 << 12;
  size_t page_size = 4096;
  /// Fault injection for tests; see PagedFileOptions.
  uint64_t fail_after_physical_ops = 0;
};

/// \brief LIFO stack of trivially-copyable entries that pages its cold end
/// to secondary storage.
template <typename T>
class SpillableStack {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpillableStack requires trivially copyable entries");

 public:
  explicit SpillableStack(SpillableStackOptions options = {},
                          IoStats* stats = nullptr)
      : options_(options), stats_(stats) {
    assert(options_.memory_entries >= 2 * options_.block_entries);
    per_page_ = options_.page_size / sizeof(T);
    assert(per_page_ > 0);
  }

  /// Pushes an entry, spilling the cold end if the hot window is full.
  Status Push(const T& value) {
    hot_.push_back(value);
    ++size_;
    if (hot_.size() > options_.memory_entries) ST_RETURN_IF_ERROR(Spill());
    return Status::OK();
  }

  /// Pops into *out. Popping an empty stack is an error.
  Status Pop(T* out) {
    if (size_ == 0) return Status::InvalidArgument("pop from empty stack");
    if (hot_.empty()) ST_RETURN_IF_ERROR(Unspill());
    *out = hot_.back();
    hot_.pop_back();
    --size_;
    return Status::OK();
  }

  /// Reads the top entry without popping.
  Status Top(T* out) {
    if (size_ == 0) return Status::InvalidArgument("top of empty stack");
    if (hot_.empty()) ST_RETURN_IF_ERROR(Unspill());
    *out = hot_.back();
    return Status::OK();
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Entries currently resident in memory (for memory experiments).
  size_t hot_entries() const { return hot_.size(); }
  /// Entries currently spilled to disk.
  size_t cold_entries() const { return cold_count_; }

 private:
  Status EnsureFile() {
    if (file_.is_open()) return Status::OK();
    if (!scratch_) scratch_.emplace("st_stack");
    ST_RETURN_IF_ERROR(scratch_->status());
    PagedFileOptions opt;
    opt.page_size = options_.page_size;
    opt.cache_pages = 0;  // Spill traffic is always physical.
    opt.truncate = true;
    opt.fail_after_physical_ops = options_.fail_after_physical_ops;
    return file_.Open(scratch_->FilePath("stack.spill"), opt, stats_);
  }

  // Moves the bottom block_entries of the hot window to disk.
  Status Spill() {
    ST_RETURN_IF_ERROR(EnsureFile());
    const size_t n = options_.block_entries;
    std::vector<uint8_t> page(options_.page_size, 0);
    size_t in_page = 0;
    uint64_t page_no = cold_pages_;
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(page.data() + in_page * sizeof(T), &hot_[i], sizeof(T));
      if (++in_page == per_page_ || i + 1 == n) {
        ST_RETURN_IF_ERROR(WritePageAt(page_no, page.data()));
        ++page_no;
        in_page = 0;
        std::fill(page.begin(), page.end(), 0);
      }
    }
    hot_.erase(hot_.begin(), hot_.begin() + static_cast<long>(n));
    cold_count_ += n;
    cold_pages_ = page_no;
    return Status::OK();
  }

  // Reads the most recently spilled block back into memory.
  Status Unspill() {
    assert(cold_count_ > 0);
    const size_t n = std::min(options_.block_entries, cold_count_);
    const size_t pages = (n + per_page_ - 1) / per_page_;
    const uint64_t first_page = cold_pages_ - pages;
    std::vector<T> block(n);
    std::vector<uint8_t> page;
    for (size_t p = 0; p < pages; ++p) {
      ST_RETURN_IF_ERROR(file_.ReadPage(first_page + p, &page));
      const size_t base = p * per_page_;
      const size_t take = std::min(per_page_, n - base);
      std::memcpy(block.data() + base, page.data(), take * sizeof(T));
    }
    hot_.insert(hot_.begin(), block.begin(), block.end());
    cold_count_ -= n;
    cold_pages_ = first_page;
    return Status::OK();
  }

  Status WritePageAt(uint64_t page_no, const uint8_t* data) {
    return file_.WritePage(page_no, data);
  }

  SpillableStackOptions options_;
  IoStats* stats_;
  std::optional<TempDir> scratch_;  // Created at the first spill.
  PagedFile file_;
  std::deque<T> hot_;
  size_t per_page_ = 0;
  size_t size_ = 0;
  size_t cold_count_ = 0;
  uint64_t cold_pages_ = 0;  // Number of pages currently holding cold data.
};

}  // namespace stabletext

#endif  // STABLETEXT_STORAGE_SPILLABLE_STACK_H_
