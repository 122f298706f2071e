#include "storage/paged_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

namespace stabletext {

// A destructor has nowhere to report a failed flush/close; owners that
// care about the error call Close() themselves first.
PagedFile::~PagedFile() { Close().IgnoreError(); }

Status PagedFile::Open(const std::string& path,
                       const PagedFileOptions& options, IoStats* stats) {
  if (file_ != nullptr) return Status::InvalidArgument("already open");
  if (options.page_size == 0) {
    return Status::InvalidArgument("page_size must be positive");
  }
  options_ = options;
  stats_ = stats;
  path_ = path;

  const char* mode = options.truncate ? "w+b" : "r+b";
  file_ = std::fopen(path.c_str(), mode);
  if (file_ == nullptr && !options.truncate) {
    file_ = std::fopen(path.c_str(), "w+b");  // Create if missing.
  }
  if (file_ == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IOError("cannot stat " + path);
  }
  if (size % options_.page_size != 0) {
    return Status::Corruption(path + " is not page-aligned");
  }
  page_count_ = size / options_.page_size;
  last_physical_page_ = UINT64_MAX;
  return Status::OK();
}

Status PagedFile::Close() {
  if (file_ == nullptr) return Status::OK();
  Status s = Flush();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  cache_.clear();
  lru_.clear();
  if (s.ok() && rc != 0) {
    return Status::IOError("close failed for " + path_);
  }
  return s;
}

void PagedFile::NoteAccess(uint64_t page_no) {
  if (stats_ == nullptr) return;
  if (last_physical_page_ != UINT64_MAX && page_no != last_physical_page_ &&
      page_no != last_physical_page_ + 1) {
    ++stats_->random_seeks;
  }
  last_physical_page_ = page_no;
}

Status PagedFile::PhysicalRead(uint64_t page_no, uint8_t* out) {
  if (options_.fail_after_physical_ops != 0 &&
      ++physical_ops_ > options_.fail_after_physical_ops) {
    return Status::IOError("injected fault in " + path_);
  }
  NoteAccess(page_no);
  if (std::fseek(file_,
                 static_cast<long>(page_no * options_.page_size),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed in " + path_);
  }
  if (std::fread(out, 1, options_.page_size, file_) != options_.page_size) {
    return Status::IOError("short read in " + path_);
  }
  if (stats_ != nullptr) {
    ++stats_->page_reads;
    stats_->bytes_read += options_.page_size;
  }
  return Status::OK();
}

Status PagedFile::PhysicalWrite(uint64_t page_no, const uint8_t* data) {
  if (options_.fail_after_physical_ops != 0 &&
      ++physical_ops_ > options_.fail_after_physical_ops) {
    return Status::IOError("injected fault in " + path_);
  }
  NoteAccess(page_no);
  if (std::fseek(file_,
                 static_cast<long>(page_no * options_.page_size),
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed in " + path_);
  }
  if (std::fwrite(data, 1, options_.page_size, file_) !=
      options_.page_size) {
    return Status::IOError("short write in " + path_);
  }
  if (stats_ != nullptr) {
    ++stats_->page_writes;
    stats_->bytes_written += options_.page_size;
  }
  return Status::OK();
}

void PagedFile::Touch(uint64_t page_no) {
  auto it = cache_.find(page_no);
  lru_.erase(it->second.second);
  lru_.push_front(page_no);
  it->second.second = lru_.begin();
}

Status PagedFile::EvictIfFull() {
  while (cache_.size() >= options_.cache_pages && !lru_.empty()) {
    uint64_t victim = lru_.back();
    auto it = cache_.find(victim);
    if (it->second.first.dirty) {
      ST_RETURN_IF_ERROR(
          PhysicalWrite(victim, it->second.first.data.data()));
    }
    lru_.pop_back();
    cache_.erase(it);
  }
  return Status::OK();
}

Status PagedFile::ReadPage(uint64_t page_no, std::vector<uint8_t>* out) {
  if (file_ == nullptr) return Status::InvalidArgument("file not open");
  if (page_no >= page_count_) {
    return Status::InvalidArgument("read past end: page " +
                                   std::to_string(page_no));
  }
  out->resize(options_.page_size);
  auto it = cache_.find(page_no);
  if (it != cache_.end()) {
    std::memcpy(out->data(), it->second.first.data.data(),
                options_.page_size);
    if (stats_ != nullptr) ++stats_->logical_reads;
    Touch(page_no);
    return Status::OK();
  }
  ST_RETURN_IF_ERROR(PhysicalRead(page_no, out->data()));
  if (options_.cache_pages > 0) {
    ST_RETURN_IF_ERROR(EvictIfFull());
    Frame frame;
    frame.data = *out;
    lru_.push_front(page_no);
    cache_.emplace(page_no, std::make_pair(std::move(frame), lru_.begin()));
  }
  return Status::OK();
}

Status PagedFile::WritePage(uint64_t page_no, const uint8_t* data) {
  if (file_ == nullptr) return Status::InvalidArgument("file not open");
  if (page_no > page_count_) {
    return Status::InvalidArgument("write past end: page " +
                                   std::to_string(page_no));
  }
  if (page_no == page_count_) ++page_count_;
  auto it = cache_.find(page_no);
  if (it != cache_.end()) {
    std::memcpy(it->second.first.data.data(), data, options_.page_size);
    it->second.first.dirty = true;
    Touch(page_no);
    return Status::OK();
  }
  if (options_.cache_pages > 0) {
    ST_RETURN_IF_ERROR(EvictIfFull());
    Frame frame;
    frame.data.assign(data, data + options_.page_size);
    frame.dirty = true;
    lru_.push_front(page_no);
    cache_.emplace(page_no, std::make_pair(std::move(frame), lru_.begin()));
    return Status::OK();
  }
  return PhysicalWrite(page_no, data);
}

Status PagedFile::Flush() {
  if (file_ == nullptr) return Status::OK();
  // Write back in page order to keep the write pattern sequential.
  std::vector<uint64_t> dirty;
  for (auto& [page_no, entry] : cache_) {
    if (entry.first.dirty) dirty.push_back(page_no);
  }
  std::sort(dirty.begin(), dirty.end());
  for (uint64_t page_no : dirty) {
    auto& entry = cache_[page_no];
    ST_RETURN_IF_ERROR(PhysicalWrite(page_no, entry.first.data.data()));
    entry.first.dirty = false;
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("flush failed for " + path_);
  }
  return Status::OK();
}

}  // namespace stabletext
