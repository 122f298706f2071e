// External-memory merge sort, exactly the technique Section 3 of the paper
// uses for the keyword-pair file: "This file is sorted lexicographically
// (using external memory merge sort) such that all identical keyword pairs
// appear together in the output."
//
// The sorter buffers records up to a memory budget and spills sorted runs
// to a scratch directory, created at the first spill. Run generation
// (sort + write) can be offloaded to a ThreadPool so the producer keeps
// emitting while previous runs are written. Runs are merged with a k-way
// loser tree (storage/loser_tree.h); the final partial buffer is merged
// straight from memory instead of being rewritten through a temp file.
// All spill I/O is charged to the caller's IoStats, including the
// sort-phase counters (runs spilled, merge passes, in-memory tail
// records).

#ifndef STABLETEXT_STORAGE_EXTERNAL_SORTER_H_
#define STABLETEXT_STORAGE_EXTERNAL_SORTER_H_

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/loser_tree.h"
#include "storage/record_file.h"
#include "storage/temp_dir.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace stabletext {

/// Options for ExternalSorter.
struct ExternalSorterOptions {
  /// Maximum bytes of records buffered in memory before a run is spilled.
  /// With a pool attached the budget is split across the live buffer and
  /// the in-flight spill buffers.
  size_t memory_budget_bytes = 16 << 20;
  /// Page size for run files.
  size_t page_size = 4096;
  /// Maximum runs merged at once. When more runs exist, intermediate
  /// merge passes combine them in batches of this size first (bounding
  /// open file handles and matching classic multi-pass merge sort).
  size_t max_merge_fanin = 64;
  /// Fault injection for tests; applies per spill/run file. See
  /// PagedFileOptions.
  uint64_t fail_after_physical_ops = 0;
  /// When set, run generation (sorting + writing spilled runs) happens on
  /// this pool, overlapping with record production. Owned by the caller;
  /// must outlive the sorter.
  ThreadPool* pool = nullptr;
  /// Spill tasks allowed in flight before Add() blocks (pool mode only).
  size_t max_inflight_spills = 2;
};

/// \brief Sorts a stream of trivially-copyable records under a memory budget.
///
/// Usage: Add() records, then Sort(), then iterate with Next(). Comparator
/// must be a strict weak ordering. Duplicate records are preserved (stable
/// within a run; the loser-tree merge breaks ties by run index, which keeps
/// the merged order deterministic for the multiset semantics needed by pair
/// aggregation).
template <typename Record, typename Less = std::less<Record>>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<Record>,
                "ExternalSorter requires trivially copyable records");

 public:
  explicit ExternalSorter(ExternalSorterOptions options = {},
                          IoStats* stats = nullptr, Less less = Less())
      : options_(options), stats_(stats), less_(less) {
    size_t budget_records =
        std::max<size_t>(1, options_.memory_budget_bytes / sizeof(Record));
    if (options_.pool != nullptr) {
      // The live buffer and up to max_inflight_spills frozen buffers share
      // the budget.
      budget_records = std::max<size_t>(
          1, budget_records / (1 + std::max<size_t>(1,
                                     options_.max_inflight_spills)));
    }
    max_buffered_ = budget_records;
  }

  /// Adds one record, spilling a sorted run if the buffer is full.
  Status Add(const Record& r) {
    buffer_.push_back(r);
    if (buffer_.size() >= max_buffered_) return SpillRun();
    return Status::OK();
  }

  /// Finishes input and prepares the merged iterator.
  Status Sort() {
    if (runs_.empty()) {
      // Fully in-memory case: no spill happened.
      std::sort(buffer_.begin(), buffer_.end(), less_);
      mem_pos_ = 0;
      in_memory_ = true;
      if (stats_ != nullptr) ++stats_->sort_in_memory_sorts;
      return Status::OK();
    }
    ST_RETURN_IF_ERROR(DrainSpills());
    in_memory_ = false;
    if (stats_ != nullptr) {
      stats_->sort_runs_spilled += spilled_runs_;
      stats_->sort_tail_records += buffer_.size();
    }
    // Intermediate merge passes until the final fan-in is acceptable. The
    // in-memory tail costs no file handle, so only disk runs count.
    const size_t fanin = std::max<size_t>(2, options_.max_merge_fanin);
    while (runs_.size() > fanin) {
      if (stats_ != nullptr) ++stats_->sort_merge_passes;
      std::vector<std::string> next;
      for (size_t begin = 0; begin < runs_.size(); begin += fanin) {
        const size_t end = std::min(runs_.size(), begin + fanin);
        if (end - begin == 1) {
          next.push_back(runs_[begin]);
          continue;
        }
        const std::string merged = scratch_->FilePath(
            "merge." + std::to_string(merge_counter_++));
        ST_RETURN_IF_ERROR(MergeRuns(
            std::vector<std::string>(runs_.begin() + begin,
                                     runs_.begin() + end),
            merged));
        next.push_back(merged);
      }
      runs_ = std::move(next);
    }
    // The final merge streams from the run files plus the sorted tail that
    // never left memory (the degenerate all-in-one-run case opens a single
    // reader and rewrites nothing).
    std::sort(buffer_.begin(), buffer_.end(), less_);
    readers_.resize(runs_.size());
    std::vector<MergeSource> sources;
    sources.reserve(runs_.size() + 1);
    for (size_t i = 0; i < runs_.size(); ++i) {
      readers_[i] = std::make_unique<RecordReader<Record>>();
      ST_RETURN_IF_ERROR(
          readers_[i]->Open(runs_[i], stats_, options_.page_size, 1,
                            options_.fail_after_physical_ops));
      sources.push_back(MergeSource::FromReader(readers_[i].get(),
                                                &status_));
    }
    if (!buffer_.empty()) {
      sources.push_back(MergeSource::FromMemory(
          buffer_.data(), buffer_.data() + buffer_.size()));
    }
    tree_ = std::make_unique<Tree>(std::move(sources), less_);
    return Status::OK();
  }

  /// Produces the next record in sorted order; false at end.
  bool Next(Record* out) {
    if (in_memory_) {
      if (mem_pos_ >= buffer_.size()) return false;
      *out = buffer_[mem_pos_++];
      return true;
    }
    if (tree_ == nullptr) return false;
    return tree_->Next(out);
  }

  /// Number of runs spilled to disk (0 means the sort was in-memory).
  /// Counts initial spills, not intermediate merge outputs.
  size_t run_count() const { return spilled_runs_; }

  const Status& status() const { return status_; }

 private:
  // One merge input: either a run file reader or a span of the in-memory
  // tail. Reader errors surface through the shared error slot (mirroring
  // the old heap-merge behavior where a failed reader looks exhausted and
  // status() reports the cause).
  struct MergeSource {
    RecordReader<Record>* reader = nullptr;
    const Record* mem_pos = nullptr;
    const Record* mem_end = nullptr;
    Status* error = nullptr;

    static MergeSource FromReader(RecordReader<Record>* r, Status* err) {
      MergeSource s;
      s.reader = r;
      s.error = err;
      return s;
    }
    static MergeSource FromMemory(const Record* begin, const Record* end) {
      MergeSource s;
      s.mem_pos = begin;
      s.mem_end = end;
      return s;
    }

    bool Next(Record* out) {
      if (reader != nullptr) {
        if (reader->Next(out)) return true;
        if (error != nullptr && !reader->status().ok()) {
          *error = reader->status();
        }
        return false;
      }
      if (mem_pos == mem_end) return false;
      *out = *mem_pos++;
      return true;
    }
  };
  using Tree = LoserTree<Record, MergeSource, Less>;

  // An asynchronously generated run (pool mode).
  struct SpillTask {
    std::vector<Record> records;
    std::string path;
    Status status;
    IoStats io;
    std::future<void> future;
  };

  Status WriteRun(const std::vector<Record>& records,
                  const std::string& path, IoStats* stats) {
    RecordWriter<Record> writer;
    ST_RETURN_IF_ERROR(writer.Open(path, stats, options_.page_size, 1,
                                   options_.fail_after_physical_ops));
    for (const Record& r : records) ST_RETURN_IF_ERROR(writer.Append(r));
    return writer.Finish();
  }

  // Merges `inputs` (each individually sorted) into one sorted run file.
  Status MergeRuns(const std::vector<std::string>& inputs,
                   const std::string& out_path) {
    std::vector<std::unique_ptr<RecordReader<Record>>> readers(
        inputs.size());
    Status read_error;
    std::vector<MergeSource> sources;
    sources.reserve(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      readers[i] = std::make_unique<RecordReader<Record>>();
      ST_RETURN_IF_ERROR(
          readers[i]->Open(inputs[i], stats_, options_.page_size, 1,
                           options_.fail_after_physical_ops));
      sources.push_back(MergeSource::FromReader(readers[i].get(),
                                                &read_error));
    }
    Tree tree(std::move(sources), less_);
    RecordWriter<Record> writer;
    ST_RETURN_IF_ERROR(writer.Open(out_path, stats_, options_.page_size));
    Record r;
    while (tree.Next(&r)) {
      ST_RETURN_IF_ERROR(writer.Append(r));
    }
    ST_RETURN_IF_ERROR(read_error);
    ST_RETURN_IF_ERROR(writer.Finish());
    // Free the consumed run files promptly.
    for (const std::string& path : inputs) {
      std::remove(path.c_str());
    }
    return Status::OK();
  }

  Status SpillRun() {
    if (!scratch_) scratch_.emplace("st_sort");
    ST_RETURN_IF_ERROR(scratch_->status());
    const std::string path =
        scratch_->FilePath("run." + std::to_string(runs_.size()));
    runs_.push_back(path);
    ++spilled_runs_;
    if (options_.pool == nullptr) {
      std::sort(buffer_.begin(), buffer_.end(), less_);
      ST_RETURN_IF_ERROR(WriteRun(buffer_, path, stats_));
      buffer_.clear();
      return Status::OK();
    }
    // Freeze the buffer and hand it to the pool; cap in-flight tasks so
    // memory stays within (1 + max_inflight_spills) buffers.
    while (inflight_.size() >= std::max<size_t>(
               1, options_.max_inflight_spills)) {
      const size_t oldest = inflight_.front();
      inflight_.pop_front();
      options_.pool->Wait(spills_[oldest]->future);
      ST_RETURN_IF_ERROR(spills_[oldest]->status);
    }
    auto task = std::make_unique<SpillTask>();
    task->records = std::move(buffer_);
    buffer_ = std::vector<Record>();
    buffer_.reserve(max_buffered_);
    task->path = path;
    SpillTask* t = task.get();
    inflight_.push_back(spills_.size());
    spills_.push_back(std::move(task));
    t->future = options_.pool->Submit([this, t] {
      try {
        std::sort(t->records.begin(), t->records.end(), less_);
        t->status = WriteRun(t->records, t->path, &t->io);
      } catch (const std::exception& e) {
        t->status = Status::Internal(std::string("spill task threw: ") +
                                     e.what());
      }
      t->records = std::vector<Record>();  // Release promptly.
    });
    return Status::OK();
  }

  // Joins outstanding spill tasks and folds their I/O accounting into
  // stats_ in run order (deterministic regardless of completion order).
  Status DrainSpills() {
    if (options_.pool == nullptr) return Status::OK();
    while (!inflight_.empty()) {
      const size_t idx = inflight_.front();
      inflight_.pop_front();
      options_.pool->Wait(spills_[idx]->future);
    }
    Status first_error;
    for (const auto& spill : spills_) {
      if (stats_ != nullptr) *stats_ += spill->io;
      if (first_error.ok() && !spill->status.ok()) {
        first_error = spill->status;
      }
    }
    spills_.clear();
    return first_error;
  }

  ExternalSorterOptions options_;
  IoStats* stats_;
  Less less_;
  std::optional<TempDir> scratch_;  // Created at the first spill.
  std::vector<Record> buffer_;
  size_t max_buffered_;
  std::vector<std::string> runs_;
  size_t spilled_runs_ = 0;
  size_t merge_counter_ = 0;
  std::vector<std::unique_ptr<SpillTask>> spills_;
  std::deque<size_t> inflight_;
  std::vector<std::unique_ptr<RecordReader<Record>>> readers_;
  std::unique_ptr<Tree> tree_;
  bool in_memory_ = true;
  size_t mem_pos_ = 0;
  Status status_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STORAGE_EXTERNAL_SORTER_H_
