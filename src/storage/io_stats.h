// I/O accounting. The paper's performance claims are fundamentally about
// access patterns (sequential passes for BFS, random probes for DFS and TA),
// so every storage primitive in this library reports its physical operations
// through an IoStats instance. Benchmarks report these counters alongside
// wall-clock time.

#ifndef STABLETEXT_STORAGE_IO_STATS_H_
#define STABLETEXT_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace stabletext {

/// \brief Counters for physical storage operations.
///
/// "Physical" means the operation missed every cache in front of it and
/// touched the (simulated) disk. Logical (cache-absorbed) accesses are
/// counted separately.
struct IoStats {
  uint64_t page_reads = 0;        ///< Physical page reads.
  uint64_t page_writes = 0;       ///< Physical page writes.
  uint64_t logical_reads = 0;     ///< Page reads absorbed by cache.
  uint64_t random_seeks = 0;      ///< Non-sequential repositionings.
  uint64_t bytes_read = 0;        ///< Physical bytes read.
  uint64_t bytes_written = 0;     ///< Physical bytes written.
  uint64_t fsyncs = 0;            ///< fsync(2) barriers (durability).
  // External-sort phase accounting (ExternalSorter).
  uint64_t sort_runs_spilled = 0;      ///< Sorted runs written to disk.
  uint64_t sort_merge_passes = 0;      ///< Intermediate merge passes.
  uint64_t sort_in_memory_sorts = 0;   ///< Pair counts done in memory: a
                                       ///< sort that never touched disk,
                                       ///< or an engine tick's one pass.
  uint64_t sort_tail_records = 0;      ///< Records merged straight from the
                                       ///< in-memory tail (spill avoided).

  void Reset() { *this = IoStats(); }

  /// Element-wise sum.
  IoStats& operator+=(const IoStats& other);

  /// Renders a one-line human-readable summary.
  std::string ToString() const;
};

/// Element-wise difference: counters are monotonic, so subtracting an
/// earlier snapshot yields the cost of the span between them.
IoStats operator-(IoStats a, const IoStats& b);

}  // namespace stabletext

#endif  // STABLETEXT_STORAGE_IO_STATS_H_
