// Durability: the crash-safety layer behind Engine::Recover. Before every
// epoch publish the engine appends one checksummed record describing the
// committed interval's delta (new keywords, clusters, adjacency edges at
// stored weights) to a write-ahead log and fsyncs; every
// checkpoint_interval epochs the whole committed prefix is written as a
// chunk checkpoint through PagedFile and the covered log is pruned by
// rotation. Open() restores the latest checkpoint plus the valid log tail
// — a torn or corrupt tail is truncated, never replayed — so recovery
// always lands on the published epoch or the one whose WAL record was
// synced but whose publish the crash preempted.
//
// Directory layout:
//   checkpoint-<E>   full serialized state at epoch E (PagedFile pages,
//                    CRC-protected header; written as .tmp then renamed)
//   wal-<E>          log of interval deltas for epochs > E
// The newest TWO generations are kept; anything older is pruned after a
// checkpoint rename lands (leftovers are harmless — Open picks the
// highest valid checkpoint).
//
// Threading: a Durability object is owned by the engine's writer side;
// LogCommit/WriteCheckpoint run only under Engine's writer_role_
// capability (every caller is a REQUIRES(writer_role_) method, checked
// by Clang -Wthread-safety at the engine layer), so this class needs no
// locks of its own. The io()/wal_bytes()/checkpoint_ns() counters are
// atomics because reader-side stats() samples them concurrently.

#ifndef STABLETEXT_CORE_DURABILITY_H_
#define STABLETEXT_CORE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "storage/wal.h"
#include "util/status.h"

namespace stabletext {

/// Durability knobs, embedded in EngineOptions.
struct DurabilityOptions {
  /// Master switch. Off = the engine never touches disk (the untouched
  /// fast path); on = construct the engine with Engine::Recover.
  bool enabled = false;
  /// Directory holding the log and checkpoints (created if missing).
  std::string dir;
  /// Write a full checkpoint (and prune the log) every this many epochs.
  /// 0 = log only, never checkpoint.
  uint32_t checkpoint_interval = 16;
  /// fsync the log after every commit record. Turning this off trades
  /// the durability guarantee for append throughput (benchmarks).
  bool fsync = true;
  /// Crash injection (tests): after this many durability-layer physical
  /// ops (log chunk writes, checkpoint page writes, fsyncs, renames),
  /// every further op fails with IOError. 0 disables. The budget is
  /// shared across the log and checkpoint paths, so a "crash" can land
  /// mid-record or mid-checkpoint.
  uint64_t fail_after_physical_ops = 0;
};

/// \brief Owns the WAL and checkpoint files of one engine's directory.
///
/// Writer-side only: every method is called from the ingest thread. The
/// byte counters are atomics so Engine::stats() can overlay them from
/// reader threads.
class Durability {
 public:
  /// What Open() recovered: the interval-delta blobs to replay, in
  /// interval order (checkpoint payload first, then the log tail).
  struct RecoveredState {
    uint64_t checkpoint_epoch = 0;  ///< Intervals covered by the checkpoint.
    std::vector<std::string> blobs;
  };

  /// Opens (creating if necessary) the durability directory, loads the
  /// newest checkpoint, scans-and-truncates its log, and leaves the log
  /// open for appends. Unreadable state that fsync promised was durable
  /// (a corrupt checkpoint, a log newer than every checkpoint) is
  /// DataLoss, never a silent empty recovery.
  static Result<std::unique_ptr<Durability>> Open(
      const DurabilityOptions& options, RecoveredState* recovered);

  /// Appends one interval-delta record and (when configured) fsyncs.
  /// Must precede the epoch's publish: on return the record is durable.
  Status LogCommit(const std::string& blob);

  /// True when epoch (the committed-interval count) is a checkpoint
  /// boundary.
  bool ShouldCheckpoint(uint64_t epoch) const {
    return options_.checkpoint_interval != 0 && epoch != 0 &&
           epoch % options_.checkpoint_interval == 0;
  }

  /// Writes checkpoint-<epoch> (tmp + rename + dir fsync), rotates to a
  /// fresh wal-<epoch>, and prunes the previous generation.
  /// `serialize(i)` must return interval i's delta blob.
  Status WriteCheckpoint(
      uint64_t epoch,
      const std::function<std::string(uint32_t)>& serialize);

  /// Total record bytes (headers included) appended this process.
  uint64_t wal_bytes() const {
    return wal_bytes_.load(std::memory_order_relaxed);
  }
  /// Wall-clock nanoseconds of the most recent WriteCheckpoint.
  uint64_t checkpoint_ns() const {
    return checkpoint_ns_.load(std::memory_order_relaxed);
  }
  /// Physical traffic of the durability layer (WAL + checkpoints),
  /// separate from ingest-side I/O so replayed engines reproduce the
  /// ingest counters exactly. Writer-side.
  const IoStats& io() const { return io_; }

 private:
  Durability() = default;

  std::string CheckpointPath(uint64_t epoch) const;
  std::string WalPath(uint64_t epoch) const;
  /// Loads and validates checkpoint-<epoch>, appending its interval
  /// blobs to `blobs`.
  Status LoadCheckpoint(uint64_t epoch, std::vector<std::string>* blobs);
  /// Deletes every checkpoint/wal file of a generation older than
  /// `keep_epoch` (best effort: correctness never depends on pruning).
  void PruneBelow(uint64_t keep_epoch);

  DurabilityOptions options_;
  FaultInjector faults_;
  IoStats io_;
  WalWriter wal_;
  uint64_t wal_epoch_ = 0;  ///< Generation the open log belongs to.
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> checkpoint_ns_{0};
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_DURABILITY_H_
