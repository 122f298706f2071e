// Durability: the crash-safety layer behind Engine::Recover. Before every
// epoch publish the engine appends one checksummed record describing the
// committed interval's delta (new keywords, clusters, adjacency edges at
// stored weights) to a write-ahead log and fsyncs; every
// checkpoint_interval epochs the whole committed prefix is written as a
// checkpoint and the covered log is pruned by rotation. Open() restores
// the checkpoint plus the valid log tail — a torn or corrupt tail is
// truncated, never replayed — so recovery always lands on the published
// epoch or the one whose WAL record was synced but whose publish the
// crash preempted. Recovery replays every interval's delta (checkpoint
// records first, then the log tail); a checkpoint only lets the log
// rotate.
//
// Engine state has one on-disk format, the WAL's CRC record log
// (storage/wal.h). Directory layout:
//   checkpoint-<E>   a sealed record log holding exactly E records, the
//                    delta of intervals 0..E-1 in order (written as .tmp
//                    in whole 4 KiB writes, fsynced, then renamed). Each
//                    record equals the one the WAL logged for that
//                    interval. A checkpoint must parse to its end; a file
//                    in the retired paged layout (magic "STCKPT1") is
//                    refused with NotSupported.
//   wal-<E>          log of interval deltas for epochs > E
// One generation is kept: once checkpoint-<E>'s rename is durable, every
// older checkpoint and log is pruned (leftovers are harmless — Open picks
// the highest checkpoint). Every new file's directory entry is fsynced
// before the engine relies on it.
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
  /// ops (log and checkpoint chunk writes, fsyncs, renames),
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
  /// (a vanished checkpoint or one whose record checksum fails, a log
  /// newer than every checkpoint) is DataLoss, never a silent empty
  /// recovery; a checkpoint that does not parse to its end or holds the
  /// wrong record count is Corruption.
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

  /// Writes checkpoint-<epoch> (tmp + fsync + rename + dir fsync), prunes
  /// the previous generation, and rotates to a fresh wal-<epoch>.
  /// `serialize(i)` must return interval i's delta blob; each is framed
  /// as one record into the file's 4 KiB write batch
  /// (WalWriter::AppendBatched) and dropped before the next is built.
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
  /// Loads and validates checkpoint-<epoch> into `blobs` (empty on
  /// entry): one interval blob per record, exactly `epoch` of them.
  Status LoadCheckpoint(uint64_t epoch, std::vector<std::string>* blobs);
  /// Creates wal-<epoch> as the open log, making its header and its
  /// directory entry durable.
  Status CreateLog(uint64_t epoch);
  /// Deletes every checkpoint/wal file of a generation older than
  /// `keep_epoch` (best effort: correctness never depends on pruning).
  void PruneBelow(uint64_t keep_epoch);

  DurabilityOptions options_;
  FaultInjector faults_;
  IoStats io_;
  WalWriter wal_;
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> checkpoint_ns_{0};
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_DURABILITY_H_
