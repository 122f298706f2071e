// Write-ahead interval log: an append-only file of checksummed,
// length-prefixed records. The engine appends one record per committed
// interval (before publishing the epoch) and fsyncs, so a crash loses at
// most the record being written; WalScanAndTruncate detects a torn or
// corrupt tail on open and truncates it — a half-written record is never
// replayed. The same record log is the engine's checkpoint format: a
// checkpoint is a sealed log holding one record per committed interval,
// read back with WalScan, which never modifies the file.
//
// On-disk layout:
//   [8-byte magic "STWAL1\n"]
//   repeated records: [u32 payload_len][u32 crc32(payload)][payload]
//
// All multi-byte fields are host-endian (the log is machine-local state,
// like every other file this storage layer writes).
//
// Threading: single-owner, like the rest of the storage layer. In the
// engine the owner is the durability layer, reached only from
// REQUIRES(writer_role_) methods — the writer-thread affinity is
// machine-checked one level up (core/engine.h), so no locking here.

#ifndef STABLETEXT_STORAGE_WAL_H_
#define STABLETEXT_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "util/status.h"

namespace stabletext {

/// \brief Shared physical-operation budget for crash-injection tests.
///
/// Every durability-layer physical operation (log or checkpoint chunk
/// write, fsync, rename) charges one op; once the budget is exceeded each
/// further operation fails with IOError — simulating a crash at that
/// exact physical-op boundary. A budget of 0 disables injection.
struct FaultInjector {
  uint64_t fail_after_physical_ops = 0;
  uint64_t ops = 0;

  Status Charge(const char* what) {
    if (fail_after_physical_ops != 0 && ++ops > fail_after_physical_ops) {
      return Status::IOError(std::string("injected fault at ") + what);
    }
    return Status::OK();
  }
};

/// \brief Appends checksummed records to a write-ahead log file.
///
/// Writes go through the OS in bounded chunks (one charged physical op
/// per chunk), so fault injection can kill an append mid-record — the
/// torn tail this leaves behind is exactly what WalScanAndTruncate must
/// cope with. AppendBatched frames records into a write batch instead,
/// for logs written in one go (checkpoints): the same bytes, in whole
/// 4 KiB writes.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates (truncating) a fresh log at `path` and writes the magic
  /// header. Nothing is durable until the caller's first Sync(), and the
  /// new directory entry only once the caller fsyncs the directory.
  /// `faults` and `stats` may be null; both must outlive the writer.
  Status Create(const std::string& path, FaultInjector* faults,
                IoStats* stats);

  /// Opens an existing log (already validated/truncated by
  /// WalScanAndTruncate) and positions at its end for appends.
  Status OpenForAppend(const std::string& path, FaultInjector* faults,
                       IoStats* stats);

  /// Appends one length-prefixed, CRC32-checksummed record: a header
  /// write, then the payload in chunks. Writes out any batched records
  /// first.
  Status Append(const void* payload, size_t size);

  /// Appends one record like Append, through a write batch: framed
  /// records accumulate in memory and go out in whole 4 KiB writes, so a
  /// run of small records costs one physical op per 4 KiB rather than a
  /// header write plus payload chunks each. The file ends up with the
  /// bytes Append would write. Sync() writes out the partial last piece;
  /// Close() without a Sync() drops it, as a crash would.
  Status AppendBatched(const void* payload, size_t size);

  /// Writes out any batched records, then fsyncs the log file.
  Status Sync();

  /// Closes the file. Idempotent; surfaces the close(2) error.
  Status Close();

  bool is_open() const { return fd_ >= 0; }

  /// Total record bytes appended through this writer (headers included).
  uint64_t bytes_appended() const {
    return bytes_appended_.load(std::memory_order_relaxed);
  }

 private:
  Status WriteAll(const void* data, size_t size, const char* what);
  // Checks a record and returns its [len][crc] header.
  Status FrameHeader(const void* payload, size_t size, uint8_t header[8]);
  // Writes out the whole batch, partial last piece included.
  Status WriteBatch();

  int fd_ = -1;
  std::string path_;
  FaultInjector* faults_ = nullptr;
  IoStats* stats_ = nullptr;
  // Framed records AppendBatched has not written yet (under 4 KiB after
  // each call).
  std::string batch_;
  std::atomic<uint64_t> bytes_appended_{0};
};

/// Where a WalScan stopped.
struct WalScanEnd {
  uint64_t valid_bytes = 0;  ///< Magic plus every intact record.
  uint64_t file_bytes = 0;   ///< File size as read.
  /// The scan stopped at a complete record whose checksum failed (as
  /// opposed to a record that runs past the end of the file).
  bool checksum_mismatch = false;
};

/// \brief Reads a log's record payloads without modifying the file.
///
/// Verifies the magic header and appends every complete, checksum-valid
/// record payload to `records` in order; the first torn or corrupt
/// record ends the scan, and `end` says where and why. A missing file,
/// or one shorter than the magic, is kNotFound; a present-but-garbage
/// header is kCorruption. No allocation is sized by a record's length
/// field before that length is checked against the bytes read.
Status WalScan(const std::string& path, std::vector<std::string>* records,
               WalScanEnd* end, IoStats* stats);

/// \brief WalScan, then truncates the file after its last intact record,
/// so a later OpenForAppend continues from the last durable record. A
/// file whose header itself is torn is truncated to empty and reported
/// as kNotFound (callers recreate it).
Status WalScanAndTruncate(const std::string& path,
                          std::vector<std::string>* records,
                          IoStats* stats);

}  // namespace stabletext

#endif  // STABLETEXT_STORAGE_WAL_H_
