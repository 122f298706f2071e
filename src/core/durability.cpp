#include "core/durability.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/timer.h"

namespace stabletext {

namespace fs = std::filesystem;

namespace {

// Magic of the paged checkpoint layout the record-log checkpoint
// replaced; recognised only to name the error.
constexpr char kRetiredCheckpointMagic[8] = {'S', 'T', 'C', 'K',
                                             'P', 'T', '1', '\0'};

const char kCheckpointPrefix[] = "checkpoint-";
const char kWalPrefix[] = "wal-";

/// Parses "<prefix><decimal>" file names; rejects anything else
/// (including the ".tmp" staging suffix).
bool ParseGeneration(const std::string& name, const char* prefix,
                     uint64_t* epoch) {
  const size_t plen = std::strlen(prefix);
  if (name.size() <= plen || name.compare(0, plen, prefix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = plen; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *epoch = value;
  return true;
}

bool HasRetiredCheckpointMagic(const std::string& path) {
  char magic[sizeof(kRetiredCheckpointMagic)] = {};
  std::ifstream in(path, std::ios::binary);
  return in.read(magic, sizeof(magic)) &&
         std::memcmp(magic, kRetiredCheckpointMagic, sizeof(magic)) == 0;
}

Status FsyncDir(const std::string& dir, FaultInjector* faults,
                IoStats* io) {
  if (faults != nullptr) ST_RETURN_IF_ERROR(faults->Charge("dir fsync"));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError("cannot open dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed for dir " + dir);
  if (io != nullptr) ++io->fsyncs;
  return Status::OK();
}

}  // namespace

std::string Durability::CheckpointPath(uint64_t epoch) const {
  return (fs::path(options_.dir) /
          (kCheckpointPrefix + std::to_string(epoch)))
      .string();
}

std::string Durability::WalPath(uint64_t epoch) const {
  return (fs::path(options_.dir) / (kWalPrefix + std::to_string(epoch)))
      .string();
}

Result<std::unique_ptr<Durability>> Durability::Open(
    const DurabilityOptions& options, RecoveredState* recovered) {
  if (!options.enabled || options.dir.empty()) {
    return Status::InvalidArgument(
        "durability requires enabled=true and a directory");
  }
  auto d = std::unique_ptr<Durability>(new Durability());
  d->options_ = options;
  d->faults_.fail_after_physical_ops = options.fail_after_physical_ops;

  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create durability dir " + options.dir +
                           ": " + ec.message());
  }

  // Survey the generations on disk. Staging files (*.tmp) are from a
  // checkpoint the crash preempted before its rename — never valid state.
  uint64_t newest_checkpoint = 0;
  uint64_t newest_wal = 0;
  bool have_wal = false;
  for (const auto& entry : fs::directory_iterator(options.dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t epoch = 0;
    if (ParseGeneration(name, kCheckpointPrefix, &epoch)) {
      newest_checkpoint = std::max(newest_checkpoint, epoch);
    } else if (ParseGeneration(name, kWalPrefix, &epoch)) {
      newest_wal = std::max(newest_wal, epoch);
      have_wal = true;
    } else if (entry.path().extension() == ".tmp") {
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
    }
  }
  if (ec) {
    return Status::IOError("cannot list durability dir " + options.dir);
  }
  // A log is only ever created after its base checkpoint's rename landed
  // (or at generation 0, which needs no checkpoint): a newer log with no
  // checkpoint to stand on means durable state vanished.
  if (have_wal && newest_wal > newest_checkpoint) {
    return Status::DataLoss("wal generation " + std::to_string(newest_wal) +
                            " has no checkpoint in " + options.dir);
  }

  recovered->checkpoint_epoch = newest_checkpoint;
  recovered->blobs.clear();
  if (newest_checkpoint > 0) {
    ST_RETURN_IF_ERROR(
        d->LoadCheckpoint(newest_checkpoint, &recovered->blobs));
  }
  const std::string wal_path = d->WalPath(newest_checkpoint);
  std::vector<std::string> tail;
  Status scan = WalScanAndTruncate(wal_path, &tail, &d->io_);
  if (scan.code() == StatusCode::kNotFound) {
    ST_RETURN_IF_ERROR(d->CreateLog(newest_checkpoint));
  } else {
    ST_RETURN_IF_ERROR(scan);
    ST_RETURN_IF_ERROR(
        d->wal_.OpenForAppend(wal_path, &d->faults_, &d->io_));
  }
  for (std::string& blob : tail) recovered->blobs.push_back(std::move(blob));
  // Only the newest generation is ever loaded; older ones are leftovers
  // of a crash between a checkpoint's rename and its prune.
  d->PruneBelow(newest_checkpoint);
  return d;
}

Status Durability::LogCommit(const std::string& blob) {
  ST_RETURN_IF_ERROR(wal_.Append(blob.data(), blob.size()));
  if (options_.fsync) ST_RETURN_IF_ERROR(wal_.Sync());
  wal_bytes_.fetch_add(8 + blob.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status Durability::LoadCheckpoint(uint64_t epoch,
                                  std::vector<std::string>* blobs) {
  const std::string path = CheckpointPath(epoch);
  WalScanEnd end;
  const Status scan = WalScan(path, blobs, &end, &io_);
  if (scan.code() == StatusCode::kNotFound) {
    // Seen in the directory listing, but gone or shorter than a header:
    // the checkpoint was fsynced whole before its rename, so this is
    // lost data.
    return Status::DataLoss("checkpoint vanished or truncated: " + path);
  }
  if (scan.code() == StatusCode::kCorruption &&
      HasRetiredCheckpointMagic(path)) {
    return Status::NotSupported(
        path + " is a retired paged checkpoint (STCKPT1); this build "
               "reads record-log checkpoints only");
  }
  ST_RETURN_IF_ERROR(scan);
  if (end.checksum_mismatch) {
    return Status::DataLoss("checkpoint record checksum mismatch in " +
                            path);
  }
  if (end.valid_bytes != end.file_bytes) {
    return Status::Corruption("checkpoint record overruns the file in " +
                              path);
  }
  if (blobs->size() != epoch) {
    return Status::Corruption("checkpoint " + path + " holds " +
                              std::to_string(blobs->size()) +
                              " records, not " + std::to_string(epoch));
  }
  return Status::OK();
}

Status Durability::CreateLog(uint64_t epoch) {
  ST_RETURN_IF_ERROR(wal_.Create(WalPath(epoch), &faults_, &io_));
  ST_RETURN_IF_ERROR(wal_.Sync());
  // Without this, a power loss could drop the new log's entry and with
  // it every record fsynced into the log.
  return FsyncDir(options_.dir, &faults_, &io_);
}

Status Durability::WriteCheckpoint(
    uint64_t epoch,
    const std::function<std::string(uint32_t)>& serialize) {
  WallTimer timer;
  const std::string final_path = CheckpointPath(epoch);
  const std::string tmp_path = final_path + ".tmp";
  {
    WalWriter file;
    ST_RETURN_IF_ERROR(file.Create(tmp_path, &faults_, &io_));
    for (uint32_t i = 0; i < epoch; ++i) {
      const std::string blob = serialize(i);
      ST_RETURN_IF_ERROR(file.AppendBatched(blob.data(), blob.size()));
    }
    ST_RETURN_IF_ERROR(file.Sync());
    ST_RETURN_IF_ERROR(file.Close());
  }
  // The commit point of the checkpoint: rename + directory fsync. Until
  // both land, recovery keeps using the previous generation.
  ST_RETURN_IF_ERROR(faults_.Charge("checkpoint rename"));
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IOError("cannot rename " + tmp_path + ": " +
                           ec.message());
  }
  ST_RETURN_IF_ERROR(FsyncDir(options_.dir, &faults_, &io_));
  // Rotate the log: the checkpoint covers every record of the previous
  // generation, which Open would never load again.
  ST_RETURN_IF_ERROR(wal_.Close());
  PruneBelow(epoch);
  ST_RETURN_IF_ERROR(CreateLog(epoch));
  checkpoint_ns_.store(static_cast<uint64_t>(timer.ElapsedNanos()),
                       std::memory_order_relaxed);
  return Status::OK();
}

void Durability::PruneBelow(uint64_t keep_epoch) {
  // Best effort: leftovers are harmless (Open picks the highest valid
  // checkpoint) and will be retried at the next checkpoint.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t epoch = 0;
    const bool stale =
        (ParseGeneration(name, kCheckpointPrefix, &epoch) &&
         epoch < keep_epoch) ||
        (ParseGeneration(name, kWalPrefix, &epoch) && epoch < keep_epoch);
    if (stale) {
      std::error_code ignore;
      fs::remove(entry.path(), ignore);
    }
  }
}

}  // namespace stabletext
