#include "core/durability.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "storage/paged_file.h"
#include "util/crc32.h"
#include "util/timer.h"

namespace stabletext {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointMagic[8] = {'S', 'T', 'C', 'K', 'P', 'T',
                                      '1', '\0'};
constexpr size_t kCheckpointPageSize = 4096;
// Header page layout: magic + u64 epoch + u64 payload_bytes + u32 crc32.
constexpr size_t kHeaderBytes = sizeof(kCheckpointMagic) + 8 + 8 + 4;
static_assert(kHeaderBytes <= kCheckpointPageSize, "header fits a page");

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
  std::vector<uint64_t> checkpoint_epochs;
  for (const auto& entry : fs::directory_iterator(options.dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t epoch = 0;
    if (ParseGeneration(name, kCheckpointPrefix, &epoch)) {
      newest_checkpoint = std::max(newest_checkpoint, epoch);
      checkpoint_epochs.push_back(epoch);
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
    ST_RETURN_IF_ERROR(d->wal_.Create(wal_path, &d->faults_, &d->io_));
  } else {
    ST_RETURN_IF_ERROR(scan);
    ST_RETURN_IF_ERROR(
        d->wal_.OpenForAppend(wal_path, &d->faults_, &d->io_));
  }
  for (std::string& blob : tail) recovered->blobs.push_back(std::move(blob));
  d->wal_epoch_ = newest_checkpoint;
  // Keep the previous generation too (two-generation retention); prune
  // everything older.
  uint64_t previous_checkpoint = 0;
  for (const uint64_t epoch : checkpoint_epochs) {
    if (epoch < newest_checkpoint) {
      previous_checkpoint = std::max(previous_checkpoint, epoch);
    }
  }
  d->PruneBelow(previous_checkpoint);
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
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    // PagedFile::Open would silently create it; a checkpoint we saw in
    // the directory listing but cannot open is lost data.
    return Status::DataLoss("checkpoint vanished: " + path);
  }
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = kCheckpointPageSize;
  opt.cache_pages = 0;
  ST_RETURN_IF_ERROR(file.Open(path, opt, &io_));
  std::vector<uint8_t> page;
  ST_RETURN_IF_ERROR(file.ReadPage(0, &page));
  if (std::memcmp(page.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic in " + path);
  }
  uint64_t stored_epoch = 0;
  uint64_t payload_bytes = 0;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_epoch, page.data() + 8, 8);
  std::memcpy(&payload_bytes, page.data() + 16, 8);
  std::memcpy(&stored_crc, page.data() + 24, 4);
  if (stored_epoch != epoch) {
    return Status::Corruption("checkpoint " + path + " claims epoch " +
                              std::to_string(stored_epoch));
  }
  // The header is not covered by the CRC: bound the claimed size by the
  // data pages actually on disk before allocating for it.
  if (payload_bytes > (file.PageCount() - 1) * kCheckpointPageSize) {
    return Status::Corruption(
        "checkpoint payload size overruns the file in " + path);
  }
  std::string payload;
  payload.reserve(payload_bytes);
  for (uint64_t page_no = 1; payload.size() < payload_bytes; ++page_no) {
    ST_RETURN_IF_ERROR(file.ReadPage(page_no, &page));
    const size_t take =
        std::min<size_t>(kCheckpointPageSize, payload_bytes - payload.size());
    payload.append(reinterpret_cast<const char*>(page.data()), take);
  }
  ST_RETURN_IF_ERROR(file.Close());
  if (Crc32(payload.data(), payload.size()) != stored_crc) {
    return Status::DataLoss("checkpoint payload checksum mismatch in " +
                            path);
  }
  // Payload = repeated [u32 len][interval delta blob], interval order.
  size_t offset = 0;
  while (offset < payload.size()) {
    if (offset + 4 > payload.size()) {
      return Status::Corruption("truncated frame in " + path);
    }
    uint32_t len = 0;
    std::memcpy(&len, payload.data() + offset, 4);
    offset += 4;
    if (offset + len > payload.size()) {
      return Status::Corruption("frame overruns payload in " + path);
    }
    blobs->emplace_back(payload.data() + offset, len);
    offset += len;
  }
  return Status::OK();
}

Status Durability::WriteCheckpoint(
    uint64_t epoch,
    const std::function<std::string(uint32_t)>& serialize) {
  WallTimer timer;
  std::string payload;
  for (uint32_t i = 0; i < epoch; ++i) {
    const std::string blob = serialize(i);
    const uint32_t len = static_cast<uint32_t>(blob.size());
    payload.append(reinterpret_cast<const char*>(&len), 4);
    payload.append(blob);
  }
  const std::string final_path = CheckpointPath(epoch);
  const std::string tmp_path = final_path + ".tmp";
  {
    PagedFile file;
    PagedFileOptions opt;
    opt.page_size = kCheckpointPageSize;
    opt.cache_pages = 0;
    opt.truncate = true;
    ST_RETURN_IF_ERROR(file.Open(tmp_path, opt, &io_));
    std::vector<uint8_t> page(kCheckpointPageSize, 0);
    std::memcpy(page.data(), kCheckpointMagic, sizeof(kCheckpointMagic));
    const uint64_t payload_bytes = payload.size();
    const uint32_t crc = Crc32(payload.data(), payload.size());
    std::memcpy(page.data() + 8, &epoch, 8);
    std::memcpy(page.data() + 16, &payload_bytes, 8);
    std::memcpy(page.data() + 24, &crc, 4);
    ST_RETURN_IF_ERROR(faults_.Charge("checkpoint page write"));
    ST_RETURN_IF_ERROR(file.WritePage(0, page.data()));
    uint64_t page_no = 1;
    for (size_t offset = 0; offset < payload.size();
         offset += kCheckpointPageSize, ++page_no) {
      const size_t take =
          std::min(kCheckpointPageSize, payload.size() - offset);
      std::memcpy(page.data(), payload.data() + offset, take);
      std::memset(page.data() + take, 0, kCheckpointPageSize - take);
      ST_RETURN_IF_ERROR(faults_.Charge("checkpoint page write"));
      ST_RETURN_IF_ERROR(file.WritePage(page_no, page.data()));
    }
    ST_RETURN_IF_ERROR(faults_.Charge("checkpoint fsync"));
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
  // Rotate the log: records covered by the checkpoint are pruned by
  // starting a fresh generation. The generation we just rotated away
  // from stays on disk (two-generation retention); its predecessor goes.
  const uint64_t previous_generation = wal_epoch_;
  ST_RETURN_IF_ERROR(wal_.Close());
  ST_RETURN_IF_ERROR(wal_.Create(WalPath(epoch), &faults_, &io_));
  wal_epoch_ = epoch;
  PruneBelow(previous_generation);
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
