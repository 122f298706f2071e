#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/crc32.h"

namespace stabletext {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'W', 'A', 'L', '1', '\n', '\0'};
constexpr size_t kMagicSize = sizeof(kMagic);
// Appends are charged one physical op per chunk of this size, so a fault
// budget can expire in the middle of a large record (a torn write).
constexpr size_t kWriteChunk = 4096;

std::string Errno(const std::string& prefix) {
  return prefix + ": " + std::strerror(errno);
}

}  // namespace

// A destructor has nowhere to report a failed close; owners that care
// about the error call Close() themselves first.
WalWriter::~WalWriter() { Close().IgnoreError(); }

Status WalWriter::Create(const std::string& path, FaultInjector* faults,
                         IoStats* stats) {
  if (fd_ >= 0) return Status::InvalidArgument("wal already open");
  faults_ = faults;
  stats_ = stats;
  path_ = path;
  fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) return Status::IOError(Errno("cannot create wal " + path));
  return WriteAll(kMagic, kMagicSize, "wal header write");
}

Status WalWriter::OpenForAppend(const std::string& path,
                                FaultInjector* faults, IoStats* stats) {
  if (fd_ >= 0) return Status::InvalidArgument("wal already open");
  faults_ = faults;
  stats_ = stats;
  path_ = path;
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) return Status::IOError(Errno("cannot open wal " + path));
  return Status::OK();
}

Status WalWriter::WriteAll(const void* data, size_t size,
                           const char* what) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    const size_t chunk = remaining < kWriteChunk ? remaining : kWriteChunk;
    if (faults_ != nullptr) ST_RETURN_IF_ERROR(faults_->Charge(what));
    ssize_t n = ::write(fd_, p, chunk);
    if (n < 0 || static_cast<size_t>(n) != chunk) {
      return Status::IOError(Errno(std::string("short write in ") + path_));
    }
    p += chunk;
    remaining -= chunk;
    if (stats_ != nullptr) stats_->bytes_written += chunk;
  }
  return Status::OK();
}

Status WalWriter::FrameHeader(const void* payload, size_t size,
                              uint8_t header[8]) {
  if (fd_ < 0) return Status::InvalidArgument("wal not open");
  if (size > UINT32_MAX) {
    return Status::InvalidArgument("wal record too large");
  }
  const uint32_t len = static_cast<uint32_t>(size);
  const uint32_t crc = Crc32(payload, size);
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &crc, 4);
  return Status::OK();
}

Status WalWriter::Append(const void* payload, size_t size) {
  uint8_t header[8];
  ST_RETURN_IF_ERROR(FrameHeader(payload, size, header));
  ST_RETURN_IF_ERROR(WriteBatch());
  // Header first, payload second: a crash between the two leaves a
  // length that runs past EOF, which the scan detects as a torn tail.
  ST_RETURN_IF_ERROR(WriteAll(header, sizeof(header), "wal record header"));
  ST_RETURN_IF_ERROR(WriteAll(payload, size, "wal record payload"));
  bytes_appended_.fetch_add(sizeof(header) + size,
                            std::memory_order_relaxed);
  return Status::OK();
}

Status WalWriter::AppendBatched(const void* payload, size_t size) {
  uint8_t header[8];
  ST_RETURN_IF_ERROR(FrameHeader(payload, size, header));
  batch_.append(reinterpret_cast<const char*>(header), sizeof(header));
  batch_.append(static_cast<const char*>(payload), size);
  bytes_appended_.fetch_add(sizeof(header) + size,
                            std::memory_order_relaxed);
  const size_t whole = batch_.size() - batch_.size() % kWriteChunk;
  if (whole == 0) return Status::OK();
  const Status written = WriteAll(batch_.data(), whole, "wal batch write");
  batch_.erase(0, whole);
  return written;
}

Status WalWriter::WriteBatch() {
  if (batch_.empty()) return Status::OK();
  const Status written =
      WriteAll(batch_.data(), batch_.size(), "wal batch write");
  batch_.clear();
  return written;
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("wal not open");
  ST_RETURN_IF_ERROR(WriteBatch());
  if (faults_ != nullptr) ST_RETURN_IF_ERROR(faults_->Charge("wal fsync"));
  if (::fsync(fd_) != 0) {
    return Status::IOError(Errno("fsync failed for " + path_));
  }
  if (stats_ != nullptr) ++stats_->fsyncs;
  return Status::OK();
}

Status WalWriter::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Status::IOError(Errno("close failed for " + path_));
  }
  return Status::OK();
}

Status WalScan(const std::string& path, std::vector<std::string>* records,
               WalScanEnd* end, IoStats* stats) {
  *end = WalScanEnd();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("wal not found: " + path);
  }
  std::string data;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      data.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    if (n < 0) return Status::IOError(Errno("cannot read wal " + path));
  }
  if (stats != nullptr) stats->bytes_read += data.size();
  end->file_bytes = data.size();

  if (data.size() < kMagicSize) {
    // Header itself was torn (crash during Create): treat as absent.
    return Status::NotFound("wal header torn: " + path);
  }
  if (std::memcmp(data.data(), kMagic, kMagicSize) != 0) {
    return Status::Corruption("wal has bad magic: " + path);
  }

  size_t offset = kMagicSize;
  while (offset < data.size()) {
    if (offset + 8 > data.size()) break;  // Torn record header.
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, data.data() + offset, 4);
    std::memcpy(&crc, data.data() + offset + 4, 4);
    if (offset + 8 + len > data.size()) break;  // Torn payload.
    const char* payload = data.data() + offset + 8;
    if (Crc32(payload, len) != crc) {  // Corrupt record.
      end->checksum_mismatch = true;
      break;
    }
    records->emplace_back(payload, len);
    offset += 8 + len;
  }
  end->valid_bytes = offset;
  return Status::OK();
}

Status WalScanAndTruncate(const std::string& path,
                          std::vector<std::string>* records,
                          IoStats* stats) {
  WalScanEnd end;
  const Status scan = WalScan(path, records, &end, stats);
  const bool readable = scan.ok() || scan.code() == StatusCode::kNotFound;
  if (readable && end.valid_bytes < end.file_bytes &&
      ::truncate(path.c_str(), static_cast<off_t>(end.valid_bytes)) != 0) {
    return Status::IOError(Errno("cannot truncate wal " + path));
  }
  return scan;
}

}  // namespace stabletext
