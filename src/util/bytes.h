// The byte codec of everything the engine ships out: the WAL's interval
// deltas (core/engine.cpp, which checkpoints reuse) and the wire
// protocol's frames and bodies (net/protocol.cpp). Fixed-width fields are
// copied host-endian, like every file the storage layer writes (the log
// and the protocol are machine-local); doubles travel bit-exact, so a
// replay reproduces weights to the last bit. A string is a u32 byte count
// followed by its bytes.

#ifndef STABLETEXT_UTIL_BYTES_H_
#define STABLETEXT_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace stabletext {

/// Appends encoded fields to a caller-owned string.
class ByteWriter {
 public:
  /// `out` must outlive the writer; its existing bytes are kept.
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  void PutString(std::string_view s) {
    Put<uint32_t>(s.size());
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// \brief Bounds-checked sequential reader over encoded bytes.
///
/// A Get returns false when the bytes left are too few; the decoder then
/// gives up on the input. A decoder that sizes an allocation by a decoded
/// count checks it with Fits first, so a short or hostile input can never
/// make it allocate more than the input's own size warrants.
class ByteReader {
 public:
  /// `data` must outlive the reader.
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, data_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!Get(&len)) return false;
    if (remaining() < len) return false;
    s->assign(data_.data() + offset_, len);
    offset_ += len;
    return true;
  }

  /// True when `count` items, each encoded in at least
  /// `min_encoded_bytes` (> 0), can fit in the bytes left.
  bool Fits(uint64_t count, size_t min_encoded_bytes) const {
    return count <= remaining() / min_encoded_bytes;
  }

  /// True once every byte has been consumed.
  bool Done() const { return offset_ == data_.size(); }

  size_t remaining() const { return data_.size() - offset_; }

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

}  // namespace stabletext

#endif  // STABLETEXT_UTIL_BYTES_H_
