// Keyword dictionary: bidirectional mapping between keyword strings and
// dense uint32 ids. All downstream graph machinery works on ids; the
// dictionary is only consulted when rendering clusters back to text.
//
// The index is an open-addressing flat hash table (power-of-two capacity,
// linear probing, cached hashes) rather than node-based unordered_map:
// probes are cache-line friendly and lookups never allocate — the old
// implementation built a std::string per Lookup/Intern call, which was the
// single hottest allocation site of the counting pass.
//
// Words live in fixed-capacity chunks of kChunkWords strings. A chunk's
// capacity is reserved when it is created and never exceeded, so an
// interned word never moves, and ShareChunks() hands the chunks out by
// shared_ptr: the engine's published snapshots read their words from the
// dictionary's own storage instead of a copy (core/snapshot.h).
//
// Concurrency contract: Intern() requires external serialization (the
// engine interns on its writer thread, in document order, so ids are
// deterministic across thread counts). Lookup()/Word() are safe to call
// concurrently from many threads once ingest is quiescent. A reader that
// holds shared chunks may read ids below a size() it was handed while the
// writer keeps interning or rolls back to a size at or above it (see
// ShareChunks).

#ifndef STABLETEXT_COOCCUR_KEYWORD_DICT_H_
#define STABLETEXT_COOCCUR_KEYWORD_DICT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stabletext {

/// Id type for keywords. Dense, starting at 0.
using KeywordId = uint32_t;

/// Sentinel for "not present".
inline constexpr KeywordId kInvalidKeyword = UINT32_MAX;

/// \brief Append-only keyword interning table.
class KeywordDict {
 public:
  /// Words per storage chunk (a power of two).
  static constexpr size_t kChunkShift = 12;
  static constexpr size_t kChunkWords = size_t{1} << kChunkShift;
  /// One storage chunk: ids [c * kChunkWords, (c + 1) * kChunkWords).
  using Chunk = std::vector<std::string>;

  KeywordDict() { Rehash(kInitialSlots); }
  // A copy would share, and then append to, the same chunks.
  KeywordDict(const KeywordDict&) = delete;
  KeywordDict& operator=(const KeywordDict&) = delete;
  KeywordDict(KeywordDict&&) = default;
  KeywordDict& operator=(KeywordDict&&) = default;

  /// Returns the id of `word`, inserting it if new.
  KeywordId Intern(std::string_view word);

  /// Returns the id of `word` or kInvalidKeyword if absent.
  KeywordId Lookup(std::string_view word) const;

  /// Returns the keyword for an id. Precondition: id < size().
  const std::string& Word(KeywordId id) const {
    return (*chunks_[id >> kChunkShift])[id & (kChunkWords - 1)];
  }

  size_t size() const { return size_; }

  /// The chunks holding ids [0, size()), shared. Their words stay valid
  /// and unchanged for as long as the caller holds them: later Intern()
  /// calls only construct strings past the last id, in capacity reserved
  /// up front, and TruncateTo() only destroys strings at or past its
  /// size. A reader may therefore read any id below today's size() while
  /// the writer goes on interning, provided the writer never truncates
  /// below that size. Read through Chunk::data(), which loads only the
  /// chunk's start pointer, never its length.
  std::vector<std::shared_ptr<const Chunk>> ShareChunks() const {
    return {chunks_.begin(), chunks_.end()};
  }

  /// Drops every keyword with id >= `size`, rolling interning back to a
  /// previous watermark (ids below `size` are untouched). O(size) probe
  /// table rebuild — meant for cold abort paths (an ingest that failed
  /// after interning), never the ingest hot path.
  void TruncateTo(size_t size);

 private:
  static constexpr size_t kInitialSlots = 64;
  static constexpr KeywordId kEmptySlot = kInvalidKeyword;

  static uint64_t Hash(std::string_view word);
  void Rehash(size_t new_slots);
  // Probe for `word` with known hash; returns the slot holding its id or
  // the empty slot where it would be inserted.
  size_t FindSlot(std::string_view word, uint64_t hash) const;

  // Appends `word` as id size_, opening a new chunk when the last is full.
  void Append(std::string_view word);

  // slots_[probe] = keyword id, or kEmptySlot. Capacity is a power of two.
  std::vector<KeywordId> slots_;
  size_t slot_mask_ = 0;
  // Ids [0, size_), kChunkWords per chunk; only the last is partial.
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
  std::vector<uint64_t> hashes_;  // Cached Hash(Word(id)) for rehashing.
};

}  // namespace stabletext

#endif  // STABLETEXT_COOCCUR_KEYWORD_DICT_H_
