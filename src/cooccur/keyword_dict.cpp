#include "cooccur/keyword_dict.h"

namespace stabletext {

uint64_t KeywordDict::Hash(std::string_view word) {
  // FNV-1a; keywords are short stemmed tokens so the byte loop is cheap
  // and the hash is stable across platforms (ids must not depend on the
  // standard library's std::hash seed).
  uint64_t h = 1469598103934665603ull;
  for (const char c : word) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

size_t KeywordDict::FindSlot(std::string_view word, uint64_t hash) const {
  size_t i = static_cast<size_t>(hash) & slot_mask_;
  for (;;) {
    const KeywordId id = slots_[i];
    if (id == kEmptySlot) return i;
    if (hashes_[id] == hash && Word(id) == word) return i;
    i = (i + 1) & slot_mask_;
  }
}

void KeywordDict::Rehash(size_t new_slots) {
  slots_.assign(new_slots, kEmptySlot);
  slot_mask_ = new_slots - 1;
  for (KeywordId id = 0; id < size_; ++id) {
    size_t i = static_cast<size_t>(hashes_[id]) & slot_mask_;
    while (slots_[i] != kEmptySlot) i = (i + 1) & slot_mask_;
    slots_[i] = id;
  }
}

KeywordId KeywordDict::Intern(std::string_view word) {
  const uint64_t hash = Hash(word);
  const size_t slot = FindSlot(word, hash);
  if (slots_[slot] != kEmptySlot) return slots_[slot];
  const KeywordId id = static_cast<KeywordId>(size_);
  Append(word);
  hashes_.push_back(hash);
  slots_[slot] = id;
  // Grow at 70% load.
  if (size_ * 10 >= slots_.size() * 7) Rehash(slots_.size() * 2);
  return id;
}

void KeywordDict::Append(std::string_view word) {
  if ((size_ & (kChunkWords - 1)) == 0) {
    // Reserved in full once: pushing back never reallocates, so words
    // never move under a reader holding the chunk.
    chunks_.push_back(std::make_shared<Chunk>());
    chunks_.back()->reserve(kChunkWords);
  }
  chunks_.back()->emplace_back(word);
  ++size_;
}

void KeywordDict::TruncateTo(size_t size) {
  if (size >= size_) return;
  chunks_.resize((size + kChunkWords - 1) >> kChunkShift);
  if (!chunks_.empty()) {
    Chunk& tail = *chunks_.back();
    tail.erase(tail.begin() + static_cast<std::ptrdiff_t>(
                                  size - ((chunks_.size() - 1) << kChunkShift)),
               tail.end());
  }
  size_ = size;
  hashes_.resize(size);
  Rehash(slots_.size());
}

KeywordId KeywordDict::Lookup(std::string_view word) const {
  const size_t slot = FindSlot(word, Hash(word));
  return slots_[slot] == kEmptySlot ? kInvalidKeyword : slots_[slot];
}

}  // namespace stabletext
