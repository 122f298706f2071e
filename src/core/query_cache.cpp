#include "core/query_cache.h"

#include <algorithm>

namespace stabletext {

namespace {

// Lock shards; a power of two (ShardFor masks the hash).
constexpr size_t kShards = 4;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

QueryCache::QueryCache(QueryCacheOptions options)
    : options_(options), shards_(std::make_unique<Shard[]>(kShards)) {}

uint64_t QueryCache::HashKey(const QueryCacheKey& key) {
  uint64_t h = key.epoch;
  const FinderQuery& q = key.query;
  h = Mix(h, static_cast<uint64_t>(q.algorithm));
  h = Mix(h, static_cast<uint64_t>(q.mode));
  h = Mix(h, q.k);
  h = Mix(h, q.l);
  h = Mix(h, (static_cast<uint64_t>(q.diversify_prefix) << 32) |
                 q.diversify_suffix);
  h = Mix(h, q.diversify_candidates);
  h = Mix(h, q.memory_budget_bytes);
  h = Mix(h, q.theorem1_pruning ? 1 : 0);
  h = Mix(h, q.max_probes);
  return h;
}

QueryCache::Shard& QueryCache::ShardFor(const QueryCacheKey& key) {
  return shards_[HashKey(key) & (kShards - 1)];
}

bool QueryCache::Lookup(const QueryCacheKey& key, QueryResult* out) {
  if (!enabled()) return false;
  Shard& shard = ShardFor(key);
  ReaderMutexLock lock(shard.mu);
  for (const Entry& e : shard.entries) {
    if (e.key == key) {
      // Only the first hit after an insert restamps the entry.
      if (e.last_used.load(std::memory_order_relaxed) != shard.inserts) {
        e.last_used.store(shard.inserts, std::memory_order_relaxed);
      }
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      *out = e.value;
      return true;
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void QueryCache::Insert(const QueryCacheKey& key, QueryResult value) {
  if (!enabled()) return;
  Shard& shard = ShardFor(key);
  WriterMutexLock lock(shard.mu);
  // Stamped with the count before this insert, so a later hit (stamped
  // with the count after it) ranks above the entry added here.
  const uint64_t stamp = shard.inserts++;
  for (Entry& e : shard.entries) {
    if (e.key == key) {
      e.value = std::move(value);
      e.last_used.store(stamp, std::memory_order_relaxed);
      return;
    }
  }
  if (shard.entries.size() < options_.entries_per_shard) {
    shard.entries.emplace_back(key, std::move(value), stamp);
    return;
  }
  Entry* victim = &shard.entries[0];
  for (Entry& e : shard.entries) {
    // Superseded epochs first, then the oldest stamp.
    const uint64_t used = e.last_used.load(std::memory_order_relaxed);
    if (e.key.epoch < victim->key.epoch ||
        (e.key.epoch == victim->key.epoch &&
         used < victim->last_used.load(std::memory_order_relaxed))) {
      victim = &e;
    }
  }
  *victim = Entry(key, std::move(value), stamp);
}

void QueryCache::EvictBefore(uint64_t epoch) {
  if (!enabled()) return;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    WriterMutexLock lock(shard.mu);
    shard.entries.erase(
        std::remove_if(shard.entries.begin(), shard.entries.end(),
                       [epoch](const Entry& e) {
                         return e.key.epoch < epoch;
                       }),
        shard.entries.end());
  }
}

uint64_t QueryCache::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kShards; ++i) {
    total += shards_[i].hits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t QueryCache::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kShards; ++i) {
    total += shards_[i].misses.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace stabletext
