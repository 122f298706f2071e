// QueryCache: a small sharded LRU over query answers, keyed by (epoch,
// query). Repeated hot queries between two ingests are absorbed here
// instead of re-running a finder; because the epoch is part of the key,
// an answer computed at epoch e can never be served at epoch e+1 — the
// writer also sweeps superseded epochs out at every publish, so the
// cache never pins more than the live snapshot's results.
//
// Concurrency: Lookup/Insert are safe from any number of reader threads;
// EvictBefore is called by the writer at publish time. Each shard sits on
// its own cache lines behind a SharedMutex. Lookup copies the answer out
// under the shared (reader) lock, so concurrent hits on one shard do not
// serialize, and the only shared line a hit writes is that lock's reader
// count (the shard's hit counter shares its line). The recency stamp is a
// relaxed atomic that a hit rewrites only when an Insert has happened
// since the entry's last stamp, so repeated hits between inserts write
// nothing else. Insert and EvictBefore take the lock exclusively.

#ifndef STABLETEXT_CORE_QUERY_CACHE_H_
#define STABLETEXT_CORE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/snapshot.h"
#include "stable/finder.h"
#include "util/annotated_mutex.h"

namespace stabletext {

/// Cache identity of one query at one epoch.
struct QueryCacheKey {
  uint64_t epoch = 0;
  FinderQuery query;

  friend bool operator==(const QueryCacheKey& a, const QueryCacheKey& b) {
    return a.epoch == b.epoch && a.query == b.query;
  }
};

/// Knobs for the engine's query cache.
struct QueryCacheOptions {
  /// LRU capacity per shard (the cache has 4 shards). 0 disables the
  /// cache entirely.
  size_t entries_per_shard = 64;
};

/// \brief Sharded LRU of query answers.
class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options);

  bool enabled() const { return options_.entries_per_shard > 0; }

  /// Copies the cached answer for `key` into `*out` and returns true, or
  /// returns false and leaves `*out` alone. Counts one hit or one miss
  /// (nothing when the cache is disabled).
  bool Lookup(const QueryCacheKey& key, QueryResult* out);

  /// Inserts (or refreshes) `key` -> `value`. A full shard evicts an
  /// entry of its oldest epoch, least recently stamped first.
  void Insert(const QueryCacheKey& key, QueryResult value);

  /// Drops every entry whose epoch is below `epoch` (writer-side, at
  /// publish).
  void EvictBefore(uint64_t epoch);

  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    Entry(const QueryCacheKey& k, QueryResult v, uint64_t stamp)
        : key(k), value(std::move(v)), last_used(stamp) {}
    // Moves are spelled out because std::atomic has none, and
    // std::vector needs them; they run under the exclusive lock only.
    Entry(Entry&& other) noexcept
        : key(other.key), value(std::move(other.value)),
          last_used(other.last_used.load(std::memory_order_relaxed)) {}
    Entry& operator=(Entry&& other) noexcept {
      key = other.key;
      value = std::move(other.value);
      last_used.store(other.last_used.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      return *this;
    }

    QueryCacheKey key;
    QueryResult value;
    // Recency: the shard's insert count at the entry's last insert
    // (taken before counting it) or hit. Hits stamp it under the shared
    // lock, hence mutable and atomic.
    mutable std::atomic<uint64_t> last_used;
  };
  // Each shard starts its own 64-byte line, so no two shards share one
  // (64, not hardware_destructive_interference_size, which GCC warns
  // about under -Werror). The lock and the hit counter, the two fields
  // every hit writes, come first and share the first line.
  struct alignas(64) Shard {
    SharedMutex mu;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    // Small: linear scan beats pointer soup.
    std::vector<Entry> entries GUARDED_BY(mu);
    uint64_t inserts GUARDED_BY(mu) = 0;
  };

  static uint64_t HashKey(const QueryCacheKey& key);
  Shard& ShardFor(const QueryCacheKey& key);

  QueryCacheOptions options_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_QUERY_CACHE_H_
