// QueryCache on its own: hit/miss accounting, copy-out independence,
// eviction order (superseded epochs first, then the least recently
// stamped live entry), the publish-time sweep, the disabled cache, and a
// reader/writer stress run meant for ThreadSanitizer.

#include "core/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace stabletext {
namespace {

FinderQuery MakeQuery(size_t k) {
  FinderQuery q;
  q.k = k;
  q.l = 2;
  return q;
}

// An answer that identifies (epoch, k) and a version, so a reader can
// tell which Insert it came from.
QueryResult MakeAnswer(uint64_t epoch, size_t k, uint64_t version = 0) {
  QueryResult r;
  r.epoch = epoch;
  StablePath path;
  path.nodes = {static_cast<NodeId>(k), static_cast<NodeId>(version)};
  path.weight = static_cast<double>(k) + 0.5;
  path.length = 1;
  r.finder.paths.push_back(path);
  r.chains.push_back(StableClusterChain{path, {}});
  return r;
}

bool Matches(const QueryResult& r, uint64_t epoch, size_t k) {
  return r.epoch == epoch && r.finder.paths.size() == 1 &&
         r.chains.size() == 1 &&
         r.finder.paths[0].nodes.size() == 2 &&
         r.finder.paths[0].nodes[0] == k &&
         r.chains[0].path.nodes == r.finder.paths[0].nodes;
}

// True when `a` and `b` land in the same shard. The shard choice is
// private, but a cache of one entry per shard reveals it: inserting `b`
// evicts `a` only from a shared shard.
bool SameShard(const QueryCacheKey& a, const QueryCacheKey& b) {
  QueryCache probe(QueryCacheOptions{1});
  probe.Insert(a, MakeAnswer(a.epoch, a.query.k));
  probe.Insert(b, MakeAnswer(b.epoch, b.query.k));
  QueryResult out;
  return !probe.Lookup(a, &out);
}

// `count` keys at `epoch`, with k from `first_k` up, in `anchor`'s shard.
std::vector<QueryCacheKey> KeysInShardOf(const QueryCacheKey& anchor,
                                         uint64_t epoch, size_t first_k,
                                         size_t count) {
  std::vector<QueryCacheKey> keys;
  for (size_t k = first_k; keys.size() < count; ++k) {
    const QueryCacheKey candidate{epoch, MakeQuery(k)};
    if (SameShard(anchor, candidate)) keys.push_back(candidate);
  }
  return keys;
}

TEST(QueryCacheTest, CountsHitsAndMisses) {
  QueryCache cache(QueryCacheOptions{});
  ASSERT_TRUE(cache.enabled());
  const QueryCacheKey key{3, MakeQuery(5)};
  QueryResult out;
  EXPECT_FALSE(cache.Lookup(key, &out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  cache.Insert(key, MakeAnswer(3, 5));
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_TRUE(Matches(out, 3, 5));
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);

  // Same query at another epoch, or another query: distinct keys.
  EXPECT_FALSE(cache.Lookup(QueryCacheKey{4, MakeQuery(5)}, &out));
  EXPECT_FALSE(cache.Lookup(QueryCacheKey{3, MakeQuery(6)}, &out));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(QueryCacheTest, LookupCopyIsIndependentOfTheEntry) {
  QueryCache cache(QueryCacheOptions{});
  const QueryCacheKey key{1, MakeQuery(2)};
  cache.Insert(key, MakeAnswer(1, 2));

  QueryResult first;
  ASSERT_TRUE(cache.Lookup(key, &first));
  first.chains.clear();
  first.finder.paths[0].nodes.push_back(99);
  first.epoch = 77;

  QueryResult second;
  ASSERT_TRUE(cache.Lookup(key, &second));
  EXPECT_TRUE(Matches(second, 1, 2));
}

TEST(QueryCacheTest, InsertRefreshesAnExistingKey) {
  QueryCache cache(QueryCacheOptions{});
  const QueryCacheKey key{1, MakeQuery(2)};
  cache.Insert(key, MakeAnswer(1, 2, /*version=*/1));
  cache.Insert(key, MakeAnswer(1, 2, /*version=*/2));
  QueryResult out;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.finder.paths[0].nodes[1], 2u);
}

TEST(QueryCacheTest, SupersededEpochIsEvictedBeforeAnyLiveEntry) {
  const QueryCacheKey anchor{5, MakeQuery(1)};
  auto live = KeysInShardOf(anchor, 5, 2, 2);
  live.insert(live.begin(), anchor);
  const QueryCacheKey stale = KeysInShardOf(anchor, 4, 100, 1)[0];
  QueryCache cache(QueryCacheOptions{3});
  // The stale entry is inserted last and hit, so recency alone would
  // keep it: only its epoch makes it the victim.
  cache.Insert(live[0], MakeAnswer(5, live[0].query.k));
  cache.Insert(live[1], MakeAnswer(5, live[1].query.k));
  cache.Insert(stale, MakeAnswer(4, stale.query.k));
  QueryResult out;
  ASSERT_TRUE(cache.Lookup(stale, &out));

  cache.Insert(live[2], MakeAnswer(5, live[2].query.k));
  EXPECT_FALSE(cache.Lookup(stale, &out));
  for (const QueryCacheKey& key : live) {
    ASSERT_TRUE(cache.Lookup(key, &out)) << "k " << key.query.k;
    EXPECT_TRUE(Matches(out, 5, key.query.k));
  }
}

TEST(QueryCacheTest, EntryHitSinceTheLastInsertOutlivesOneThatWasNot) {
  const QueryCacheKey anchor{2, MakeQuery(1)};
  auto keys = KeysInShardOf(anchor, 2, 2, 2);
  keys.insert(keys.begin(), anchor);
  QueryCache cache(QueryCacheOptions{2});
  cache.Insert(keys[0], MakeAnswer(2, keys[0].query.k));
  cache.Insert(keys[1], MakeAnswer(2, keys[1].query.k));
  // keys[0] is the older insert, but it is hit after keys[1]'s.
  QueryResult out;
  ASSERT_TRUE(cache.Lookup(keys[0], &out));
  ASSERT_TRUE(cache.Lookup(keys[0], &out));

  cache.Insert(keys[2], MakeAnswer(2, keys[2].query.k));
  EXPECT_FALSE(cache.Lookup(keys[1], &out));
  EXPECT_TRUE(cache.Lookup(keys[0], &out));
  EXPECT_TRUE(cache.Lookup(keys[2], &out));
}

TEST(QueryCacheTest, EvictBeforeDropsExactlyTheEarlierEpochs) {
  QueryCache cache(QueryCacheOptions{});
  for (uint64_t epoch = 0; epoch < 6; ++epoch) {
    for (size_t k = 1; k <= 4; ++k) {
      cache.Insert(QueryCacheKey{epoch, MakeQuery(k)}, MakeAnswer(epoch, k));
    }
  }
  cache.EvictBefore(3);
  QueryResult out;
  for (uint64_t epoch = 0; epoch < 6; ++epoch) {
    for (size_t k = 1; k <= 4; ++k) {
      EXPECT_EQ(cache.Lookup(QueryCacheKey{epoch, MakeQuery(k)}, &out),
                epoch >= 3)
          << "epoch " << epoch << " k " << k;
    }
  }
}

TEST(QueryCacheTest, ZeroCapacityCachesAndCountsNothing) {
  QueryCache cache(QueryCacheOptions{0});
  EXPECT_FALSE(cache.enabled());
  const QueryCacheKey key{1, MakeQuery(3)};
  cache.Insert(key, MakeAnswer(1, 3));
  QueryResult out = MakeAnswer(9, 9);
  EXPECT_FALSE(cache.Lookup(key, &out));
  EXPECT_TRUE(Matches(out, 9, 9));  // Left alone.
  cache.EvictBefore(5);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

// Readers look up a hot set while one writer re-inserts it, advances the
// epoch and sweeps: every hit carries the value inserted for its key,
// and every lookup is counted exactly once.
TEST(QueryCacheTest, ConcurrentLookupsDuringInsertAndEvict) {
  constexpr size_t kReaders = 4;
  constexpr size_t kHot = 8;
  constexpr uint64_t kEpochs = 200;
  QueryCache cache(QueryCacheOptions{});
  std::atomic<uint64_t> epoch{0};
  std::atomic<bool> done{false};
  std::vector<uint64_t> lookups(kReaders, 0);
  std::vector<uint64_t> bad(kReaders, 0);
  std::vector<uint64_t> hits(kReaders, 0);

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      QueryResult out;
      size_t i = t;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t e = epoch.load(std::memory_order_acquire);
        const size_t k = 1 + (i++ % kHot);
        ++lookups[t];
        if (cache.Lookup(QueryCacheKey{e, MakeQuery(k)}, &out)) {
          ++hits[t];
          if (!Matches(out, e, k)) ++bad[t];
        }
      }
    });
  }
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (size_t k = 1; k <= kHot; ++k) {
      cache.Insert(QueryCacheKey{e, MakeQuery(k)}, MakeAnswer(e, k, e));
    }
    epoch.store(e, std::memory_order_release);
    if (e > 0) cache.EvictBefore(e);
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  uint64_t total = 0, total_hits = 0;
  for (size_t t = 0; t < kReaders; ++t) {
    EXPECT_EQ(bad[t], 0u) << "reader " << t;
    total += lookups[t];
    total_hits += hits[t];
  }
  EXPECT_GT(total_hits, 0u);
  EXPECT_EQ(cache.hits(), total_hits);
  EXPECT_EQ(cache.hits() + cache.misses(), total);
}

}  // namespace
}  // namespace stabletext
