// Concurrent serving: snapshot isolation under real reader/writer
// overlap. A fleet of reader threads issues bfs/ta/online/normalized
// queries nonstop while the writer ingests a 7-day generated corpus; the
// test then replays the same week serially and asserts that every
// concurrently observed answer is byte-identical to the serial answer at
// that reader's observed epoch — i.e. no query ever saw a half-committed
// interval, a torn graph, or a stale-but-mislabeled epoch. Also covers
// epoch pinning via Engine::snapshot()/QueryAt and the per-epoch query
// cache. Built to run under ThreadSanitizer (the CI tsan job).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace stabletext {
namespace {

constexpr uint32_t kDays = 7;
constexpr size_t kReaders = 4;

CorpusGenOptions TestCorpus() {
  CorpusGenOptions opt;
  opt.days = kDays;
  opt.posts_per_day = 120;
  opt.vocabulary = 800;
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 24;
  opt.micro_events = 15;
  opt.seed = 13;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions TestOptions(size_t threads) {
  EngineOptions opt;
  opt.gap = 0;  // TA answers full-path queries only on gap-0 graphs.
  opt.threads = threads;
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 5;
  opt.affinity.theta = 0.1;
  return opt;
}

std::vector<std::vector<std::string>> GenerateWeek() {
  CorpusGenerator gen(TestCorpus());
  std::vector<std::vector<std::string>> days;
  for (uint32_t day = 0; day < kDays; ++day) {
    days.push_back(gen.GenerateDay(day));
  }
  return days;
}

// The query mix the readers rotate through: every concurrently reachable
// algorithm family (ta is gap-0/full-path, hence l = 0).
std::vector<Query> QueryMix() {
  std::vector<Query> mix;
  Query q;
  q.k = 3;
  q.algorithm = FinderAlgorithm::kBfs;
  q.l = 2;
  mix.push_back(q);
  q.algorithm = FinderAlgorithm::kTa;
  q.l = 0;
  mix.push_back(q);
  q.algorithm = FinderAlgorithm::kOnline;
  q.l = 2;
  mix.push_back(q);
  q.algorithm = FinderAlgorithm::kBfs;
  q.mode = FinderMode::kNormalized;
  q.l = 2;
  mix.push_back(q);
  return mix;
}

// Byte-exact rendering of an answer-or-error; two results compare equal
// iff node sequences, full-precision weights and status agree.
std::string Fingerprint(const Result<QueryResult>& result) {
  if (!result.ok()) {
    return "ERROR: " + result.status().ToString();
  }
  std::string out;
  for (const StableClusterChain& chain : result.value().chains) {
    for (NodeId n : chain.path.nodes) {
      out += StringPrintf("%u-", n);
    }
    out += StringPrintf(" w=%.17g len=%u\n", chain.path.weight,
                        chain.path.length);
  }
  return out;
}

// One concurrently observed answer: which query, at which epoch, with
// which rendering.
struct Observation {
  uint64_t epoch;
  size_t config;
  std::string fingerprint;
};

// Structural snapshot-consistency checks a reader can apply without the
// serial reference: the answer must be entirely explained by `epoch`
// committed intervals. `later` is any snapshot pinned after the answer
// (node ids and their clusters never change once committed).
bool ObservationIsSelfConsistent(const QueryResult& result,
                                 const GraphSnapshot& later,
                                 std::string* why) {
  for (const StableClusterChain& chain : result.chains) {
    if (chain.clusters.size() != chain.path.nodes.size()) {
      *why = "chain clusters do not mirror path nodes";
      return false;
    }
    for (size_t i = 0; i < chain.clusters.size(); ++i) {
      const NodeId node = chain.path.nodes[i];
      if (chain.clusters[i] == nullptr) {
        *why = "null cluster in chain";
        return false;
      }
      if (node >= later.graph->node_count() ||
          later.NodeCluster(node) != chain.clusters[i]) {
        *why = "chain cluster is not its node's cluster";
        return false;
      }
      const uint32_t interval = later.graph->Interval(node);
      if (interval >= result.epoch) {
        *why = StringPrintf("cluster of interval %u visible at epoch %llu",
                            interval,
                            static_cast<unsigned long long>(result.epoch));
        return false;
      }
    }
  }
  return true;
}

TEST(ConcurrentEngineTest, ReadersMatchSerialReplayAtObservedEpoch) {
  const auto days = GenerateWeek();
  const auto mix = QueryMix();

  Engine engine(TestOptions(/*threads=*/2));
  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::string> reader_errors(kReaders);

  {
    ReaderFleet fleet(kReaders, [&](size_t reader) {
      auto& obs = observed[reader];
      std::string& error = reader_errors[reader];
      uint64_t last_epoch = 0;
      size_t n = reader;  // Stagger the mix across readers.
      auto issue = [&](const Query& q, size_t config) {
        auto r = engine.Query(q);
        if (r.ok()) {
          if (r.value().epoch < last_epoch) {
            error = "epoch went backwards for one reader";
            return false;
          }
          last_epoch = r.value().epoch;
          std::string why;
          if (!ObservationIsSelfConsistent(r.value(), *engine.snapshot(),
                                           &why)) {
            error = why;
            return false;
          }
        }
        obs.push_back(Observation{r.ok() ? r.value().epoch : last_epoch,
                                  config, Fingerprint(r)});
        return true;
      };
      while (!done.load(std::memory_order_acquire)) {
        const size_t config = n++ % mix.size();
        if (!issue(mix[config], config)) return;
        std::this_thread::yield();
      }
      // One final sweep so every reader provably observes the final
      // epoch for every query in the mix.
      for (size_t config = 0; config < mix.size(); ++config) {
        if (!issue(mix[config], config)) return;
      }
    });

    // Release the fleet before any assertion: an early return while
    // readers still spin on !done would hang the join in ~ReaderFleet.
    Status ingest_status;
    for (uint32_t day = 0; day < kDays; ++day) {
      auto tick = engine.IngestText(days[day]);
      if (!tick.ok()) {
        ingest_status = tick.status();
        break;
      }
    }
    done.store(true, std::memory_order_release);
    fleet.Join();
    ASSERT_TRUE(ingest_status.ok()) << ingest_status.ToString();
  }

  for (size_t reader = 0; reader < kReaders; ++reader) {
    EXPECT_EQ(reader_errors[reader], "") << "reader " << reader;
  }

  // Serial replay: the same week, one tick at a time, recording the
  // expected answer for every (epoch, query) pair a reader could have
  // observed. Determinism across thread counts is already covered by
  // engine_test, so the reference runs single-threaded.
  Engine reference(TestOptions(/*threads=*/1));
  std::map<std::pair<uint64_t, size_t>, std::string> expected;
  for (size_t config = 0; config < mix.size(); ++config) {
    expected[{0, config}] = Fingerprint(reference.Query(mix[config]));
  }
  for (uint32_t day = 0; day < kDays; ++day) {
    ASSERT_TRUE(reference.IngestText(days[day]).ok());
    for (size_t config = 0; config < mix.size(); ++config) {
      expected[{day + 1, config}] =
          Fingerprint(reference.Query(mix[config]));
    }
  }

  // Every concurrent observation equals the serial answer at its epoch.
  size_t total = 0;
  uint64_t final_epoch_hits = 0;
  for (size_t reader = 0; reader < kReaders; ++reader) {
    for (const Observation& o : observed[reader]) {
      ASSERT_LE(o.epoch, kDays);
      const auto it = expected.find({o.epoch, o.config});
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(o.fingerprint, it->second)
          << "reader " << reader << " config " << o.config << " epoch "
          << o.epoch;
      if (o.epoch == kDays) ++final_epoch_hits;
      ++total;
    }
    EXPECT_FALSE(observed[reader].empty()) << "reader " << reader;
    ASSERT_GE(observed[reader].size(), mix.size());
    EXPECT_EQ(observed[reader].back().epoch, kDays)
        << "reader " << reader << " never saw the final epoch";
  }
  // All four readers ran their final sweep at the final epoch.
  EXPECT_GE(final_epoch_hits, kReaders * mix.size());
  EXPECT_GE(total, kReaders * mix.size());
}

TEST(ConcurrentEngineTest, PinnedSnapshotIsImmuneToLaterIngest) {
  const auto days = GenerateWeek();
  Engine engine(TestOptions(/*threads=*/1));
  for (uint32_t day = 0; day < 3; ++day) {
    ASSERT_TRUE(engine.IngestText(days[day]).ok());
  }
  Query q;
  q.algorithm = FinderAlgorithm::kBfs;
  q.k = 3;
  q.l = 2;

  const auto pinned = engine.snapshot();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 3u);
  EXPECT_TRUE(pinned->graph->frozen());
  EXPECT_EQ(pinned->graph->interval_count(), 3u);
  const std::string before = Fingerprint(engine.QueryAt(pinned, q));

  for (uint32_t day = 3; day < kDays; ++day) {
    ASSERT_TRUE(engine.IngestText(days[day]).ok());
  }

  // The pinned epoch still answers exactly as it did, while the live
  // engine has moved on.
  const auto at_pin = engine.QueryAt(pinned, q);
  ASSERT_TRUE(at_pin.ok());
  EXPECT_EQ(at_pin.value().epoch, 3u);
  EXPECT_EQ(Fingerprint(at_pin), before);

  // Rendering off the pinned snapshot's word table agrees with the live
  // engine's (keyword ids are append-only, so both tables resolve a
  // committed chain identically).
  ASSERT_FALSE(at_pin.value().chains.empty());
  const StableClusterChain& chain = at_pin.value().chains[0];
  const std::string rendered = pinned->RenderChain(chain);
  EXPECT_NE(rendered.find("interval"), std::string::npos);
  EXPECT_EQ(rendered, engine.RenderChain(chain));

  const auto live = engine.Query(q);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().epoch, static_cast<uint64_t>(kDays));
}

TEST(ConcurrentEngineTest, QueryCacheHitsRepeatsAndRollsWithEpochs) {
  const auto days = GenerateWeek();
  Engine engine(TestOptions(/*threads=*/1));
  ASSERT_TRUE(engine.IngestText(days[0]).ok());
  ASSERT_TRUE(engine.IngestText(days[1]).ok());

  Query q;
  q.algorithm = FinderAlgorithm::kBfs;
  q.k = 3;
  q.l = 1;
  const std::string first = Fingerprint(engine.Query(q));
  const uint64_t hits_before = engine.stats().query_cache_hits;
  EXPECT_EQ(Fingerprint(engine.Query(q)), first);
  EXPECT_EQ(engine.stats().query_cache_hits, hits_before + 1);

  // A new epoch is a new key: the next query recomputes (miss), and its
  // answer reflects the new interval.
  ASSERT_TRUE(engine.IngestText(days[2]).ok());
  const uint64_t misses_before = engine.stats().query_cache_misses;
  auto after = engine.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epoch, 3u);
  EXPECT_EQ(engine.stats().query_cache_misses, misses_before + 1);

  // A cache-disabled engine answers identically.
  EngineOptions no_cache = TestOptions(1);
  no_cache.query_cache.entries_per_shard = 0;
  Engine uncached(no_cache);
  ASSERT_TRUE(uncached.IngestText(days[0]).ok());
  ASSERT_TRUE(uncached.IngestText(days[1]).ok());
  EXPECT_EQ(Fingerprint(uncached.Query(q)), first);
  EXPECT_EQ(uncached.stats().query_cache_hits, 0u);
}

// A cache hit skips the snapshot pin: Query keys its lookup on the
// published epoch counter. Readers hammer a small hot set while the
// writer ingests, so most calls are hits and some race a publish. Every
// answer must carry an epoch published during the call, no older than
// the reader's previous answer, and equal the finder's answer on that
// epoch's snapshot; every call must count exactly one hit or one miss.
TEST(ConcurrentEngineTest, HotHitsDuringIngestMatchTheirEpochSnapshot) {
  constexpr uint32_t kTicks = 24;
  CorpusGenOptions corpus = TestCorpus();
  corpus.days = kTicks;
  corpus.posts_per_day = 80;
  corpus.micro_events = 40;
  const CorpusGenerator gen(corpus);
  std::vector<Query> hot;
  Query q;
  q.k = 3;
  q.l = 2;
  hot.push_back(q);  // bfs
  q.algorithm = FinderAlgorithm::kOnline;
  hot.push_back(q);
  q.algorithm = FinderAlgorithm::kDfs;
  q.k = 2;
  q.l = 1;
  hot.push_back(q);

  Engine engine(TestOptions(/*threads=*/2));
  // kept[e] = the snapshot published at epoch e; `published` trails the
  // engine's own publish, so it is a lower bound for any later answer.
  std::vector<std::shared_ptr<const GraphSnapshot>> kept(kTicks + 1);
  kept[0] = engine.snapshot();
  std::atomic<uint64_t> published{0};
  engine.SetPublishCallback(
      [&](const std::shared_ptr<const GraphSnapshot>& snap) {
        kept[snap->epoch] = snap;
        published.store(snap->epoch, std::memory_order_release);
      });

  struct Reader {
    // (epoch, query) -> the first answer's fingerprint at that epoch.
    std::map<std::pair<uint64_t, size_t>, std::string> answers;
    uint64_t calls = 0;
    uint64_t last_epoch = 0;
    std::string error;
  };
  std::vector<Reader> readers(kReaders);
  std::atomic<bool> done{false};
  {
    ReaderFleet fleet(kReaders, [&](size_t id) {
      Reader& me = readers[id];
      for (size_t n = id; !done.load(std::memory_order_acquire); ++n) {
        const size_t config = n % hot.size();
        const uint64_t before = published.load(std::memory_order_acquire);
        auto r = engine.Query(hot[config]);
        const uint64_t after = engine.interval_count();
        ++me.calls;
        if (!r.ok()) {
          me.error = r.status().ToString();
          return;
        }
        const uint64_t epoch = r.value().epoch;
        if (epoch < before || epoch > after) {
          me.error = StringPrintf(
              "epoch %llu outside [%llu, %llu]",
              static_cast<unsigned long long>(epoch),
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(after));
          return;
        }
        if (epoch < me.last_epoch) {
          me.error = "epoch went backwards for one reader";
          return;
        }
        me.last_epoch = epoch;
        auto [it, inserted] =
            me.answers.emplace(std::make_pair(epoch, config), "");
        if (inserted) {
          it->second = Fingerprint(r);
        } else if (it->second != Fingerprint(r)) {
          me.error = "two answers differ at one epoch";
          return;
        }
        if ((n & 7) == 0) std::this_thread::yield();
      }
    });
    Status ingest_status;
    for (uint32_t day = 0; day < kTicks && ingest_status.ok(); ++day) {
      ingest_status = engine.IngestText(gen.GenerateDay(day)).status();
    }
    done.store(true, std::memory_order_release);
    fleet.Join();
    engine.SetPublishCallback(nullptr);
    ASSERT_TRUE(ingest_status.ok()) << ingest_status.ToString();
  }

  uint64_t calls = 0;
  size_t checked = 0;
  for (size_t id = 0; id < kReaders; ++id) {
    EXPECT_EQ(readers[id].error, "") << "reader " << id;
    calls += readers[id].calls;
    for (const auto& [key, fingerprint] : readers[id].answers) {
      const auto& [epoch, config] = key;
      ASSERT_NE(kept[epoch], nullptr) << "epoch " << epoch;
      EXPECT_EQ(fingerprint,
                Fingerprint(QuerySnapshot(*kept[epoch], hot[config])))
          << "reader " << id << " epoch " << epoch << " query " << config;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.query_cache_hits, 0u);
  EXPECT_EQ(stats.query_cache_hits + stats.query_cache_misses, calls);
}

// FNV-1a over words [0, count) of `word`, one '\n' after each.
template <typename WordFn>
uint64_t WordsHash(size_t count, const WordFn& word) {
  uint64_t h = 1469598103934665603ull;
  for (KeywordId id = 0; id < count; ++id) {
    for (const char c : word(id)) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

// Points TMPDIR at `value` for the scope.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const char* value) {
    const char* old = std::getenv("TMPDIR");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("TMPDIR", value, 1);
  }
  ~ScopedTmpdir() {
    if (had_old_) {
      ::setenv("TMPDIR", old_.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// A publish shares the dictionary's own word chunks instead of copying
// words. Readers resolve every word of the latest snapshot and render its
// chains while the writer keeps interning into the same tail chunk, and
// one tick fails after interning and rolls its words back
// (KeywordDict::TruncateTo). Each word a reader saw must be the one the
// dictionary holds at the end.
TEST(ConcurrentEngineTest, SharedWordTableUnderIngestAndRollback) {
  const auto days = GenerateWeek();
  EngineOptions options = TestOptions(/*threads=*/2);
  // A two-entry edge stack spills at a tick's first triangle, so a tick
  // fails after interning while the spill directory is unusable.
  options.clustering.extraction.biconnected.stack_memory_entries = 2;
  options.clustering.extraction.biconnected.stack_block_entries = 1;
  Engine engine(options);
  Query q;
  q.algorithm = FinderAlgorithm::kBfs;
  q.k = 3;
  q.l = 1;

  struct Reader {
    std::map<size_t, uint64_t> words_hash;  // Vocabulary size -> hash.
    uint64_t renders = 0;
    std::string error;
  };
  std::vector<Reader> readers(kReaders);
  std::atomic<bool> done{false};
  std::string writer_error;
  uint32_t failed_day = kDays;  // The tick that failed and was retried.
  size_t vocab_before_failure = 0;
  size_t vocab_after_retry = 0;
  {
    ReaderFleet fleet(kReaders, [&](size_t id) {
      Reader& me = readers[id];
      do {
        const auto snap = engine.snapshot();
        const uint64_t h = WordsHash(
            snap->words.size(),
            [&](KeywordId w) -> const std::string& {
              return snap->words.Word(w);
            });
        const auto [it, inserted] =
            me.words_hash.emplace(snap->words.size(), h);
        if (!inserted && it->second != h) {
          me.error = "published words changed under a reader";
          return;
        }
        auto r = engine.QueryAt(snap, q);
        if (!r.ok()) {
          me.error = r.status().ToString();
          return;
        }
        for (const StableClusterChain& chain : r.value().chains) {
          if (snap->RenderChain(chain).find("interval") ==
              std::string::npos) {
            me.error = "chain rendered without intervals";
            return;
          }
          ++me.renders;
        }
      } while (!done.load(std::memory_order_acquire));
    });
    for (uint32_t day = 0; day < kDays && writer_error.empty(); ++day) {
      const size_t vocab = engine.dict().size();
      bool committed = false;
      if (failed_day == kDays && day > 0) {
        // Until one tick has failed: a tick that spills fails and rolls
        // its words back, any other commits as usual.
        Status attempt;
        {
          ScopedTmpdir unusable("/nonexistent/stabletext-words-test");
          attempt = engine.IngestText(days[day]).status();
        }
        committed = attempt.ok();
        if (!committed) {
          failed_day = day;
          vocab_before_failure = vocab;
          if (engine.dict().size() != vocab) {
            writer_error = "the failed tick's words were not rolled back";
          }
        }
      }
      if (!committed) {
        auto retried = engine.IngestText(days[day]);
        if (!retried.ok()) {
          writer_error = retried.status().ToString();
          break;
        }
        if (day == failed_day) vocab_after_retry = engine.dict().size();
      }
      // The published table is the dictionary's storage, not a copy.
      const auto snap = engine.snapshot();
      for (KeywordId w = 0; w < snap->words.size(); ++w) {
        if (&snap->words.Word(w) != &engine.dict().Word(w)) {
          writer_error = "snapshot words do not alias the dictionary";
          break;
        }
      }
    }
    done.store(true, std::memory_order_release);
    fleet.Join();
  }
  ASSERT_EQ(writer_error, "");
  ASSERT_LT(failed_day, kDays) << "no tick spilled";
  // The failed tick had words of its own to roll back.
  EXPECT_GT(vocab_after_retry, vocab_before_failure);
  const KeywordDict& dict = engine.dict();
  uint64_t renders = 0;
  for (const Reader& reader : readers) {
    EXPECT_EQ(reader.error, "");
    renders += reader.renders;
    for (const auto& [size, hash] : reader.words_hash) {
      ASSERT_LE(size, dict.size());
      EXPECT_EQ(hash, WordsHash(size, [&](KeywordId w) -> const std::string& {
                  return dict.Word(w);
                }))
          << "words below " << size << " differ from the dictionary's";
    }
  }
  EXPECT_GT(renders, 0u);
}

}  // namespace
}  // namespace stabletext
