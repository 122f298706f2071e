// Batch ingest (IngestTicks): a batch of ticks commits one interval at a
// time, each tick fanning tokenization and clustering out on the worker
// pool. The contract under test is byte-identity — graph, per-tick
// epochs, keyword watermarks and every algorithm's answers must match a
// serial one-IngestText-per-tick ingest at 1, 2 and 4 worker threads —
// plus the batch lifecycle: on_tick sees each committed epoch, an on_tick
// error keeps the committed prefix, and a compacted engine refuses
// batches. Runs in the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "util/strings.h"

namespace stabletext {
namespace {

constexpr uint32_t kDays = 6;

CorpusGenOptions TestCorpus() {
  CorpusGenOptions opt;
  opt.days = kDays;
  opt.posts_per_day = 200;
  opt.vocabulary = 1200;
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 26;
  opt.micro_events = 20;
  opt.seed = 23;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions TestOptions(size_t threads) {
  EngineOptions opt;
  opt.gap = 1;
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

std::string GraphFingerprint(const ClusterGraph& graph) {
  std::string out = StringPrintf("nodes=%zu edges=%zu intervals=%u\n",
                                 graph.node_count(), graph.edge_count(),
                                 graph.interval_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      out += StringPrintf("%u->%u %.17g\n", v, e.target, e.weight);
    }
  }
  return out;
}

std::string PathsFingerprint(const QueryResult& result) {
  std::string out;
  for (const StableClusterChain& chain : result.chains) {
    for (NodeId n : chain.path.nodes) {
      out += StringPrintf("%u-", n);
    }
    out += StringPrintf(" w=%.17g len=%u\n", chain.path.weight,
                        chain.path.length);
  }
  return out;
}

Query MakeQuery(FinderAlgorithm algorithm, size_t k, uint32_t l) {
  Query q;
  q.algorithm = algorithm;
  q.k = k;
  q.l = l;
  return q;
}

// Per-tick trace of the serving-visible state: epoch, graph shape and
// the keyword watermark.
std::string TickTrace(const Engine& engine, uint32_t tick) {
  const EngineStats stats = engine.stats();
  return StringPrintf("tick=%u epoch=%u clusters=%zu edges=%zu kw=%zu\n",
                      tick, stats.intervals, stats.clusters, stats.edges,
                      stats.keywords);
}

TEST(PipelinedIngestTest, PipelinedMatchesSerialAt124Threads) {
  const auto days = GenerateWeek();

  // Reference: strictly serial, one IngestText call per tick.
  Engine reference(TestOptions(/*threads=*/1));
  std::string reference_trace;
  for (uint32_t day = 0; day < kDays; ++day) {
    ASSERT_TRUE(reference.IngestText(days[day]).ok());
    reference_trace += TickTrace(reference, day);
  }
  const std::string reference_graph =
      GraphFingerprint(*reference.snapshot()->graph);

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(StringPrintf("threads=%zu", threads));
    Engine batch(TestOptions(threads));
    std::string trace;
    auto ingested = batch.IngestTicks(
        days, [&](uint32_t tick, const std::vector<std::string>& posts) {
          EXPECT_EQ(posts.size(), days[tick].size());
          trace += TickTrace(batch, tick);
          return Status::OK();
        });
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    EXPECT_EQ(ingested.value(), kDays);
    EXPECT_EQ(trace, reference_trace);
    EXPECT_EQ(GraphFingerprint(*batch.snapshot()->graph), reference_graph);

    for (const FinderAlgorithm algorithm :
         {FinderAlgorithm::kBfs, FinderAlgorithm::kDfs,
          FinderAlgorithm::kOnline, FinderAlgorithm::kBruteForce}) {
      SCOPED_TRACE(FinderAlgorithmName(algorithm));
      auto p = batch.Query(MakeQuery(algorithm, 4, 2));
      auto r = reference.Query(MakeQuery(algorithm, 4, 2));
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(p.value().chains.empty());
      EXPECT_EQ(PathsFingerprint(p.value()), PathsFingerprint(r.value()));
    }
    Query normalized = MakeQuery(FinderAlgorithm::kBfs, 4, 2);
    normalized.mode = FinderMode::kNormalized;
    auto pn = batch.Query(normalized);
    auto rn = reference.Query(normalized);
    ASSERT_TRUE(pn.ok());
    ASSERT_TRUE(rn.ok());
    EXPECT_EQ(PathsFingerprint(pn.value()), PathsFingerprint(rn.value()));
  }
}

// Queries issued from on_tick see the epoch of the tick that just
// committed, with the answers a one-IngestText-per-tick run gives there.
TEST(PipelinedIngestTest, InterleavedQueriesSeeCommittedEpochsOnly) {
  const auto days = GenerateWeek();
  const Query q = MakeQuery(FinderAlgorithm::kBfs, 3, 2);

  Engine reference(TestOptions(/*threads=*/1));
  std::vector<std::string> expected;
  for (uint32_t day = 0; day < kDays; ++day) {
    ASSERT_TRUE(reference.IngestText(days[day]).ok());
    auto r = reference.Query(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(PathsFingerprint(r.value()));
  }

  Engine engine(TestOptions(/*threads=*/2));
  uint32_t ticks_seen = 0;
  auto ingested = engine.IngestTicks(
      days, [&](uint32_t tick, const std::vector<std::string>& posts) {
        EXPECT_EQ(posts.size(), days[tick].size());
        auto r = engine.Query(q);
        EXPECT_TRUE(r.ok());
        if (r.ok()) {
          EXPECT_EQ(r.value().epoch, tick + 1);
          EXPECT_EQ(PathsFingerprint(r.value()), expected[tick]);
        }
        ++ticks_seen;
        return Status::OK();
      });
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested.value(), kDays);
  EXPECT_EQ(ticks_seen, kDays);
}

TEST(PipelinedIngestTest, LifecycleAndErrors) {
  const auto days = GenerateWeek();
  Engine engine(TestOptions(/*threads=*/2));

  // Empty batch: trivially zero ticks.
  auto none = engine.IngestTicks({});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), 0u);

  // An on_tick error ends the batch after the tick it reported on: the
  // committed prefix stays, the engine stays healthy and keeps
  // ingesting, and nothing of the unsent ticks leaks into keyword ids.
  auto aborted = engine.IngestTicks(
      days, [](uint32_t tick, const std::vector<std::string>&) {
        return tick == 1 ? Status::IOError("stop here") : Status::OK();
      });
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kIOError);
  EXPECT_EQ(engine.interval_count(), 2u);  // Ticks 0 and 1 committed.
  // Continue with a tick the aborted batch never reached, then compare
  // the serving state byte-for-byte against a serial engine fed the same
  // committed sequence (days 0, 1, 3).
  ASSERT_TRUE(engine.IngestText(days[3]).ok());
  EXPECT_EQ(engine.interval_count(), 3u);
  Engine serial(TestOptions(/*threads=*/1));
  ASSERT_TRUE(serial.IngestText(days[0]).ok());
  ASSERT_TRUE(serial.IngestText(days[1]).ok());
  ASSERT_TRUE(serial.IngestText(days[3]).ok());
  EXPECT_EQ(engine.stats().keywords, serial.stats().keywords);
  EXPECT_EQ(GraphFingerprint(*engine.snapshot()->graph),
            GraphFingerprint(*serial.snapshot()->graph));
  auto p = engine.Query(MakeQuery(FinderAlgorithm::kBfs, 3, 2));
  auto s = serial.Query(MakeQuery(FinderAlgorithm::kBfs, 3, 2));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(PathsFingerprint(p.value()), PathsFingerprint(s.value()));

  // A compacted engine refuses batches like it refuses single ticks.
  ASSERT_TRUE(engine.Compact().ok());
  auto refused = engine.IngestTicks(days);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stabletext
