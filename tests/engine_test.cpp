// Engine API: incremental ingest ≡ batch build. Intervals ingested one at
// a time with interleaved queries must leave the engine in a state
// byte-identical to ingesting everything up front (and to one IngestTicks
// batch), for every algorithm in the registry and for 1 and 4 worker
// threads. Plus lifecycle validation, registry reachability
// (TA, brute-force, online, diversified), the IngestTicks batch contract
// (per-tick callbacks, aborts) and the corpus-file ingest contract.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "stable/diversify.h"
#include "storage/temp_dir.h"
#include "util/strings.h"

namespace stabletext {
namespace {

constexpr uint32_t kDays = 5;

CorpusGenOptions TestCorpus() {
  CorpusGenOptions opt;
  opt.days = kDays;
  opt.posts_per_day = 300;
  opt.vocabulary = 1500;
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 28;
  opt.micro_events = 30;
  opt.seed = 11;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions TestOptions(uint32_t gap, size_t threads) {
  EngineOptions opt;
  opt.gap = gap;
  opt.threads = threads;
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 5;
  opt.affinity.theta = 0.1;
  return opt;
}

// Byte-exact rendering of a query answer: node sequences and full-precision
// weights.
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

// Byte-exact rendering of the engine's graph (works frozen or unfrozen).
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

std::vector<std::vector<std::string>> GenerateWeek() {
  CorpusGenerator gen(TestCorpus());
  std::vector<std::vector<std::string>> days;
  for (uint32_t day = 0; day < kDays; ++day) {
    days.push_back(gen.GenerateDay(day));
  }
  return days;
}

Query MakeQuery(FinderAlgorithm algorithm, size_t k, uint32_t l) {
  Query q;
  q.algorithm = algorithm;
  q.k = k;
  q.l = l;
  return q;
}

// The incremental-vs-batch equivalence demanded by the acceptance
// criteria: ingest one interval at a time with interleaved queries, then
// compare the final answers (all algorithms) and the graph against a
// one-shot build, at 1 and 4 threads.
TEST(EngineEquivalenceTest, IncrementalMatchesBatchAllAlgorithms) {
  const auto days = GenerateWeek();

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StringPrintf("threads=%zu", threads));

    // Incremental: one tick at a time, querying between every two
    // ingests (the queries must not perturb later answers).
    Engine incremental(TestOptions(/*gap=*/1, threads));
    for (uint32_t day = 0; day < kDays; ++day) {
      auto tick = incremental.IngestText(days[day]);
      ASSERT_TRUE(tick.ok()) << tick.status().ToString();
      EXPECT_EQ(tick.value(), day);
      for (const FinderAlgorithm algorithm :
           {FinderAlgorithm::kBfs, FinderAlgorithm::kDfs,
            FinderAlgorithm::kOnline}) {
        auto mid = incremental.Query(MakeQuery(algorithm, 3, 2));
        ASSERT_TRUE(mid.ok()) << mid.status().ToString();
      }
    }

    // Batch: everything up front, no intermediate queries.
    Engine batch(TestOptions(/*gap=*/1, threads));
    for (uint32_t day = 0; day < kDays; ++day) {
      ASSERT_TRUE(batch.IngestText(days[day]).ok());
    }

    // One IngestTicks batch.
    Engine ticked(TestOptions(/*gap=*/1, threads));
    auto ingested = ticked.IngestTicks(days);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    EXPECT_EQ(ingested.value(), kDays);

    EXPECT_EQ(GraphFingerprint(incremental.graph()),
              GraphFingerprint(batch.graph()));
    EXPECT_EQ(GraphFingerprint(incremental.graph()),
              GraphFingerprint(ticked.graph()));

    for (const FinderAlgorithm algorithm :
         {FinderAlgorithm::kBfs, FinderAlgorithm::kDfs,
          FinderAlgorithm::kOnline, FinderAlgorithm::kBruteForce}) {
      SCOPED_TRACE(FinderAlgorithmName(algorithm));
      for (const uint32_t l : {uint32_t{2}, uint32_t{0}}) {
        auto inc = incremental.Query(MakeQuery(algorithm, 4, l));
        auto bat = batch.Query(MakeQuery(algorithm, 4, l));
        ASSERT_TRUE(inc.ok()) << inc.status().ToString();
        ASSERT_TRUE(bat.ok()) << bat.status().ToString();
        EXPECT_FALSE(inc.value().chains.empty());
        EXPECT_EQ(PathsFingerprint(inc.value()),
                  PathsFingerprint(bat.value()))
            << "l=" << l;
      }
    }

    // Normalized mode agrees as well.
    Query normalized = MakeQuery(FinderAlgorithm::kBfs, 4, 2);
    normalized.mode = FinderMode::kNormalized;
    auto inc_norm = incremental.Query(normalized);
    auto bat_norm = batch.Query(normalized);
    ASSERT_TRUE(inc_norm.ok());
    ASSERT_TRUE(bat_norm.ok());
    EXPECT_EQ(PathsFingerprint(inc_norm.value()),
              PathsFingerprint(bat_norm.value()));

    // And the batch-ingested engine answers like the tick-by-tick one.
    for (const FinderAlgorithm algorithm :
         {FinderAlgorithm::kBfs, FinderAlgorithm::kDfs}) {
      auto batched = ticked.Query(MakeQuery(algorithm, 4, 2));
      auto live = incremental.Query(MakeQuery(algorithm, 4, 2));
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      ASSERT_TRUE(live.ok());
      EXPECT_EQ(PathsFingerprint(batched.value()),
                PathsFingerprint(live.value()));
    }
  }
}

// The TA finder (Section 4.5) is gap-0 / full-path; at that
// configuration it must agree with brute force and bfs, incrementally
// ingested, at 1 and 4 threads.
TEST(EngineEquivalenceTest, TaMatchesOracleOnGapZero) {
  const auto days = GenerateWeek();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(StringPrintf("threads=%zu", threads));
    Engine engine(TestOptions(/*gap=*/0, threads));
    for (uint32_t day = 0; day < kDays; ++day) {
      ASSERT_TRUE(engine.IngestText(days[day]).ok());
      // Interleaved TA queries: full-path answers on the stream so far.
      auto mid = engine.Query(MakeQuery(FinderAlgorithm::kTa, 3, 0));
      ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    }
    auto ta = engine.Query(MakeQuery(FinderAlgorithm::kTa, 3, 0));
    auto oracle =
        engine.Query(MakeQuery(FinderAlgorithm::kBruteForce, 3, 0));
    auto bfs = engine.Query(MakeQuery(FinderAlgorithm::kBfs, 3, 0));
    ASSERT_TRUE(ta.ok()) << ta.status().ToString();
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(bfs.ok());
    EXPECT_FALSE(ta.value().chains.empty());
    EXPECT_EQ(PathsFingerprint(ta.value()),
              PathsFingerprint(oracle.value()));
    EXPECT_EQ(PathsFingerprint(ta.value()), PathsFingerprint(bfs.value()));
  }
}

// The warm online sweep advanced across ingests must equal a cold batch
// BFS at every tick, not just the last one. l = 1 on a gap-1 graph has
// edges longer than l, which the step must skip.
TEST(EngineEquivalenceTest, OnlineWarmCacheMatchesBfsEveryTick) {
  const auto days = GenerateWeek();
  for (const uint32_t l : {2u, 1u}) {
    Engine engine(TestOptions(/*gap=*/1, /*threads=*/1));
    for (uint32_t day = 0; day < kDays; ++day) {
      ASSERT_TRUE(engine.IngestText(days[day]).ok());
      auto online = engine.Query(MakeQuery(FinderAlgorithm::kOnline, 4, l));
      auto bfs = engine.Query(MakeQuery(FinderAlgorithm::kBfs, 4, l));
      ASSERT_TRUE(online.ok()) << online.status().ToString();
      ASSERT_TRUE(bfs.ok());
      EXPECT_EQ(PathsFingerprint(online.value()),
                PathsFingerprint(bfs.value()))
          << "l " << l << " tick " << day;
    }
  }
}

TEST(EngineTest, QueryValidAtAnyTime) {
  Engine engine(TestOptions(1, 1));
  // Empty engine: every algorithm answers (emptily), no barrier errors.
  for (const FinderAlgorithm algorithm :
       {FinderAlgorithm::kBfs, FinderAlgorithm::kDfs,
        FinderAlgorithm::kOnline, FinderAlgorithm::kBruteForce}) {
    auto r = engine.Query(MakeQuery(algorithm, 3, 0));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().chains.empty());
  }
  ASSERT_TRUE(engine
                  .IngestText({"apple iphone launch today",
                               "apple iphone touchscreen demo"})
                  .ok());
  // One interval: still no paths, still no errors.
  auto r = engine.Query(MakeQuery(FinderAlgorithm::kBfs, 3, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().chains.empty());
}

TEST(EngineTest, ValidationAndUnsupportedCombinations) {
  Engine engine(TestOptions(1, 1));
  ASSERT_TRUE(engine.IngestText({"apple iphone launch", "apple iphone"})
                  .ok());
  ASSERT_TRUE(engine.IngestText({"apple iphone lawsuit", "apple iphone"})
                  .ok());

  Query q = MakeQuery(FinderAlgorithm::kBfs, 0, 0);
  EXPECT_EQ(engine.Query(q).status().code(), StatusCode::kInvalidArgument);

  // k = 0 is rejected uniformly, including on the warm online path.
  q = MakeQuery(FinderAlgorithm::kOnline, 0, 1);
  EXPECT_EQ(engine.Query(q).status().code(), StatusCode::kInvalidArgument);

  // Early-stream grace covers both modes: length (or lmin) beyond the
  // stream so far is an empty answer, not an error.
  q = MakeQuery(FinderAlgorithm::kBfs, 3, 5);
  ASSERT_TRUE(engine.Query(q).ok());
  EXPECT_TRUE(engine.Query(q).value().chains.empty());
  q.mode = FinderMode::kNormalized;
  ASSERT_TRUE(engine.Query(q).ok());
  EXPECT_TRUE(engine.Query(q).value().chains.empty());

  q = MakeQuery(FinderAlgorithm::kTa, 3, 0);
  q.mode = FinderMode::kNormalized;
  EXPECT_EQ(engine.Query(q).status().code(), StatusCode::kNotSupported);

  q = MakeQuery(FinderAlgorithm::kOnline, 3, 0);
  q.mode = FinderMode::kNormalized;
  EXPECT_EQ(engine.Query(q).status().code(), StatusCode::kNotSupported);

  // TA on a gapped engine: surfaced, not silently substituted.
  Engine gapped(TestOptions(/*gap=*/1, 1));
  ASSERT_TRUE(gapped.IngestText({"apple iphone launch"}).ok());
  ASSERT_TRUE(gapped.IngestText({"apple iphone lawsuit"}).ok());
  EXPECT_EQ(gapped.Query(MakeQuery(FinderAlgorithm::kTa, 3, 0))
                .status()
                .code(),
            StatusCode::kNotSupported);
}

// A reader's online length is not bounded by the stream: the warm sweep
// it asks for must cost what the graph holds, not what l says, or one
// remote query with a huge l would stall the writer.
TEST(EngineTest, HugeOnlineLengthDoesNotStallIngest) {
  const auto days = GenerateWeek();
  Engine engine(TestOptions(/*gap=*/1, /*threads=*/1));
  ASSERT_TRUE(engine.IngestText(days[0]).ok());
  ASSERT_TRUE(engine.IngestText(days[1]).ok());
  auto r = engine.Query(MakeQuery(FinderAlgorithm::kOnline, 3, UINT32_MAX));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().chains.empty());

  auto ingest = std::async(std::launch::async,
                           [&] { return engine.IngestText(days[2]); });
  if (ingest.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    // The writer is wedged; the future's destructor would wait forever.
    ADD_FAILURE() << "IngestText did not return within 60 s";
    std::abort();
  }
  ASSERT_TRUE(ingest.get().ok());
  // An l at or past the epoch answers empty, so it stores no hint: the
  // next snapshot carries no warm state for it.
  EXPECT_FALSE(engine.snapshot()->has_online);
  r = engine.Query(MakeQuery(FinderAlgorithm::kOnline, 3, UINT32_MAX));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().chains.empty());
  EXPECT_FALSE(r.value().warm_online);

  // A valid l still warms the sweep from the next tick on.
  r = engine.Query(MakeQuery(FinderAlgorithm::kOnline, 3, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().warm_online);
  ASSERT_TRUE(engine.IngestText(days[3]).ok());
  EXPECT_TRUE(engine.snapshot()->has_online);
  EXPECT_EQ(engine.snapshot()->online_k, 3u);
  EXPECT_EQ(engine.snapshot()->online_l, 2u);
  r = engine.Query(MakeQuery(FinderAlgorithm::kOnline, 3, 2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().warm_online);
}

TEST(EngineTest, DiversifiedQueryRespectsAffixConstraints) {
  const auto days = GenerateWeek();
  Engine engine(TestOptions(1, 1));
  for (const auto& day : days) {
    ASSERT_TRUE(engine.IngestText(day).ok());
  }
  Query q = MakeQuery(FinderAlgorithm::kBfs, 4, 2);
  q.diversify_prefix = 2;
  q.diversify_suffix = 2;
  auto r = engine.Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& chains = r.value().chains;
  ASSERT_FALSE(chains.empty());
  EXPECT_LE(chains.size(), 4u);
  DiversifyOptions constraints;
  constraints.prefix_nodes = 2;
  constraints.suffix_nodes = 2;
  for (size_t a = 0; a < chains.size(); ++a) {
    for (size_t b = a + 1; b < chains.size(); ++b) {
      EXPECT_FALSE(PathsConflict(chains[a].path, chains[b].path,
                                 constraints));
    }
  }
  // And the un-diversified top-4 does conflict (otherwise the constraint
  // tested nothing on this corpus).
  auto plain = engine.Query(MakeQuery(FinderAlgorithm::kBfs, 4, 2));
  ASSERT_TRUE(plain.ok());
  bool any_conflict = false;
  const auto& plain_chains = plain.value().chains;
  for (size_t a = 0; a < plain_chains.size(); ++a) {
    for (size_t b = a + 1; b < plain_chains.size(); ++b) {
      any_conflict |= PathsConflict(plain_chains[a].path,
                                    plain_chains[b].path, constraints);
    }
  }
  EXPECT_TRUE(any_conflict);
}

TEST(EngineTest, IngestCorpusFileReturnsIntervalCount) {
  TempDir dir;
  CorpusGenOptions copt = TestCorpus();
  copt.days = 3;
  copt.posts_per_day = 150;
  CorpusGenerator gen(copt);
  const std::string path = dir.FilePath("corpus.txt");
  ASSERT_TRUE(gen.GenerateToFile(path).ok());

  Engine engine(TestOptions(1, 1));
  auto loaded = engine.IngestCorpusFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), 3u);
  EXPECT_EQ(engine.interval_count(), 3u);

  EXPECT_EQ(engine.IngestCorpusFile(dir.FilePath("missing.txt"))
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(EngineTest, StatsReflectIngest) {
  Engine engine(TestOptions(1, 1));
  EXPECT_EQ(engine.stats().intervals, 0u);
  ASSERT_TRUE(engine
                  .IngestText({"apple iphone macworld launch",
                               "apple iphone macworld keynote",
                               "apple iphone macworld demo"})
                  .ok());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.intervals, 1u);
  EXPECT_EQ(stats.clusters, engine.graph().node_count());
  EXPECT_GT(stats.keywords, 0u);
  EXPECT_GT(stats.graph_bytes, 0u);
}

// Raw-intersection affinities are normalized by the running maximum and
// rescaled in place when it grows: weights must stay in (0, 1] at every
// tick and queries must keep working throughout.
TEST(EngineTest, IntersectionMeasureRenormalizesIncrementally) {
  const auto days = GenerateWeek();
  EngineOptions opt = TestOptions(1, 1);
  opt.affinity.measure = AffinityMeasure::kIntersection;
  opt.affinity.theta = 1.5;  // Raw counts: "share > 1 keyword".
  Engine engine(opt);
  for (const auto& day : days) {
    ASSERT_TRUE(engine.IngestText(day).ok());
    for (NodeId v = 0; v < engine.graph().node_count(); ++v) {
      for (const ClusterGraphEdge& e : engine.graph().Children(v)) {
        ASSERT_GT(e.weight, 0.0);
        ASSERT_LE(e.weight, 1.0);
      }
    }
    ASSERT_TRUE(engine.Query(MakeQuery(FinderAlgorithm::kBfs, 3, 0)).ok());
  }
  EXPECT_GT(engine.graph().edge_count(), 0u);
}

}  // namespace
}  // namespace stabletext
