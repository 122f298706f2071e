// Chunked copy-on-write epoch publication: the invariants behind the
// O(delta) publish path. Untouched adjacency chunks must be shared by
// pointer across epochs, pinned old epochs must stay byte-stable while
// the writer keeps committing, and read-time renormalization must answer
// every finder exactly like a graph that stores the normalized weights.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "util/strings.h"

namespace stabletext {
namespace {

CorpusGenOptions TestCorpus(uint32_t days) {
  CorpusGenOptions opt;
  opt.days = days;
  opt.posts_per_day = 100;
  opt.vocabulary = 600;
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 24;
  opt.micro_events = 12;
  opt.seed = 17;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions TestOptions() {
  EngineOptions opt;
  opt.gap = 1;
  opt.threads = 1;
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 5;
  opt.affinity.theta = 0.1;
  return opt;
}

std::vector<std::vector<std::string>> GenerateDays(uint32_t days) {
  CorpusGenerator gen(TestCorpus(days));
  std::vector<std::vector<std::string>> out;
  for (uint32_t day = 0; day < days; ++day) {
    out.push_back(gen.GenerateDay(day));
  }
  return out;
}

// Byte-exact rendering of the effective (read-time) adjacency.
std::string GraphFingerprint(const ClusterGraph& graph) {
  std::string out = StringPrintf("nodes=%zu edges=%zu intervals=%u\n",
                                 graph.node_count(), graph.edge_count(),
                                 graph.interval_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      out += StringPrintf("%u->%u %.17g\n", v, e.target, e.weight);
    }
    for (const ClusterGraphEdge& e : graph.Parents(v)) {
      out += StringPrintf("%u<-%u %.17g\n", v, e.target, e.weight);
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

std::string PathsFingerprint(const std::vector<StablePath>& paths) {
  QueryResult result;
  for (const StablePath& path : paths) {
    result.chains.emplace_back();
    result.chains.back().path = path;
  }
  return PathsFingerprint(result);
}

// A plain graph (scale 1) storing `graph`'s read-time weights: what
// materializing the running-max normalization into every edge would give.
ClusterGraph RebuildAtReadWeights(const ClusterGraph& graph) {
  ClusterGraph out(graph.interval_count(), graph.gap());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    EXPECT_EQ(out.AddNode(graph.Interval(v)), v);
  }
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      EXPECT_TRUE(out.AddEdge(v, e.target, e.weight).ok());
    }
  }
  out.SortTouched();
  return out;
}

Query MakeQuery(FinderAlgorithm algorithm, size_t k, uint32_t l) {
  Query q;
  q.algorithm = algorithm;
  q.k = k;
  q.l = l;
  return q;
}

// Streams generated days (cycling if needed) until the graph spans at
// least `min_nodes` nodes; returns one pinned snapshot per epoch.
std::vector<std::shared_ptr<const GraphSnapshot>> IngestUntil(
    Engine* engine, const std::vector<std::vector<std::string>>& days,
    size_t min_nodes, size_t max_ticks) {
  std::vector<std::shared_ptr<const GraphSnapshot>> epochs;
  epochs.push_back(engine->snapshot());
  for (size_t t = 0; t < max_ticks; ++t) {
    auto r = engine->IngestText(days[t % days.size()]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) break;
    epochs.push_back(engine->snapshot());
    if (engine->snapshot()->graph->node_count() >= min_nodes) break;
  }
  return epochs;
}

// Untouched chunks must be pointer-identical across consecutive epochs;
// only the chunks covering the gap window (and the growing tail) may be
// rebuilt. The published chunk accounting must agree with reality.
TEST(ChunkedPublishTest, UntouchedChunksAreSharedAcrossEpochs) {
  const auto days = GenerateDays(7);
  Engine engine(TestOptions());
  // Enough ticks that the graph spans several chunks and the window has
  // moved well past chunk 0.
  const auto epochs = IngestUntil(&engine, days,
                                  2 * ClusterGraph::kChunkNodes + 64, 400);
  const auto& final_graph = *epochs.back()->graph;
  ASSERT_GE(final_graph.chunk_count(), 2u)
      << "corpus too small to span multiple chunks";

  size_t shared_pairs = 0;
  for (size_t e = 1; e < epochs.size(); ++e) {
    const auto& prev = *epochs[e - 1]->graph;
    const auto& cur = *epochs[e]->graph;
    ASSERT_GE(cur.chunk_count(), prev.chunk_count());
    if (prev.node_count() < ClusterGraph::kChunkNodes) continue;
    // Nodes of the last gap+2 intervals of `prev` may gain edges at the
    // next tick; chunks entirely below them must be shared.
    const uint32_t frontier_interval =
        prev.interval_count() >= 3 ? prev.interval_count() - 3 : 0;
    const NodeId frontier_node =
        prev.IntervalNodes(frontier_interval).empty()
            ? 0
            : prev.IntervalNodes(frontier_interval).front();
    const size_t stable_chunks = frontier_node >> ClusterGraph::kChunkShift;
    for (size_t c = 0; c < stable_chunks; ++c) {
      EXPECT_EQ(prev.child_chunk(c).get(), cur.child_chunk(c).get())
          << "epoch " << e << " rebuilt untouched child chunk " << c;
      EXPECT_EQ(prev.parent_chunk(c).get(), cur.parent_chunk(c).get())
          << "epoch " << e << " rebuilt untouched parent chunk " << c;
      ++shared_pairs;
    }
  }
  EXPECT_GT(shared_pairs, 0u) << "no sharing was ever exercised";

  // The published accounting covers every chunk, and once the graph spans
  // several chunks most of them are shared per publish.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.shared_chunk_count + stats.copied_chunk_count,
            2 * final_graph.chunk_count());
  EXPECT_GT(stats.shared_chunk_count, 0u);
  EXPECT_GT(stats.publish_ns, 0u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

// A pinned epoch must answer byte-identically while 100 further ticks
// commit — the copy-on-write guarantee readers rely on.
TEST(ChunkedPublishTest, PinnedEpochByteStableWhile100TicksCommit) {
  const auto days = GenerateDays(7);
  Engine engine(TestOptions());
  for (uint32_t day = 0; day < 5; ++day) {
    ASSERT_TRUE(engine.IngestText(days[day]).ok());
  }
  const auto pinned = engine.snapshot();
  ASSERT_EQ(pinned->epoch, 5u);
  const std::string graph_before = GraphFingerprint(*pinned->graph);
  const Query q = MakeQuery(FinderAlgorithm::kBfs, 3, 2);
  auto before = engine.QueryAt(pinned, q);
  ASSERT_TRUE(before.ok());
  const std::string answer_before = PathsFingerprint(before.value());

  for (uint32_t tick = 0; tick < 100; ++tick) {
    ASSERT_TRUE(engine.IngestText(days[tick % days.size()]).ok());
  }
  ASSERT_EQ(engine.snapshot()->epoch, 105u);

  EXPECT_EQ(GraphFingerprint(*pinned->graph), graph_before);
  auto after = engine.QueryAt(pinned, q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epoch, 5u);
  EXPECT_EQ(PathsFingerprint(after.value()), answer_before);
}

// Raw-intersection weights are stored raw and normalized at read time by
// the snapshot's running-max scale. Every finder on the published
// snapshot must answer byte-identically to the same finder on a plain
// graph rebuilt from that snapshot's read weights, at every tick: the
// scale is applied consistently on every read path. TA needs gap 0, the
// other finders run at gap 1.
TEST(ChunkedPublishTest, ReadTimeScaleMatchesRebuiltGraphAllFinders) {
  const auto days = GenerateDays(6);
  for (const uint32_t gap : {1u, 0u}) {
    EngineOptions opt = TestOptions();
    opt.gap = gap;
    opt.affinity.measure = AffinityMeasure::kIntersection;
    // Raw counts: "share > 1 keyword"; TA's full paths need any one.
    opt.affinity.theta = gap == 0 ? 0.5 : 1.5;
    Engine engine(opt);
    const std::vector<Query> queries =
        gap == 0 ? std::vector<Query>{MakeQuery(FinderAlgorithm::kTa, 3, 0)}
                 : std::vector<Query>{
                       MakeQuery(FinderAlgorithm::kBfs, 4, 2),
                       MakeQuery(FinderAlgorithm::kDfs, 4, 2),
                       MakeQuery(FinderAlgorithm::kBruteForce, 4, 2),
                       MakeQuery(FinderAlgorithm::kOnline, 4, 2)};
    size_t answered = 0;
    for (uint32_t day = 0; day < days.size(); ++day) {
      ASSERT_TRUE(engine.IngestText(days[day]).ok());
      const auto snap = engine.snapshot();
      if (snap->epoch < 3) continue;  // l = 2 needs three intervals.
      const ClusterGraph rebuilt = RebuildAtReadWeights(*snap->graph);
      ASSERT_EQ(GraphFingerprint(rebuilt), GraphFingerprint(*snap->graph))
          << "tick " << day;
      for (const Query& q : queries) {
        SCOPED_TRACE(StringPrintf("gap=%u day=%u algo=%s", gap, day,
                                  FinderAlgorithmName(q.algorithm)));
        auto served = engine.QueryAt(snap, q);
        auto plain = RunFinder(rebuilt, q);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ASSERT_TRUE(plain.ok()) << plain.status().ToString();
        EXPECT_EQ(PathsFingerprint(served.value()),
                  PathsFingerprint(plain.value().paths));
        if (!served.value().chains.empty()) ++answered;
      }
    }
    // The scale was in play (some raw weight above 1), weights read in
    // (0, 1], and the finders found paths to compare.
    const ClusterGraph& graph = *engine.snapshot()->graph;
    EXPECT_LT(graph.weight_scale(), 1.0);
    EXPECT_GT(graph.edge_count(), 0u);
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      for (const ClusterGraphEdge& e : graph.Children(v)) {
        ASSERT_GT(e.weight, 0.0);
        ASSERT_LE(e.weight, 1.0);
      }
    }
    EXPECT_GT(answered, 0u);
  }
}

// An epoch-0 (empty) snapshot answers every algorithm in the registry
// with an empty result, never an error.
TEST(ChunkedPublishTest, Epoch0SnapshotAnswersEveryAlgorithm) {
  Engine engine(TestOptions());
  const auto snap = engine.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  for (const FinderInfo& info : FinderRegistry()) {
    SCOPED_TRACE(info.name);
    for (const uint32_t l : {uint32_t{0}, uint32_t{2}}) {
      auto r = engine.QueryAt(snap, MakeQuery(info.algorithm, 3, l));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().chains.empty());
      EXPECT_EQ(r.value().epoch, 0u);
    }
    if (info.supports_normalized) {
      Query q = MakeQuery(info.algorithm, 3, 2);
      q.mode = FinderMode::kNormalized;
      auto r = engine.QueryAt(snap, q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().chains.empty());
    }
  }
}

// ToChains rejects paths naming nodes the epoch never committed with
// InvalidArgument (a caller error, not an internal invariant failure).
TEST(ChunkedPublishTest, ToChainsRejectsOutOfEpochNodes) {
  const auto days = GenerateDays(2);
  Engine engine(TestOptions());
  ASSERT_TRUE(engine.IngestText(days[0]).ok());
  const auto snap = engine.snapshot();
  StablePath path;
  path.nodes = {0, static_cast<NodeId>(snap->graph->node_count() + 7)};
  path.length = 1;
  auto chains = snap->ToChains({path});
  ASSERT_FALSE(chains.ok());
  EXPECT_EQ(chains.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stabletext
