// ClusterGraph: construction invariants, edge validation, adjacency
// ordering, sealed copies, releasing settled nodes' build-phase lists, and
// the
// generator's conformance to the Section 5 model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "storage/temp_dir.h"
#include "test_helpers.h"
#include "util/random.h"
#include "util/strings.h"

namespace stabletext {
namespace {

TEST(ClusterGraphTest, AddNodesAndEdges) {
  ClusterGraph g(3, 0);
  const NodeId a = g.AddNode(0);
  const NodeId b = g.AddNode(1);
  const NodeId c = g.AddNode(2);
  EXPECT_TRUE(g.AddEdge(a, b, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(b, c, 1.0).ok());
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.Interval(b), 1u);
  EXPECT_EQ(g.IntervalNodes(0), (std::vector<NodeId>{a}));
  ASSERT_EQ(g.Children(a).size(), 1u);
  EXPECT_EQ(g.Children(a)[0].target, b);
  ASSERT_EQ(g.Parents(c).size(), 1u);
  EXPECT_EQ(g.Parents(c)[0].target, b);
  EXPECT_EQ(g.EdgeLength(a, b), 1u);
}

// Sealed copies share the node metadata (each node's interval, each
// interval's node list) with their source. Nodes added afterwards, to an
// old interval, a new one or past a chunk boundary, must show only in the
// writer.
TEST(ClusterGraphTest, SealedCopiesKeepTheirNodeMetadata) {
  ClusterGraph g(3, 1);
  for (uint32_t i = 0; i < 3; ++i) g.AddNode(i);
  const ClusterGraph first = g.SealedCopy();
  g.AddNode(0);
  g.AddInterval();
  while (g.node_count() < ClusterGraph::kChunkNodes + 2) g.AddNode(3);
  const ClusterGraph second = g.SealedCopy();
  const NodeId late = static_cast<NodeId>(g.node_count());
  EXPECT_EQ(g.AddNode(2), late);

  EXPECT_EQ(first.node_count(), 3u);
  EXPECT_EQ(first.interval_count(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first.IntervalNodes(i), (std::vector<NodeId>{i}));
    EXPECT_EQ(first.Interval(i), i);
  }
  EXPECT_EQ(second.IntervalNodes(0), (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(second.IntervalNodes(1), (std::vector<NodeId>{1}));
  EXPECT_EQ(second.IntervalNodes(2), (std::vector<NodeId>{2}));
  EXPECT_EQ(second.node_count(), late);
  EXPECT_EQ(g.IntervalNodes(1), (std::vector<NodeId>{1}));
  EXPECT_EQ(g.IntervalNodes(2), (std::vector<NodeId>{2, late}));
  EXPECT_EQ(g.Interval(late), 2u);
  EXPECT_EQ(g.Interval(ClusterGraph::kChunkNodes), 3u);
  EXPECT_EQ(g.IntervalNodes(3).size(), ClusterGraph::kChunkNodes - 2);
}

// A sealed copy is the graph's one frozen form: it takes no nodes and no
// edges, reads the adjacency the writer held at the seal, and seals again
// by sharing every chunk.
TEST(ClusterGraphTest, SealedCopyRejectsNodesAndEdges) {
  ClusterGraph g(2, 0);
  const NodeId a = g.AddNode(0);
  const NodeId b = g.AddNode(1);
  ASSERT_TRUE(g.AddEdge(a, b, 0.5).ok());
  g.SortTouched();
  ClusterGraph sealed = g.SealedCopy();
  EXPECT_TRUE(sealed.frozen());
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(sealed.AddNode(1), kInvalidNode);
  EXPECT_EQ(sealed.AddInterval(), 2u);
  EXPECT_EQ(sealed.AddNode(2), kInvalidNode);
  EXPECT_EQ(sealed.AddEdge(a, b, 0.25).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sealed.node_count(), 2u);
  EXPECT_EQ(sealed.edge_count(), 1u);
  ASSERT_EQ(sealed.Children(a).size(), 1u);
  EXPECT_EQ(sealed.Children(a)[0].target, b);
  EXPECT_EQ(sealed.Children(a)[0].weight, 0.5);
  ASSERT_EQ(sealed.Parents(b).size(), 1u);
  EXPECT_EQ(sealed.Parents(b)[0].target, a);

  ClusterGraph::SealStats seal;
  const ClusterGraph again = sealed.SealedCopy(false, &seal);
  EXPECT_EQ(seal.copied_chunks, 0u);
  EXPECT_EQ(seal.shared_chunks, 2u);
  EXPECT_EQ(again.child_chunk(0), sealed.child_chunk(0));
  EXPECT_EQ(again.parent_chunk(0), sealed.parent_chunk(0));

  // The writer keeps growing; the copy does not see it.
  EXPECT_EQ(g.AddNode(1), 2u);
  ASSERT_TRUE(g.AddEdge(a, 2, 0.75).ok());
  EXPECT_EQ(sealed.node_count(), 2u);
  EXPECT_EQ(sealed.Children(a).size(), 1u);
}

TEST(ClusterGraphTest, RejectsInvalidEdges) {
  ClusterGraph g(4, 0);  // Gap 0: edges span exactly 1 interval... plus 1.
  const NodeId a = g.AddNode(0);
  const NodeId b = g.AddNode(1);
  const NodeId c = g.AddNode(3);
  EXPECT_FALSE(g.AddEdge(b, a, 0.5).ok());   // Backward in time.
  EXPECT_FALSE(g.AddEdge(a, c, 0.5).ok());   // Exceeds gap bound (3 > 1).
  EXPECT_FALSE(g.AddEdge(a, b, 0.0).ok());   // Weight must be > 0.
  EXPECT_FALSE(g.AddEdge(a, b, 1.5).ok());   // Weight must be <= 1.
  EXPECT_FALSE(g.AddEdge(a, 99, 0.5).ok());  // Out of range.
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(ClusterGraphTest, GapAllowsLongerEdges) {
  ClusterGraph g(4, 2);
  const NodeId a = g.AddNode(0);
  const NodeId c = g.AddNode(3);
  EXPECT_TRUE(g.AddEdge(a, c, 0.5).ok());  // Length 3 <= g+1 = 3.
  EXPECT_EQ(g.EdgeLength(a, c), 3u);
}

TEST(ClusterGraphTest, ChildrenSortedByDescendingWeight) {
  ClusterGraph g(2, 0);
  const NodeId a = g.AddNode(0);
  const NodeId x = g.AddNode(1);
  const NodeId y = g.AddNode(1);
  const NodeId z = g.AddNode(1);
  ASSERT_TRUE(g.AddEdge(a, x, 0.2).ok());
  ASSERT_TRUE(g.AddEdge(a, y, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(a, z, 0.5).ok());
  g.SortTouched();
  const ClusterGraph sealed = g.SealedCopy();
  for (const ClusterGraph* graph : {&std::as_const(g), &sealed}) {
    ASSERT_EQ(graph->Children(a).size(), 3u);
    EXPECT_EQ(graph->Children(a)[0].target, y);
    EXPECT_EQ(graph->Children(a)[1].target, z);
    EXPECT_EQ(graph->Children(a)[2].target, x);
    EXPECT_EQ(graph->MaxOutDegree(), 3u);
  }
}

TEST(ClusterGraphTest, PaperFigure5Shape) {
  ClusterGraph g = MakePaperFigure5Graph();
  EXPECT_EQ(g.interval_count(), 3u);
  EXPECT_EQ(g.node_count(), 9u);
  EXPECT_EQ(g.edge_count(), 10u);
  EXPECT_EQ(g.gap(), 1u);
  // The gap edge c11 -> c32 has length 2 (the paper's worked example).
  EXPECT_EQ(g.EdgeLength(0, 7), 2u);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

// ---- ReleaseSettled: streaming graphs that drop settled nodes' lists ----

// One streamed interval: its node count and its edges (from, to, raw
// weight), all ending at the interval's nodes.
struct StreamTick {
  uint32_t nodes = 0;
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
};

// Random ticks of `min_nodes`..`max_nodes` nodes whose edges start in the
// gap window, with raw weights in (0, 4] (the engine's lazy
// normalization).
std::vector<StreamTick> MakeStreamTicks(uint32_t count, uint32_t gap,
                                        uint32_t min_nodes,
                                        uint32_t max_nodes, uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamTick> ticks(count);
  std::vector<NodeId> first{0};  // First node id of every interval.
  for (uint32_t t = 0; t < count; ++t) {
    StreamTick& tick = ticks[t];
    tick.nodes = min_nodes + static_cast<uint32_t>(
                                 rng.Uniform(max_nodes - min_nodes + 1));
    first.push_back(first.back() + tick.nodes);
    const uint32_t begin = t > gap + 1 ? t - gap - 1 : 0;
    if (t == 0 || first[t] == first[begin]) continue;
    std::set<std::pair<NodeId, NodeId>> seen;
    for (uint32_t e = 0; e < 2 * tick.nodes; ++e) {
      const NodeId from = first[begin] + static_cast<NodeId>(rng.Uniform(
                                             first[t] - first[begin]));
      const NodeId to =
          first[t] + static_cast<NodeId>(rng.Uniform(tick.nodes));
      if (!seen.insert({from, to}).second) continue;
      tick.edges.emplace_back(from, to, 4 * rng.NextWeight());
    }
  }
  return ticks;
}

// Commits interval `t` like the engine: nodes, edges, sort, a seal with
// stored weights, then (when `release`) settles what the gap window left.
ClusterGraph StreamInterval(ClusterGraph* g, const StreamTick& tick,
                            uint32_t t, bool release) {
  EXPECT_EQ(g->AddInterval(), t);
  for (uint32_t j = 0; j < tick.nodes; ++j) g->AddNode(t);
  double max_weight = 1;
  for (const auto& [from, to, weight] : tick.edges) {
    EXPECT_TRUE(g->AddEdge(from, to, weight).ok());
    max_weight = std::max(max_weight, weight);
  }
  if (1.0 / max_weight < g->weight_scale()) {
    g->set_weight_scale(1.0 / max_weight);
  }
  g->SortTouched();
  ClusterGraph sealed = g->SealedCopy();
  if (release && t > g->gap()) {
    EXPECT_TRUE(g->ReleaseSettled(t - g->gap()).ok());
  }
  return sealed;
}

// Every node's children, parents and stored parents, weights as %a.
std::string Spans(const ClusterGraph& g) {
  std::string out = StringPrintf("nodes=%zu edges=%zu\n", g.node_count(),
                                 g.edge_count());
  auto render = [&out](const char* tag, NodeId v, const EdgeSpan& span) {
    out += StringPrintf("%s %u:", tag, v);
    for (const ClusterGraphEdge& e : span) {
      out += StringPrintf(" %u/%a", e.target, e.weight);
    }
    out += "\n";
  };
  for (NodeId v = 0; v < g.node_count(); ++v) {
    render("c", v, g.Children(v));
    render("p", v, g.Parents(v));
    render("s", v, g.StoredParents(v));
  }
  return out;
}

// First node whose children, parents or stored parents differ between
// `a` and `b` (weights compared bit for bit); empty when none does.
std::string FirstSpanDifference(const ClusterGraph& a,
                                const ClusterGraph& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return "sizes differ";
  }
  auto same = [](const EdgeSpan& x, const EdgeSpan& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      const ClusterGraphEdge ex = x[i];
      const ClusterGraphEdge ey = y[i];
      if (ex.target != ey.target ||
          std::memcmp(&ex.weight, &ey.weight, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  for (NodeId v = 0; v < a.node_count(); ++v) {
    if (!same(a.Children(v), b.Children(v)) ||
        !same(a.Parents(v), b.Parents(v)) ||
        !same(a.StoredParents(v), b.StoredParents(v))) {
      return StringPrintf("node %u", v);
    }
  }
  return "";
}

TEST(ClusterGraphReleaseTest, ReleasedNodesReadTheSameSpans) {
  for (const uint32_t gap : {0u, 1u, 3u}) {
    SCOPED_TRACE(gap);
    const auto ticks = MakeStreamTicks(40, gap, 20, 180, 11 + gap);
    ClusterGraph released(0, gap);
    ClusterGraph kept(0, gap);
    released.EnableRawWeights();
    kept.EnableRawWeights();
    for (uint32_t t = 0; t < ticks.size(); ++t) {
      const ClusterGraph a = StreamInterval(&released, ticks[t], t, true);
      const ClusterGraph b = StreamInterval(&kept, ticks[t], t, false);
      ASSERT_EQ(FirstSpanDifference(released, kept), "") << "tick " << t;
      ASSERT_EQ(FirstSpanDifference(a, b), "") << "seal of tick " << t;
    }
    EXPECT_EQ(released.settled_intervals(), 40 - gap - 1);
    EXPECT_LT(released.MemoryBytes(), kept.MemoryBytes());
    const ClusterGraph released_seal = released.SealedCopy();
    const ClusterGraph kept_seal = kept.SealedCopy();
    EXPECT_EQ(Spans(released_seal), Spans(kept_seal));
    EXPECT_EQ(released_seal.MemoryBytes(), kept_seal.MemoryBytes());
  }
}

TEST(ClusterGraphReleaseTest, SettledIntervalsRejectNodesAndEdges) {
  ClusterGraph g(0, 0);
  for (uint32_t t = 0; t < 3; ++t) {
    g.AddInterval();
    g.AddNode(t);
  }
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  // Edge (0, 1) was never sealed: its nodes cannot be released yet.
  EXPECT_FALSE(g.ReleaseSettled(2).ok());
  g.SortTouched();
  EXPECT_FALSE(g.ReleaseSettled(4).ok());  // Interval 3 does not exist.
  g.SealedCopy();
  ASSERT_TRUE(g.ReleaseSettled(2).ok());
  EXPECT_EQ(g.settled_intervals(), 2u);
  EXPECT_EQ(g.AddNode(1), kInvalidNode);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_FALSE(g.AddEdge(1, 2, 0.5).ok());  // Source is settled.
  EXPECT_EQ(g.edge_count(), 1u);
  ASSERT_EQ(g.Children(0).size(), 1u);
  EXPECT_EQ(g.Children(0)[0].target, 1u);
  EXPECT_EQ(g.Parents(1)[0].target, 0u);
  // The live interval still grows.
  EXPECT_EQ(g.AddNode(2), 3u);
  EXPECT_TRUE(g.ReleaseSettled(1).ok());  // Already settled: a no-op.
  EXPECT_EQ(g.settled_intervals(), 2u);
}

TEST(ClusterGraphReleaseTest, ReleaseNeedsStoredWeightSeal) {
  ClusterGraph g(0, 0);
  for (uint32_t t = 0; t < 3; ++t) {
    g.AddInterval();
    g.AddNode(t);
  }
  g.SealedCopy(/*materialize_scale=*/true);
  EXPECT_FALSE(g.ReleaseSettled(2).ok());
  g.SealedCopy();
  EXPECT_TRUE(g.ReleaseSettled(2).ok());
}

TEST(ClusterGraphReleaseTest, MaterializedCopyAfterReleaseKeepsStoredWeights) {
  // An eager-style SealedCopy(true) after a release must bake the scale
  // into the copy only: the seal cache is where released nodes' stored
  // weights live, and the writer and later seals read them from there.
  const uint32_t gap = 1;
  const auto ticks = MakeStreamTicks(30, gap, 20, 700, 5);
  ClusterGraph released(0, gap);
  ClusterGraph kept(0, gap);
  released.EnableRawWeights();
  kept.EnableRawWeights();
  size_t baked = 0;
  for (uint32_t t = 0; t < ticks.size(); ++t) {
    const ClusterGraph a = StreamInterval(&released, ticks[t], t, true);
    const ClusterGraph b = StreamInterval(&kept, ticks[t], t, false);
    ASSERT_EQ(FirstSpanDifference(a, b), "") << "seal of tick " << t;
    if (t % 3 != 2 || released.settled_intervals() == 0) continue;
    ASSERT_LT(released.weight_scale(), 1.0);
    ClusterGraph::SealStats seal;
    const ClusterGraph materialized = released.SealedCopy(true, &seal);
    const ClusterGraph reference = kept.SealedCopy(true);
    EXPECT_EQ(materialized.weight_scale(), 1.0);
    EXPECT_GT(seal.copied_chunks, 0u);
    ASSERT_EQ(FirstSpanDifference(materialized, reference), "")
        << "materialized copy of tick " << t;
    ASSERT_EQ(FirstSpanDifference(released, kept), "") << "tick " << t;
    ++baked;
  }
  EXPECT_GE(baked, 5u);
  EXPECT_EQ(Spans(released.SealedCopy()), Spans(kept.SealedCopy()));
}

TEST(ClusterGraphReleaseTest, MixedChunkIsRebuiltFromSealAndLiveLists) {
  // 300 nodes per interval at gap 0: after interval 2, intervals 0-1 (ids
  // below 600) settle, so chunk 1 (ids 512-1023) mixes released and live
  // nodes. Interval 3's edges then dirty it, and the next seal rebuilds it.
  ASSERT_EQ(ClusterGraph::kChunkNodes, 512u);
  std::vector<StreamTick> ticks(5);
  for (uint32_t t = 0; t < ticks.size(); ++t) {
    ticks[t].nodes = 300;
    if (t == 0) continue;
    for (NodeId j = 0; j < 300; j += 3) {
      const NodeId from = (t - 1) * 300 + j;
      ticks[t].edges.emplace_back(from, t * 300 + (j * 7) % 300,
                                  0.25 + 0.5 * j / 300.0);
      ticks[t].edges.emplace_back(from, t * 300 + (j * 11 + 1) % 300,
                                  0.75);
    }
  }
  ClusterGraph released(0, 0);
  ClusterGraph kept(0, 0);
  for (uint32_t t = 0; t < 3; ++t) {
    StreamInterval(&released, ticks[t], t, true);
    StreamInterval(&kept, ticks[t], t, false);
  }
  ASSERT_EQ(released.settled_intervals(), 2u);
  const auto before = released.SealedCopy().child_chunk(1);
  ClusterGraph::SealStats seal;
  for (uint32_t t = 3; t < ticks.size(); ++t) {
    EXPECT_EQ(released.AddInterval(), t);
    for (uint32_t j = 0; j < ticks[t].nodes; ++j) released.AddNode(t);
    for (const auto& [from, to, weight] : ticks[t].edges) {
      ASSERT_TRUE(released.AddEdge(from, to, weight).ok());
    }
    released.SortTouched();
    const ClusterGraph sealed = released.SealedCopy(false, &seal);
    const ClusterGraph reference = StreamInterval(&kept, ticks[t], t, false);
    if (t == 3) {
      // Chunk 1 holds interval 2's sources: rebuilt, not shared.
      EXPECT_NE(sealed.child_chunk(1), before);
      EXPECT_GT(seal.copied_chunks, 0u);
    }
    ASSERT_EQ(Spans(sealed), Spans(reference)) << "tick " << t;
    ASSERT_EQ(Spans(released), Spans(kept)) << "tick " << t;
    ASSERT_TRUE(released.ReleaseSettled(t).ok());
  }
}

TEST(ClusterGraphReleaseTest, CheckpointAfterReleasesRecoversByteIdentically) {
  CorpusGenOptions corpus;
  corpus.days = 6;
  corpus.posts_per_day = 40;
  corpus.vocabulary = 300;
  corpus.min_words_per_post = 6;
  corpus.max_words_per_post = 14;
  corpus.micro_events = 8;
  corpus.seed = 5;
  corpus.script = EventScript::PaperWeek();
  CorpusGenerator gen(corpus);
  std::vector<std::vector<std::string>> ticks;
  for (uint32_t t = 0; t < 20; ++t) ticks.push_back(gen.GenerateDay(t % 6));

  for (const uint32_t gap : {0u, 2u}) {
    for (const AffinityMeasure measure :
         {AffinityMeasure::kJaccard, AffinityMeasure::kIntersection}) {
      SCOPED_TRACE(StringPrintf("gap %u measure %d", gap,
                                static_cast<int>(measure)));
      TempDir dir("release_ckpt");
      EngineOptions opt;
      opt.gap = gap;
      opt.clustering.pruning.rho_threshold = 0.15;
      opt.clustering.pruning.min_pair_support = 2;
      opt.affinity.theta = 0.05;
      opt.affinity.measure = measure;
      opt.durability.enabled = true;
      opt.durability.dir = dir.path();
      opt.durability.checkpoint_interval = 6;
      std::string spans;
      {
        auto engine = Engine::Recover(opt);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        ASSERT_TRUE(engine.value()->IngestTicks(ticks).ok());
        EXPECT_GT(engine.value()->graph().settled_intervals(), 0u);
        spans = Spans(engine.value()->graph());
      }
      auto recovered = Engine::Recover(opt);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(recovered.value()->interval_count(), ticks.size());
      // Raw intersection weights above 1 must survive the log, or the
      // recovered running-max scale (and every read weight) drifts.
      EXPECT_EQ(Spans(recovered.value()->graph()), spans);
    }
  }
}

TEST(ClusterGraphGeneratorTest, MatchesSection5Model) {
  ClusterGraphGenOptions opt;
  opt.m = 5;
  opt.n = 50;
  opt.d = 4;
  opt.g = 1;
  opt.seed = 11;
  ClusterGraph g = ClusterGraphGenerator::Generate(opt);
  EXPECT_EQ(g.interval_count(), 5u);
  EXPECT_EQ(g.node_count(), 250u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(g.IntervalNodes(i).size(), 50u);
  }
  // Every node in a non-final interval has outgoing edges to each
  // reachable interval, between 1 and 2d per pair, and weights in (0,1].
  for (NodeId v = 0; v < g.node_count(); ++v) {
    std::vector<size_t> per_interval(5, 0);
    for (const ClusterGraphEdge& e : g.Children(v)) {
      EXPECT_GT(e.weight, 0.0);
      EXPECT_LE(e.weight, 1.0);
      const uint32_t span = g.Interval(e.target) - g.Interval(v);
      EXPECT_GE(span, 1u);
      EXPECT_LE(span, opt.g + 1);
      ++per_interval[g.Interval(e.target)];
    }
    const uint32_t iv = g.Interval(v);
    for (uint32_t j = iv + 1; j < 5 && j <= iv + opt.g + 1; ++j) {
      EXPECT_GE(per_interval[j], 1u);
      EXPECT_LE(per_interval[j], 2u * opt.d);
    }
  }
}

TEST(ClusterGraphGeneratorTest, DeterministicPerSeed) {
  ClusterGraph a = MakeRandomGraph(4, 20, 3, 1, 5);
  ClusterGraph b = MakeRandomGraph(4, 20, 3, 1, 5);
  ClusterGraph c = MakeRandomGraph(4, 20, 3, 1, 6);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  bool all_equal = true;
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto& ca = a.Children(v);
    const auto& cb = b.Children(v);
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca[i].target, cb[i].target);
      ASSERT_EQ(ca[i].weight, cb[i].weight);
    }
  }
  (void)all_equal;
  EXPECT_NE(a.edge_count(), 0u);
  // A different seed produces a different graph: compare a weight
  // fingerprint (collision odds are negligible).
  auto fingerprint = [](const ClusterGraph& gr) {
    double sum = 0;
    for (NodeId v = 0; v < gr.node_count(); ++v) {
      for (const ClusterGraphEdge& e : gr.Children(v)) {
        sum += e.weight * (v + 1);
      }
    }
    return sum;
  };
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(ClusterGraphGeneratorTest, QuantizedWeightsAreExactBinaryFractions) {
  ClusterGraph g = MakeRandomGraph(3, 30, 3, 0, 2);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const ClusterGraphEdge& e : g.Children(v)) {
      const double scaled = e.weight * 1024.0;
      EXPECT_EQ(scaled, std::floor(scaled));
      EXPECT_GT(e.weight, 0.0);
      EXPECT_LE(e.weight, 1.0);
    }
  }
}

TEST(ClusterGraphGeneratorTest, AverageOutDegreeNearD) {
  ClusterGraphGenOptions opt;
  opt.m = 2;
  opt.n = 2000;
  opt.d = 5;
  opt.g = 0;
  ClusterGraph g = ClusterGraphGenerator::Generate(opt);
  double total = 0;
  for (NodeId v : g.IntervalNodes(0)) total += g.Children(v).size();
  const double avg = total / 2000.0;
  // E[out degree] = (1 + 2d) / 2 = 5.5 for d = 5; sampling keeps it close.
  EXPECT_GT(avg, 4.8);
  EXPECT_LT(avg, 6.2);
}

}  // namespace
}  // namespace stabletext
