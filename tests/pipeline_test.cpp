// End-to-end integration: synthetic corpus with planted events -> Section 3
// clusters -> cluster graph -> stable clusters. Ground truth: the planted
// events must be recovered as clusters and as stable paths; query
// refinement must surface co-event keywords. Every case drives the one
// public front door: Engine ingest, Compact, then Query.

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "core/query_refiner.h"
#include "gen/corpus_generator.h"
#include "storage/temp_dir.h"

namespace stabletext {
namespace {

CorpusGenOptions TestCorpusOptions(uint32_t days) {
  CorpusGenOptions opt;
  opt.days = days;
  opt.posts_per_day = 800;
  opt.vocabulary = 2000;
  // Mild length variation keeps the document-length confound (long posts
  // correlate everything with everything) out of the ground truth.
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 28;
  opt.seed = 5;
  return opt;
}

EngineOptions TestEngineOptions(uint32_t gap = 1) {
  EngineOptions opt;
  opt.gap = gap;
  // The paper's rho threshold; a support floor compensates for the small
  // corpus (800 posts/day vs BlogScope's ~200k), where chance
  // co-occurrences of rare words otherwise produce spurious high-rho
  // edges.
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 8;
  opt.affinity.theta = 0.1;
  return opt;
}

// Top-k stable clusters on the engine's latest epoch: length l (0 =
// full) in kl-stable mode, minimum length l in normalized mode.
Result<std::vector<StableClusterChain>> FindStable(
    const Engine& engine, size_t k, uint32_t l,
    FinderAlgorithm algorithm = FinderAlgorithm::kBfs,
    FinderMode mode = FinderMode::kKlStable) {
  Query query;
  query.algorithm = algorithm;
  query.mode = mode;
  query.k = k;
  query.l = l;
  auto r = engine.Query(query);
  if (!r.ok()) return r.status();
  return std::move(r).value().chains;
}

// True if some cluster in `result` contains all `stems` (already stemmed).
bool HasClusterWith(const IntervalResult& result, const KeywordDict& dict,
                    const std::vector<std::string>& stems) {
  for (const Cluster& c : result.clusters) {
    bool all = true;
    for (const std::string& stem : stems) {
      const KeywordId id = dict.Lookup(stem);
      if (id == kInvalidKeyword || !c.Contains(id)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  // One shared expensive fixture for all integration assertions.
  static void SetUpTestSuite() {
    CorpusGenOptions copt = TestCorpusOptions(7);
    copt.script = EventScript::PaperWeek();
    CorpusGenerator gen(copt);
    engine_ = new Engine(TestEngineOptions(2));
    for (uint32_t day = 0; day < 7; ++day) {
      ASSERT_TRUE(engine_->IngestText(gen.GenerateDay(day)).ok());
    }
    ASSERT_TRUE(engine_->Compact().ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static Engine* engine_;
};

Engine* PipelineIntegrationTest::engine_ = nullptr;

TEST_F(PipelineIntegrationTest, RecoversSingleDayEventClusters) {
  // Figure 1 analog: the stem-cell event on day 2 forms a cluster with
  // its (stemmed) keywords; it is absent on other days.
  const KeywordDict& dict = engine_->dict();
  EXPECT_TRUE(HasClusterWith(engine_->interval_result(2), dict,
                             {"stem", "cell", "amniot"}));
  EXPECT_FALSE(HasClusterWith(engine_->interval_result(1), dict,
                              {"stem", "cell", "amniot"}));
  // Figure 2 analog: Beckham on day 6 only.
  EXPECT_TRUE(HasClusterWith(engine_->interval_result(6), dict,
                             {"beckham", "galaxi", "madrid"}));
  EXPECT_FALSE(HasClusterWith(engine_->interval_result(5), dict,
                              {"beckham", "galaxi", "madrid"}));
}

TEST_F(PipelineIntegrationTest, BackgroundNoiseDoesNotFormGiantClusters) {
  // Pruning must keep clusters small relative to the vocabulary: the
  // largest cluster should be event-scale, not noise-scale.
  for (uint32_t day = 0; day < 7; ++day) {
    size_t largest = 0;
    for (const Cluster& c : engine_->interval_result(day).clusters) {
      largest = std::max(largest, c.keywords.size());
    }
    EXPECT_LE(largest, 40u) << "day " << day;
  }
}

TEST_F(PipelineIntegrationTest, FullWeekEventYieldsFullLengthStablePath) {
  // Figure 16 analog: the Somalia event persists all 7 days, so a full
  // path (length 6) whose clusters all contain "somalia" must exist.
  auto chains = FindStable(*engine_, 5, 0);
  ASSERT_TRUE(chains.ok());
  ASSERT_FALSE(chains.value().empty());
  const KeywordDict& dict = engine_->dict();
  const KeywordId somalia = dict.Lookup("somalia");
  ASSERT_NE(somalia, kInvalidKeyword);
  bool found = false;
  for (const StableClusterChain& chain : chains.value()) {
    bool all = true;
    for (const Cluster* c : chain.clusters) {
      if (!c->Contains(somalia)) {
        all = false;
        break;
      }
    }
    if (all) found = true;
  }
  EXPECT_TRUE(found) << "no full-week somalia chain among top-5";
}

TEST_F(PipelineIntegrationTest, GapEventSurvivesViaGapEdges) {
  // Figure 4 analog: fa-cup is active on day 0 and days 3-4 with a
  // 2-day gap; with g = 2 a stable path across the gap must exist.
  const KeywordDict& dict = engine_->dict();
  const KeywordId liverpool = dict.Lookup("liverpool");
  ASSERT_NE(liverpool, kInvalidKeyword);
  auto chains = FindStable(*engine_, 200, 3);
  ASSERT_TRUE(chains.ok());
  bool crosses_gap = false;
  for (const StableClusterChain& chain : chains.value()) {
    if (!chain.clusters.front()->Contains(liverpool)) continue;
    for (size_t i = 1; i < chain.path.nodes.size(); ++i) {
      if (engine_->graph().EdgeLength(chain.path.nodes[i - 1],
                                      chain.path.nodes[i]) >= 2) {
        crosses_gap = true;
      }
    }
  }
  EXPECT_TRUE(crosses_gap);
}

TEST_F(PipelineIntegrationTest, TopicDriftTrackedAcrossChain) {
  // Figure 15 analog: an iphone chain spanning days 3..6 whose early
  // clusters mention macworld and late clusters mention the lawsuit.
  const KeywordDict& dict = engine_->dict();
  const KeywordId iphon = dict.Lookup("iphon");
  ASSERT_NE(iphon, kInvalidKeyword);
  auto chains = FindStable(*engine_, 400, 3);
  ASSERT_TRUE(chains.ok());
  const KeywordId macworld = dict.Lookup("macworld");
  const KeywordId lawsuit = dict.Lookup("lawsuit");
  bool drift = false;
  for (const StableClusterChain& chain : chains.value()) {
    bool early_launch = false, late_lawsuit = false;
    for (const Cluster* c : chain.clusters) {
      if (!c->Contains(iphon)) continue;
      if (macworld != kInvalidKeyword && c->Contains(macworld)) {
        early_launch = true;
      }
      if (lawsuit != kInvalidKeyword && c->Contains(lawsuit)) {
        late_lawsuit = true;
      }
    }
    if (early_launch && late_lawsuit) drift = true;
  }
  EXPECT_TRUE(drift) << "no chain tracking the iphone topic drift";
}

TEST_F(PipelineIntegrationTest, BfsAndDfsAgreeOnThePipelineGraph) {
  auto bfs = FindStable(*engine_, 5, 3, FinderAlgorithm::kBfs);
  auto dfs = FindStable(*engine_, 5, 3, FinderAlgorithm::kDfs);
  ASSERT_TRUE(bfs.ok());
  ASSERT_TRUE(dfs.ok());
  ASSERT_EQ(bfs.value().size(), dfs.value().size());
  for (size_t i = 0; i < bfs.value().size(); ++i) {
    EXPECT_EQ(bfs.value()[i].path.nodes, dfs.value()[i].path.nodes);
  }
}

TEST_F(PipelineIntegrationTest, NormalizedQueryRuns) {
  auto chains = FindStable(*engine_, 3, 2, FinderAlgorithm::kBfs,
                           FinderMode::kNormalized);
  ASSERT_TRUE(chains.ok());
  for (const StableClusterChain& chain : chains.value()) {
    EXPECT_GE(chain.path.length, 2u);
    EXPECT_GT(chain.path.stability(), 0.0);
  }
}

TEST_F(PipelineIntegrationTest, QueryRefinementSurfacesEventKeywords) {
  QueryRefiner refiner(engine_);
  // Day 6, query "beckham": co-event keywords must surface.
  auto suggestions = refiner.Suggest("beckham", 6);
  ASSERT_FALSE(suggestions.empty());
  std::set<std::string> words;
  for (const Refinement& r : suggestions) words.insert(r.keyword);
  EXPECT_TRUE(words.count("galaxi") || words.count("madrid") ||
              words.count("soccer"))
      << "suggestions missed the beckham event vocabulary";
  // Scores are sorted descending.
  for (size_t i = 1; i < suggestions.size(); ++i) {
    EXPECT_GE(suggestions[i - 1].score, suggestions[i].score);
  }
  // Unknown keyword and out-of-range interval yield nothing.
  EXPECT_TRUE(refiner.Suggest("zzzqqq", 0).empty());
  EXPECT_TRUE(refiner.Suggest("beckham", 99).empty());
}

TEST_F(PipelineIntegrationTest, RenderChainMentionsKeywords) {
  auto chains = FindStable(*engine_, 1, 0);
  ASSERT_TRUE(chains.ok());
  ASSERT_FALSE(chains.value().empty());
  const std::string text = engine_->RenderChain(chains.value()[0]);
  EXPECT_NE(text.find("stable cluster"), std::string::npos);
  EXPECT_NE(text.find("interval"), std::string::npos);
}

// Every affinity measure must produce a valid cluster graph (weights in
// (0,1] after normalization) and answer stable-cluster queries.
class PipelineAffinityTest
    : public ::testing::TestWithParam<AffinityMeasure> {};

TEST_P(PipelineAffinityTest, BuildsValidGraphAndAnswers) {
  CorpusGenOptions copt = TestCorpusOptions(4);
  copt.posts_per_day = 400;
  copt.script = EventScript::PaperWeek();
  CorpusGenerator gen(copt);
  EngineOptions opt = TestEngineOptions(1);
  opt.affinity.measure = GetParam();
  if (GetParam() == AffinityMeasure::kIntersection) {
    opt.affinity.theta = 1.5;  // Raw counts: "share > 1 keyword".
  }
  Engine engine(opt);
  for (uint32_t day = 0; day < 4; ++day) {
    ASSERT_TRUE(engine.IngestText(gen.GenerateDay(day)).ok());
  }
  ASSERT_TRUE(engine.Compact().ok());
  const ClusterGraph& graph = engine.graph();
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      ASSERT_GT(e.weight, 0.0);
      ASSERT_LE(e.weight, 1.0);
    }
  }
  auto chains = FindStable(engine, 3, 2);
  ASSERT_TRUE(chains.ok());
  for (const auto& chain : chains.value()) {
    EXPECT_EQ(chain.path.length, 2u);
    EXPECT_GT(chain.path.weight, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Measures, PipelineAffinityTest,
    ::testing::Values(AffinityMeasure::kJaccard,
                      AffinityMeasure::kIntersection,
                      AffinityMeasure::kOverlap,
                      AffinityMeasure::kWeightedJaccard),
    [](const auto& info) {
      std::string name = AffinityMeasureName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PipelineTest, IngestCorpusFileMatchesIngestText) {
  TempDir dir;
  CorpusGenOptions copt = TestCorpusOptions(3);
  copt.posts_per_day = 200;
  CorpusGenerator gen(copt);
  const std::string path = dir.FilePath("corpus.txt");
  ASSERT_TRUE(gen.GenerateToFile(path).ok());

  Engine from_file(TestEngineOptions());
  ASSERT_TRUE(from_file.IngestCorpusFile(path).ok());
  Engine from_text(TestEngineOptions());
  for (uint32_t day = 0; day < 3; ++day) {
    ASSERT_TRUE(from_text.IngestText(gen.GenerateDay(day)).ok());
  }
  ASSERT_EQ(from_file.interval_count(), from_text.interval_count());
  for (uint32_t day = 0; day < 3; ++day) {
    EXPECT_EQ(from_file.interval_result(day).clusters.size(),
              from_text.interval_result(day).clusters.size());
  }
}

}  // namespace
}  // namespace stabletext
