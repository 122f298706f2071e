// blog_week: the paper's Section 5.3 scenario end to end — a synthetic
// week of blog posts with planted events (stem-cell burst, Beckham burst,
// FA-cup with a gap, iPhone topic drift, week-long Somalia story), run
// through the engine, printing per-day clusters for the planted events
// and the stable-cluster chains that recover them.
//
// Build & run:  ./build/examples/blog_week

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "gen/corpus_generator.h"

using namespace stabletext;

int main() {
  CorpusGenOptions corpus_options;
  corpus_options.days = 7;
  corpus_options.posts_per_day = 1500;
  corpus_options.vocabulary = 4000;
  corpus_options.min_words_per_post = 12;
  corpus_options.max_words_per_post = 28;
  corpus_options.micro_events = 150;  // Background chatter stories.
  corpus_options.script = EventScript::PaperWeek();
  CorpusGenerator generator(corpus_options);

  EngineOptions options;
  options.gap = 2;  // The FA-cup event has a two-day gap.
  options.clustering.pruning.rho_threshold = 0.2;
  options.clustering.pruning.min_pair_support = 5;
  options.affinity.theta = 0.1;
  Engine engine(options);

  std::printf("generating and clustering 7 days of posts...\n");
  for (uint32_t day = 0; day < 7; ++day) {
    auto tick = engine.IngestText(generator.GenerateDay(day));
    if (!tick.ok()) {
      std::printf("day %u failed: %s\n", day,
                  tick.status().ToString().c_str());
      return 1;
    }
    std::printf("  day %u: %zu clusters\n", day,
                engine.interval_result(day).clusters.size());
  }

  // Show the planted single-day events (Figures 1 and 2 analogs).
  auto show_event = [&](uint32_t day, const char* stem,
                        const char* label) {
    const KeywordId id = engine.dict().Lookup(stem);
    if (id == kInvalidKeyword) return;
    for (const Cluster& c : engine.interval_result(day).clusters) {
      if (c.Contains(id)) {
        std::printf("%s (day %u): %s\n", label, day,
                    c.ToString(engine.dict()).c_str());
        return;
      }
    }
  };
  std::printf("\nplanted single-day events recovered as clusters:\n");
  show_event(2, "amniot", "stem-cell discovery (Figure 1 analog)");
  show_event(6, "beckham", "Beckham to LA Galaxy (Figure 2 analog)");

  std::printf("\nfull-week stable clusters (Figure 16 analog):\n");
  Query full;
  full.k = 2;
  full.l = 0;  // Full paths.
  auto full_result = engine.Query(full);
  if (full_result.ok()) {
    for (const auto& chain : full_result.value().chains) {
      std::printf("%s\n", engine.RenderChain(chain).c_str());
    }
  }

  std::printf("normalized stable clusters (length >= 3):\n");
  Query normalized;
  normalized.mode = FinderMode::kNormalized;
  normalized.k = 3;
  normalized.l = 3;
  auto normalized_result = engine.Query(normalized);
  if (normalized_result.ok()) {
    for (const auto& chain : normalized_result.value().chains) {
      std::printf("%s\n", engine.RenderChain(chain).c_str());
    }
  }

  // Diversified top-k (the Section 4 affix-constraint variant): no two
  // reported chains may share their first/last two clusters.
  std::printf("diversified stable clusters (length 3):\n");
  Query diversified;
  diversified.k = 3;
  diversified.l = 3;
  diversified.diversify_prefix = 2;
  diversified.diversify_suffix = 2;
  auto diversified_result = engine.Query(diversified);
  if (diversified_result.ok()) {
    for (const auto& chain : diversified_result.value().chains) {
      std::printf("%s\n", engine.RenderChain(chain).c_str());
    }
  }

  // Gap survival (Figure 4 analog): find a chain containing liverpool
  // that skips days.
  const KeywordId liverpool = engine.dict().Lookup("liverpool");
  Query mid;
  mid.k = 200;
  mid.l = 3;
  auto mid_result = engine.Query(mid);
  if (mid_result.ok() && liverpool != kInvalidKeyword) {
    for (const auto& chain : mid_result.value().chains) {
      if (!chain.clusters.front()->Contains(liverpool)) continue;
      bool has_gap = false;
      for (size_t i = 1; i < chain.path.nodes.size(); ++i) {
        if (engine.graph().EdgeLength(chain.path.nodes[i - 1],
                                      chain.path.nodes[i]) > 1) {
          has_gap = true;
        }
      }
      if (has_gap) {
        std::printf(
            "FA-cup chain surviving a gap (Figure 4 analog):\n%s\n",
            engine.RenderChain(chain).c_str());
        break;
      }
    }
  }
  return 0;
}
