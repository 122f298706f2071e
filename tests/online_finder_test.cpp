// Section 4.6 (online version): the BFS IntervalSweep advanced interval by
// interval over a graph equals the batch BFS finder on the prefix seen so
// far, each step reads only the g+1-interval window, and the sweep's
// resident state stays bounded by that window however long the stream.

#include <gtest/gtest.h>

#include <algorithm>

#include "stable/bfs_finder.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

// The prefix [0, last] of `full` as a standalone graph (same node ids:
// the generator assigns them interval-major).
ClusterGraph Prefix(const ClusterGraph& full, uint32_t last) {
  ClusterGraph prefix(last + 1, full.gap());
  for (uint32_t iv = 0; iv <= last; ++iv) {
    for (size_t j = 0; j < full.IntervalNodes(iv).size(); ++j) {
      prefix.AddNode(iv);
    }
  }
  for (uint32_t iv = 0; iv <= last; ++iv) {
    for (NodeId c : full.IntervalNodes(iv)) {
      for (const ClusterGraphEdge& pe : full.Parents(c)) {
        EXPECT_TRUE(prefix.AddEdge(pe.target, c, pe.weight).ok());
      }
    }
  }
  prefix.SortChildren();
  return prefix;
}

// Advances a sweep over `graph` interval by interval, checking the
// streaming answer against batch BFS on the growing prefix after every
// interval.
void SweepAndCheck(uint32_t m, uint32_t n, uint32_t d, uint32_t g,
                   size_t k, uint32_t l, uint64_t seed) {
  ClusterGraph full = MakeRandomGraph(m, n, d, g, seed);
  IntervalSweep sweep(k, l);
  for (uint32_t i = 0; i < m; ++i) {
    ASSERT_TRUE(sweep.Advance(full, i).ok());
    ASSERT_EQ(sweep.next_interval(), i + 1);
    if (i < l) {
      // Not enough intervals yet for any length-l path.
      EXPECT_TRUE(sweep.TopK().empty());
      continue;
    }
    BfsFinderOptions bopt;
    bopt.k = k;
    bopt.l = l;
    auto batch = BfsStableFinder(bopt).Find(Prefix(full, i));
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(sweep.TopK().size(), batch.value().paths.size())
        << "after interval " << i;
    for (size_t r = 0; r < sweep.TopK().size(); ++r) {
      ASSERT_EQ(sweep.TopK()[r].nodes, batch.value().paths[r].nodes)
          << "after interval " << i << " rank " << r;
      ASSERT_EQ(sweep.TopK()[r].weight, batch.value().paths[r].weight);
    }
  }
}

TEST(OnlineFinderTest, StreamingEqualsBatchNoGap) {
  SweepAndCheck(6, 6, 2, 0, 3, 2, 7);
}

TEST(OnlineFinderTest, StreamingEqualsBatchWithGap) {
  SweepAndCheck(6, 5, 2, 1, 4, 3, 11);
}

TEST(OnlineFinderTest, StreamingEqualsBatchLongerPaths) {
  SweepAndCheck(8, 4, 2, 2, 5, 4, 13);
}

TEST(OnlineFinderTest, IntervalsMustArriveInOrder) {
  ClusterGraph graph = MakeRandomGraph(4, 3, 2, 0, 3);
  IntervalSweep sweep(3, 2);
  EXPECT_FALSE(sweep.Advance(graph, 1).ok());  // Skips interval 0.
  ASSERT_TRUE(sweep.Advance(graph, 0).ok());
  EXPECT_FALSE(sweep.Advance(graph, 0).ok());  // Repeats interval 0.
  ASSERT_TRUE(sweep.Advance(graph, 1).ok());
  ASSERT_TRUE(sweep.Advance(graph, 2).ok());
  ASSERT_TRUE(sweep.Advance(graph, 3).ok());
  EXPECT_FALSE(sweep.Advance(graph, 4).ok());  // Past the graph.
  ClusterGraph wider = MakeRandomGraph(6, 3, 2, 1, 3);
  EXPECT_FALSE(sweep.Advance(wider, 4).ok());  // Another gap.
  EXPECT_EQ(sweep.next_interval(), 4u);
}

TEST(OnlineFinderTest, IoPerIntervalIsWindowBounded) {
  // Integrating interval i reads only the g+1-interval window, not all
  // past intervals: total reads grow linearly, not quadratically.
  const uint32_t m = 10, n = 5;
  ClusterGraph full = MakeRandomGraph(m, n, 2, 0, 5);
  IntervalSweep sweep(3, 2);
  uint64_t prev_reads = 0;
  uint64_t max_delta = 0;
  for (uint32_t i = 0; i < m; ++i) {
    ASSERT_TRUE(sweep.Advance(full, i).ok());
    max_delta = std::max(max_delta, sweep.cost().io.page_reads - prev_reads);
    prev_reads = sweep.cost().io.page_reads;
  }
  // Window (g+1=1 interval) + current interval = 2n reads per step.
  EXPECT_LE(max_delta, 2ull * n);
}

TEST(OnlineFinderTest, ResidentBytesStayFlatOverLongStream) {
  // The sweep frees an interval's heaps once it leaves the g+1 window,
  // so a 40-interval stream holds no more annotations than the window
  // does: at most g+1 intervals of full annotations, independent of the
  // stream length (the global heap adds at most k paths on top).
  const uint32_t m = 40, n = 8, g = 1;
  const size_t k = 4;
  const uint32_t l = 3;
  ClusterGraph full = MakeRandomGraph(m, n, 3, g, 17);
  // Per node: its vector of l+1 heaps, each of k paths of at most l+1
  // nodes.
  const size_t path_bytes = sizeof(StablePath) + (l + 1) * sizeof(NodeId);
  const size_t heap_bytes = sizeof(TopKHeap<>) + k * path_bytes;
  const size_t node_bytes =
      sizeof(std::vector<TopKHeap<>>) + (l + 1) * heap_bytes;
  auto held = [](const IntervalSweep& sweep) {
    size_t bytes = 0;
    for (size_t b : sweep.WindowAnnotationBytes()) bytes += b;
    return bytes;
  };
  IntervalSweep sweep(k, l);
  size_t early = 0;
  for (uint32_t i = 0; i < m; ++i) {
    ASSERT_TRUE(sweep.Advance(full, i).ok());
    EXPECT_LE(sweep.WindowAnnotationBytes().size(), (g + 1) * n);
    EXPECT_LE(held(sweep), (g + 1) * n * node_bytes)
        << "after interval " << i;
    if (i == 2 * (g + 1) + l) early = held(sweep);
  }
  EXPECT_FALSE(sweep.TopK().empty());
  // Flat, not merely bounded: the last step holds about what an early
  // full-window step held.
  EXPECT_LE(held(sweep), 2 * early);
}

}  // namespace
}  // namespace stabletext
