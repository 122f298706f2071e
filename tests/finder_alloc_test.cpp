// Allocation bounds of the finder kernels, counted by replacing the global
// operator new in this binary: a full, warm TopKHeap admits without
// allocating, and a BFS query on a sparse graph of ~3.6k nodes allocates
// per interval and per admitted path, not per node and path length as one
// heap object per (node, length) would, nor per candidate path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "gen/cluster_graph_generator.h"
#include "stable/bfs_finder.h"
#include "stable/topk_heap.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so that GCC does not inline a free() into code it has seen
// take the pointer from operator new (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace stabletext {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

StablePath P(std::vector<NodeId> nodes, double weight) {
  StablePath p;
  p.length = static_cast<uint32_t>(nodes.size() - 1);
  p.nodes = std::move(nodes);
  p.weight = weight;
  return p;
}

// The shape of the engine's graphs: 128 intervals of 28 nodes, three of
// every four without an edge (3,584 nodes, ~1.3k edges).
ClusterGraph SparseGraph() {
  ClusterGraphGenOptions opt;
  opt.m = 128;
  opt.n = 7;
  opt.d = 1;
  opt.isolated = 3;
  opt.seed = 7;
  return ClusterGraphGenerator::Generate(opt);
}

TEST(FinderAllocTest, FullWarmHeapAdmitsWithoutAllocating) {
  TopKHeap<> heap(4);
  for (NodeId i = 0; i < 4; ++i) heap.Offer(P({i, i + 10, i + 20}, 0.1 * i));
  ASSERT_TRUE(heap.full());
  const size_t bytes = heap.MemoryBytes();
  const StablePath better = P({7, 17, 27}, 1.0);
  const StablePath shorter = P({8, 18}, 2.0);
  const StablePath worse = P({9, 19, 29}, 0.0);
  const uint64_t before = Allocations();
  // Each admission evicts the k-th path and takes over its buffer.
  const bool admitted_better = heap.Offer(better);
  const bool admitted_shorter = heap.Offer(shorter);
  const bool admitted_worse = heap.Offer(worse);  // Not above the k-th.
  const bool admitted_again = heap.Offer(shorter);  // A duplicate.
  EXPECT_EQ(Allocations(), before);
  EXPECT_TRUE(admitted_better);
  EXPECT_TRUE(admitted_shorter);
  EXPECT_FALSE(admitted_worse);
  EXPECT_FALSE(admitted_again);
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.paths().front().nodes, shorter.nodes);
  // One 2-node path replaced a 3-node one.
  EXPECT_EQ(heap.MemoryBytes(), bytes - sizeof(NodeId));
}

TEST(FinderAllocTest, ClearedHeapRefillsWithoutAllocating) {
  TopKHeap<> heap(3);
  const StablePath a = P({1, 2, 3}, 0.3);
  const StablePath b = P({4, 5, 6}, 0.2);
  const StablePath c = P({7, 8, 9}, 0.1);
  for (const StablePath* p : {&a, &b, &c}) heap.Offer(*p);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  const uint64_t before = Allocations();
  size_t admitted = 0;
  for (const StablePath* p : {&c, &b, &a}) admitted += heap.Offer(*p);
  EXPECT_EQ(Allocations(), before);
  EXPECT_EQ(admitted, 3u);
  EXPECT_EQ(heap.paths().front().nodes, a.nodes);
}

TEST(FinderAllocTest, BfsQueryAllocatesPerIntervalAndPath) {
  const ClusterGraph graph = SparseGraph();
  ASSERT_GT(graph.node_count(), 3500u);
  const uint32_t m = graph.interval_count();
  BfsFinderOptions opt;
  opt.k = 5;
  opt.l = 3;
  const uint64_t before = Allocations();
  const auto result = BfsStableFinder(opt).Find(graph);
  const uint64_t allocations = Allocations() - before;
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().paths.size(), 5u);
  // The sweep allocates while its pool warms up (heaps, path buffers)
  // and afterwards only for a path longer than a reused buffer. A copy
  // per candidate would cost an allocation per offer, and one heap vector
  // per node with parents several hundred more.
  const uint64_t offers = result.value().heap_offers;
  EXPECT_LE(allocations, 2 * m + offers / 4) << "offers " << offers;
}

TEST(FinderAllocTest, WarmSweepStepsAllocateAlmostNothing) {
  // Once the pool has the window's heaps and buffers, a step of the
  // sweep (an online subscription's per-epoch push) reuses them.
  const ClusterGraph graph = SparseGraph();
  const uint32_t m = graph.interval_count();
  IntervalSweep sweep(5, 3);
  for (uint32_t i = 0; i < m / 2; ++i) {
    ASSERT_TRUE(sweep.Advance(graph, i).ok());
  }
  const uint64_t before = Allocations();
  for (uint32_t i = m / 2; i < m; ++i) {
    ASSERT_TRUE(sweep.Advance(graph, i).ok());
  }
  EXPECT_LE(Allocations() - before, (m - m / 2) / 4);
}

}  // namespace
}  // namespace stabletext
