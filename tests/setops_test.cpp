// Property tests for the set-intersection kernels (util/setops.h):
// galloping and the dispatched entry points must agree with the scalar
// reference byte-for-byte on both IntersectionSize and IntersectInto,
// across set sizes 0–4096 and skewed size ratios around the galloping
// cutover. IntersectInto must honor its output contract: canary words
// past min(na, nb) stay untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/setops.h"

namespace stabletext {
namespace setops {
namespace {

using SizeFn = size_t (*)(const uint32_t*, size_t, const uint32_t*, size_t);
using IntoFn = size_t (*)(const uint32_t*, size_t, const uint32_t*, size_t,
                          uint32_t*);

struct KernelEntry {
  const char* name;
  SizeFn size_fn;
  IntoFn into_fn;
};

// Both kernels plus the size-ratio dispatch in front of them.
const KernelEntry kKernels[] = {
    {"scalar", IntersectionSizeScalar, IntersectIntoScalar},
    {"galloping", IntersectionSizeGalloping, IntersectIntoGalloping},
    {"dispatched", IntersectionSize, IntersectInto},
};

// Strictly-ascending sorted set of `n` values drawn from [0, universe).
std::vector<uint32_t> MakeSet(Rng* rng, size_t n, uint32_t universe) {
  std::vector<uint32_t> v;
  if (n == 0) return v;
  if (universe < n) universe = static_cast<uint32_t>(n);
  for (size_t idx : rng->SampleWithoutReplacement(universe, n)) {
    v.push_back(static_cast<uint32_t>(idx));
  }
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<uint32_t> ReferenceIntersection(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

constexpr uint32_t kCanary = 0xDEADBEEFu;

// Runs every kernel on (a, b) and (b, a) and checks the full contract
// against std::set_intersection: size, contents, order, and no writes
// past min(na, nb).
void CheckAllKernels(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b,
                     const std::string& label) {
  const std::vector<uint32_t> expected = ReferenceIntersection(a, b);
  const size_t cap = std::min(a.size(), b.size());
  for (const KernelEntry& entry : kKernels) {
    SCOPED_TRACE(label + " kernel=" + entry.name);
    for (int swap = 0; swap < 2; ++swap) {
      const std::vector<uint32_t>& x = swap ? b : a;
      const std::vector<uint32_t>& y = swap ? a : b;
      EXPECT_EQ(entry.size_fn(x.data(), x.size(), y.data(), y.size()),
                expected.size());

      std::vector<uint32_t> out(cap + 4, kCanary);
      const size_t n =
          entry.into_fn(x.data(), x.size(), y.data(), y.size(), out.data());
      ASSERT_EQ(n, expected.size());
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
      // Past min(na, nb) the buffer must be untouched.
      for (size_t i = cap; i < out.size(); ++i) {
        EXPECT_EQ(out[i], kCanary) << "overwrite at offset " << i;
      }
    }
  }
  for (const uint32_t probe : expected) {
    EXPECT_TRUE(ContainsSorted(a.data(), a.size(), probe));
    EXPECT_TRUE(ContainsSorted(b.data(), b.size(), probe));
  }
}

TEST(SetOpsTest, EmptyAndTrivialSets) {
  CheckAllKernels({}, {}, "both empty");
  CheckAllKernels({}, {1, 2, 3}, "one empty");
  CheckAllKernels({7}, {7}, "singleton equal");
  CheckAllKernels({7}, {8}, "singleton disjoint");
}

// Randomized sweep over sizes 0..4096 with varying densities: dense
// (most elements shared), sparse (few shared), and disjoint ranges.
TEST(SetOpsTest, RandomizedSizeSweep) {
  Rng rng(777);
  const size_t sizes[] = {0, 1, 2, 3, 5, 8, 13, 21, 64, 100,
                          255, 256, 257, 1000, 1024, 2048, 4096};
  for (size_t na : sizes) {
    for (int density = 0; density < 3; ++density) {
      const size_t nb = sizes[rng.Uniform(sizeof(sizes) / sizeof(*sizes))];
      const uint32_t universe = static_cast<uint32_t>(
          density == 0 ? (na + nb + 1)            // dense overlap
          : density == 1 ? 8 * (na + nb + 1)      // sparse overlap
                         : 1u << 30);             // nearly disjoint
      const auto a = MakeSet(&rng, na, universe);
      const auto b = MakeSet(&rng, nb, universe);
      CheckAllKernels(a, b,
                      "sweep na=" + std::to_string(na) +
                          " nb=" + std::to_string(nb) +
                          " density=" + std::to_string(density));
    }
  }
}

// Skew ratios at and around kGallopRatio, the dispatch's galloping cutover.
TEST(SetOpsTest, SkewedRatios) {
  Rng rng(31337);
  for (size_t small : {1u, 2u, 7u, 33u}) {
    for (size_t factor : {kGallopRatio - 1, kGallopRatio,
                          kGallopRatio * 4}) {
      const size_t large = small * factor;
      const auto a = MakeSet(&rng, small, static_cast<uint32_t>(4 * large));
      const auto b = MakeSet(&rng, large, static_cast<uint32_t>(4 * large));
      CheckAllKernels(a, b,
                      "skew " + std::to_string(small) + "x" +
                          std::to_string(large));
    }
  }
}

TEST(SetOpsTest, ContainsSortedMatchesLinearScan) {
  Rng rng(5);
  for (size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 100u, 1024u}) {
    const auto a = MakeSet(&rng, n, static_cast<uint32_t>(3 * n + 7));
    for (uint32_t key = 0; key < 3 * n + 9; ++key) {
      const bool expected =
          std::find(a.begin(), a.end(), key) != a.end();
      EXPECT_EQ(ContainsSorted(a.data(), a.size(), key), expected)
          << "n=" << n << " key=" << key;
    }
  }
}

}  // namespace
}  // namespace setops
}  // namespace stabletext
