// Sorted-set intersection kernels for the per-tick hot path. Every
// sorted keyword-set intersection in the system routes through this
// library: KeywordIntersectionSize / ClusterAffinity, the SimilarityJoin
// candidate verification, and Cluster::Contains membership probes.
//
// Two kernels behind one dispatched entry point:
//   scalar     — branchy two-pointer merge; the reference the other
//                kernel must match byte-for-byte.
//   galloping  — doubling search of the larger set, for skewed size
//                ratios (|large| / |small| >= kGallopRatio).
//
// Both return identical results on identical inputs — sizes, contents
// and output order — enforced by tests/setops_test.cpp.

#ifndef STABLETEXT_UTIL_SETOPS_H_
#define STABLETEXT_UTIL_SETOPS_H_

#include <cstddef>
#include <cstdint>

namespace stabletext {
namespace setops {

/// Size ratio at or above which dispatch prefers galloping over the
/// scalar merge (the smaller set's elements are then rare in the larger
/// one, so searching beats scanning).
inline constexpr size_t kGallopRatio = 32;

/// |a ∩ b| for two strictly-ascending sorted arrays. Dispatched.
size_t IntersectionSize(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb);

/// Writes a ∩ b (ascending) to `out` and returns its size. `out` must
/// have room for min(na, nb) elements and must not alias the inputs.
/// Dispatched.
size_t IntersectInto(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out);

/// Membership probe in a sorted array (branch-reduced binary search).
bool ContainsSorted(const uint32_t* a, size_t n, uint32_t key);

// ---------------------------------------------------------------------
// Direct per-kernel entry points (property tests).

size_t IntersectionSizeScalar(const uint32_t* a, size_t na,
                              const uint32_t* b, size_t nb);
size_t IntersectionSizeGalloping(const uint32_t* a, size_t na,
                                 const uint32_t* b, size_t nb);

size_t IntersectIntoScalar(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb, uint32_t* out);
size_t IntersectIntoGalloping(const uint32_t* a, size_t na,
                              const uint32_t* b, size_t nb, uint32_t* out);

}  // namespace setops
}  // namespace stabletext

#endif  // STABLETEXT_UTIL_SETOPS_H_
