// Diversified kl-stable clusters. Section 4 of the paper: "the top-k
// paths produced may share common subpaths which, depending on the
// context, may not be very informative from an information discovery
// perspective. Variants of the kl-stable cluster problem with additional
// constraints are possible to discard paths with the same prefix or
// suffix." This implements that variant: a greedy diversified selection
// over a (larger) ranked candidate list, rejecting paths that share a
// constrained affix with an already-selected better path.

#ifndef STABLETEXT_STABLE_DIVERSIFY_H_
#define STABLETEXT_STABLE_DIVERSIFY_H_

#include <vector>

#include "stable/finder.h"

namespace stabletext {

/// Constraints for diversified selection.
struct DiversifyOptions {
  /// No two results may share their first `prefix_nodes` nodes
  /// (0 disables the prefix constraint).
  uint32_t prefix_nodes = 2;
  /// No two results may share their last `suffix_nodes` nodes
  /// (0 disables the suffix constraint).
  uint32_t suffix_nodes = 2;
};

/// Greedily selects up to `k` paths from `ranked` (best first) such that
/// no selected pair violates the affix constraints. The standard greedy
/// rule: walk the ranking, keep a path iff it conflicts with no
/// already-kept path.
std::vector<StablePath> DiversifyPaths(const std::vector<StablePath>& ranked,
                                       size_t k,
                                       const DiversifyOptions& options);

/// True if `a` and `b` share a constrained prefix or suffix.
bool PathsConflict(const StablePath& a, const StablePath& b,
                   const DiversifyOptions& options);

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_DIVERSIFY_H_
