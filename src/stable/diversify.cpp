#include "stable/diversify.h"

#include <algorithm>

namespace stabletext {

bool PathsConflict(const StablePath& a, const StablePath& b,
                   const DiversifyOptions& options) {
  if (options.prefix_nodes >= 2) {
    const size_t n = options.prefix_nodes;
    if (a.nodes.size() >= n && b.nodes.size() >= n &&
        std::equal(a.nodes.begin(), a.nodes.begin() + n,
                   b.nodes.begin())) {
      return true;
    }
  }
  if (options.suffix_nodes >= 2) {
    const size_t n = options.suffix_nodes;
    if (a.nodes.size() >= n && b.nodes.size() >= n &&
        std::equal(a.nodes.end() - n, a.nodes.end(), b.nodes.end() - n)) {
      return true;
    }
  }
  return false;
}

std::vector<StablePath> DiversifyPaths(const std::vector<StablePath>& ranked,
                                       size_t k,
                                       const DiversifyOptions& options) {
  std::vector<StablePath> out;
  for (const StablePath& candidate : ranked) {
    if (out.size() >= k) break;
    bool conflicts = false;
    for (const StablePath& kept : out) {
      if (PathsConflict(candidate, kept, options)) {
        conflicts = true;
        break;
      }
    }
    if (!conflicts) out.push_back(candidate);
  }
  return out;
}

}  // namespace stabletext
