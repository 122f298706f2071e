#include "util/setops.h"

#include <algorithm>

namespace stabletext {
namespace setops {

namespace {

// Smallest index >= pos with arr[idx] >= key (or n): doubling search
// from pos, then binary search inside the bracketed window.
size_t GallopLowerBound(const uint32_t* arr, size_t n, size_t pos,
                        uint32_t key) {
  if (pos >= n || arr[pos] >= key) return pos;
  size_t step = 1;
  size_t prev = pos;
  size_t cur = pos + 1;
  while (cur < n && arr[cur] < key) {
    prev = cur;
    step <<= 1;
    cur = pos + step;
  }
  const size_t hi = cur + 1 < n ? cur + 1 : n;
  return static_cast<size_t>(
      std::lower_bound(arr + prev + 1, arr + hi, key) - arr);
}

// True when one set is at least kGallopRatio times the other: galloping
// then beats the two-pointer merge.
bool Skewed(size_t na, size_t nb) {
  const size_t lo = na < nb ? na : nb;
  const size_t hi = na < nb ? nb : na;
  return hi >= lo * kGallopRatio;
}

}  // namespace

size_t IntersectionSizeScalar(const uint32_t* a, size_t na,
                              const uint32_t* b, size_t nb) {
  size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

size_t IntersectIntoScalar(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, n = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[n++] = a[i];
      ++i;
      ++j;
    }
  }
  return n;
}

size_t IntersectionSizeGalloping(const uint32_t* a, size_t na,
                                 const uint32_t* b, size_t nb) {
  const uint32_t* small = a;
  const uint32_t* large = b;
  size_t ns = na, nl = nb;
  if (ns > nl) {
    std::swap(small, large);
    std::swap(ns, nl);
  }
  size_t pos = 0, count = 0;
  for (size_t i = 0; i < ns; ++i) {
    pos = GallopLowerBound(large, nl, pos, small[i]);
    if (pos == nl) break;
    if (large[pos] == small[i]) {
      ++count;
      ++pos;
    }
  }
  return count;
}

size_t IntersectIntoGalloping(const uint32_t* a, size_t na,
                              const uint32_t* b, size_t nb, uint32_t* out) {
  const uint32_t* small = a;
  const uint32_t* large = b;
  size_t ns = na, nl = nb;
  if (ns > nl) {
    std::swap(small, large);
    std::swap(ns, nl);
  }
  size_t pos = 0, n = 0;
  for (size_t i = 0; i < ns; ++i) {
    pos = GallopLowerBound(large, nl, pos, small[i]);
    if (pos == nl) break;
    if (large[pos] == small[i]) {
      out[n++] = small[i];
      ++pos;
    }
  }
  return n;
}

size_t IntersectionSize(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb) {
  if (na == 0 || nb == 0) return 0;
  return Skewed(na, nb) ? IntersectionSizeGalloping(a, na, b, nb)
                        : IntersectionSizeScalar(a, na, b, nb);
}

size_t IntersectInto(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out) {
  if (na == 0 || nb == 0) return 0;
  return Skewed(na, nb) ? IntersectIntoGalloping(a, na, b, nb, out)
                        : IntersectIntoScalar(a, na, b, nb, out);
}

bool ContainsSorted(const uint32_t* a, size_t n, uint32_t key) {
  if (n == 0) return false;
  size_t lo = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    if (a[lo + half - 1] < key) lo += half;
    len -= half;
  }
  return a[lo] == key;
}

}  // namespace setops
}  // namespace stabletext
