// Standard disjoint-set forest with union-by-rank and two-pass path
// compression — the paper's Alg. 4. Used by the TCP index's Kruskal runs,
// the semi-external hierarchy build (em/pair_file.h BuildSpilledSkeleton),
// the test-suite reference implementations, and generators.
#ifndef NUCLEUS_DSF_DISJOINT_SET_H_
#define NUCLEUS_DSF_DISJOINT_SET_H_

#include <cstdint>
#include <vector>

#include "nucleus/util/common.h"

namespace nucleus {

class DisjointSet {
 public:
  /// n singleton sets, ids 0..n-1.
  explicit DisjointSet(std::int64_t n);

  /// Representative of x's set (with path compression).
  std::int32_t Find(std::int32_t x);

  /// Merges the sets of x and y. Returns true iff they were distinct.
  bool Union(std::int32_t x, std::int32_t y);

  bool SameSet(std::int32_t x, std::int32_t y) { return Find(x) == Find(y); }

  std::int64_t NumSets() const { return num_sets_; }

  /// Size of x's set.
  std::int64_t SizeOf(std::int32_t x) { return size_[Find(x)]; }

  std::int64_t NumElements() const {
    return static_cast<std::int64_t>(parent_.size());
  }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> rank_;
  std::vector<std::int64_t> size_;
  std::int64_t num_sets_;
  std::vector<std::int32_t> scratch_;  // reused by Find's compression pass
};

}  // namespace nucleus

#endif  // NUCLEUS_DSF_DISJOINT_SET_H_
