// The hierarchy-skeleton of the paper (Section 4.2) backed by the modified
// disjoint-set forest of Alg. 7.
//
// Each node is a sub-(r,s) nucleus (T_{r,s}) with four fields:
//   lambda  — the shared peeling number of its member K_r's;
//   rank    — union-by-rank height bound;
//   parent  — the hierarchy link (child has larger lambda, or equal lambda
//             when the link was produced by a Union-r merge);
//   root    — the union-find accelerator: Find-r follows and compresses
//             root pointers only, leaving parent (the reported hierarchy)
//             untouched.
//
// DF-Traversal (Alg. 5/6), FND (Alg. 8/9 via internal::ConsumeBins), LCPS
// and the semi-external builds (em/pair_file.h) build one of these;
// NucleusHierarchy contracts it into the final tree.
#ifndef NUCLEUS_DSF_ROOT_FOREST_H_
#define NUCLEUS_DSF_ROOT_FOREST_H_

#include <cstdint>
#include <vector>

#include "nucleus/util/common.h"

namespace nucleus {

class HierarchySkeleton {
 public:
  /// Adds a sub-nucleus node with the given lambda; returns its id.
  std::int32_t AddNode(Lambda lambda);

  std::int64_t NumNodes() const {
    return static_cast<std::int64_t>(lambda_.size());
  }

  Lambda LambdaOf(std::int32_t id) const { return lambda_[id]; }
  std::int32_t Parent(std::int32_t id) const { return parent_[id]; }
  bool HasParent(std::int32_t id) const { return parent_[id] != kInvalidId; }

  /// Find-r: the greatest ancestor reachable through root pointers, with
  /// path compression on the root pointers (parent untouched).
  std::int32_t FindRoot(std::int32_t x);

  /// Union-r: Link-r(Find-r(x), Find-r(y)). No-op if already joined.
  /// Returns the winning root.
  std::int32_t UnionR(std::int32_t x, std::int32_t y);

  /// hrc(s).parent <- hrc(s).root <- p (Alg. 6 line 21 / Alg. 9 line 10).
  /// `child` must be a root (its own FindRoot); p becomes both its hierarchy
  /// parent and union-find root.
  void AttachChild(std::int32_t child, std::int32_t p);

  /// Sets parent only (used to tie parentless nodes to the artificial
  /// all-graph root at the end of a decomposition).
  void SetParent(std::int32_t child, std::int32_t p) {
    NUCLEUS_CHECK(parent_[child] == kInvalidId);
    parent_[child] = p;
  }

  /// Disables/enables path compression in FindRoot. Compression is on by
  /// default; the off switch exists for the ablation benchmark measuring
  /// the paper's Alg. 7 against naive root-chain climbing.
  void set_path_compression(bool enabled) { path_compression_ = enabled; }

 private:
  void LinkR(std::int32_t x, std::int32_t y);

  std::vector<Lambda> lambda_;
  std::vector<std::int32_t> rank_;
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> root_;
  std::vector<std::int32_t> scratch_;  // Find-r compression buffer
  bool path_compression_ = true;
};

}  // namespace nucleus

#endif  // NUCLEUS_DSF_ROOT_FOREST_H_
