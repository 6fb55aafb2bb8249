// The final product of a decomposition: the tree of k-(r,s) nuclei.
//
// A hierarchy-skeleton (from DF-Traversal, FND or LCPS) contains one node
// per sub-nucleus; equal-lambda nodes connected by disjoint-set links belong
// to the same nucleus. NucleusHierarchy contracts every equal-lambda parent
// chain into one canonical node ("we just take the child-parent links for
// which the lambda values are different", paper Section 4.2), splices away
// LCPS's memberless chain levels, and exposes the containment tree:
//
//   * the root is an artificial all-graph node (lambda == kRootLambda);
//   * every other node is one k-(r,s) nucleus with k = node lambda >= 1
//     (lambda == 0 nodes hold K_r's that belong to no K_s and therefore to
//     no nucleus; they are kept in the tree but not reported as nuclei);
//   * the member K_r's of the nucleus at node d are all K_r's assigned to
//     d's subtree; the K_r's assigned directly to d are those with
//     lambda == d's lambda.
#ifndef NUCLEUS_CORE_HIERARCHY_H_
#define NUCLEUS_CORE_HIERARCHY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "nucleus/core/types.h"
#include "nucleus/util/common.h"

namespace nucleus {

class NucleusHierarchy {
 public:
  struct Node {
    Lambda lambda = 0;
    std::int32_t parent = kInvalidId;     // kInvalidId for the root only
    std::vector<std::int32_t> children;   // ascending node ids
    std::vector<CliqueId> members;        // direct members, sorted
    std::int64_t subtree_members = 0;     // direct + descendants
  };

  NucleusHierarchy() = default;

  /// Contracts a skeleton into the canonical tree. `num_cliques` is the
  /// size of the K_r space (comp must assign every K_r). Node ids are the
  /// BFS order from the root with siblings ordered by the smallest clique
  /// id in their subtree, so they depend on the nucleus set alone: every
  /// algorithm and thread count yields the same ids. This is the one
  /// place that assigns node ids.
  static NucleusHierarchy FromSkeleton(const SkeletonBuild& build,
                                       std::int64_t num_cliques);

  /// Reassembles a hierarchy from its serialized parts (the snapshot load
  /// path, see store/snapshot.h). Node 0 must be the root (parent
  /// kInvalidId, lambda kRootLambda); every other node's parent must have a
  /// smaller id and a strictly smaller lambda — the compact numbering
  /// FromSkeleton produces. Children lists, direct member lists and subtree
  /// aggregates are rebuilt from `parent` / `node_of_clique`. Violated
  /// preconditions abort: callers holding untrusted input (the snapshot
  /// reader) must validate and return Status before calling this.
  static NucleusHierarchy FromParts(std::vector<Lambda> node_lambda,
                                    std::vector<std::int32_t> parent,
                                    std::vector<std::int32_t> node_of_clique);

  std::int32_t root() const { return root_; }
  std::int64_t NumNodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }

  /// Size of the K_r space the hierarchy was built over.
  std::int64_t NumCliques() const {
    return static_cast<std::int64_t>(node_of_clique_.size());
  }
  const Node& node(std::int32_t id) const { return nodes_[id]; }

  /// Number of real nuclei (nodes with lambda >= 1).
  std::int64_t NumNuclei() const { return num_nuclei_; }

  Lambda MaxLambda() const { return max_lambda_; }

  /// Deepest-node id of the K_r u: the node of u's maximum k-(r,s) nucleus.
  std::int32_t NodeOfClique(CliqueId u) const { return node_of_clique_[u]; }

  /// The whole clique→node assignment as a flat array (serializers and
  /// SnapshotSource views read it without a per-clique copy).
  const std::vector<std::int32_t>& NodeOfCliqueArray() const {
    return node_of_clique_;
  }

  /// Node ids from NodeOfClique(u) up to (and including) the root: the
  /// chain of nuclei containing u, densest first.
  std::vector<std::int32_t> AncestorChain(CliqueId u) const;

  /// Materializes every nucleus (lambda >= 1 node) with its full member
  /// list. Memory is the sum of subtree sizes; intended for tests, queries
  /// and small graphs — the tree itself is the compact representation.
  std::vector<Nucleus> ExtractNuclei() const;

  /// Full member list of one node's nucleus (its subtree), sorted.
  std::vector<CliqueId> MembersOfSubtree(std::int32_t id) const;

  /// Structural invariant check; aborts on violation. `lambda` is the
  /// peeling result the hierarchy was built from.
  void Validate(const std::vector<Lambda>& lambda) const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::int32_t> node_of_clique_;
  std::int32_t root_ = kInvalidId;
  std::int64_t num_nuclei_ = 0;
  Lambda max_lambda_ = 0;
};

/// Structural profile of a hierarchy — the analysis the paper's conclusion
/// proposes as an open direction ("looking at the T_{r,s}, which are many
/// more than the k-(r,s) nuclei, might reveal more insight about
/// networks"): how nodes, members and branching distribute over lambda.
struct HierarchyProfile {
  std::int64_t num_nodes = 0;    // excluding the root
  std::int64_t num_leaves = 0;   // nodes with no children
  std::int32_t max_depth = 0;    // root = depth 0
  double avg_branching = 0.0;    // children per internal non-root node
  double avg_members_per_node = 0.0;
  /// (lambda, node count) in increasing lambda, lambda >= 0 only.
  std::vector<std::pair<Lambda, std::int64_t>> nodes_per_lambda;
};

HierarchyProfile ProfileHierarchy(const NucleusHierarchy& h);

}  // namespace nucleus

#endif  // NUCLEUS_CORE_HIERARCHY_H_
