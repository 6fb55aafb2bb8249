#include "nucleus/core/hierarchy.h"

#include <algorithm>
#include <map>

namespace nucleus {
namespace {

// Canonical representative of a skeleton node: the highest ancestor
// reachable through equal-lambda parent links. Memoized via `canon`.
std::int32_t Canonical(const HierarchySkeleton& skel,
                       std::vector<std::int32_t>* canon, std::int32_t x) {
  std::vector<std::int32_t> chain;
  std::int32_t cur = x;
  while ((*canon)[cur] == kInvalidId) {
    const std::int32_t p = skel.Parent(cur);
    if (p == kInvalidId || skel.LambdaOf(p) != skel.LambdaOf(cur)) break;
    chain.push_back(cur);
    cur = p;
  }
  const std::int32_t rep = (*canon)[cur] != kInvalidId ? (*canon)[cur] : cur;
  (*canon)[cur] = rep;
  for (std::int32_t v : chain) (*canon)[v] = rep;
  return rep;
}

}  // namespace

NucleusHierarchy NucleusHierarchy::FromSkeleton(const SkeletonBuild& build,
                                                std::int64_t num_cliques) {
  const HierarchySkeleton& skel = build.skeleton;
  const std::int64_t num_skel = skel.NumNodes();
  NUCLEUS_CHECK(build.root_id != kInvalidId);
  NUCLEUS_CHECK(static_cast<std::int64_t>(build.comp.size()) == num_cliques);

  // 1. Contract equal-lambda parent chains.
  std::vector<std::int32_t> canon(num_skel, kInvalidId);
  for (std::int32_t i = 0; i < num_skel; ++i) Canonical(skel, &canon, i);

  // 2. Direct member counts per representative (for the splice step).
  std::vector<std::int64_t> direct_count(num_skel, 0);
  for (std::int64_t u = 0; u < num_cliques; ++u) {
    const std::int32_t c = build.comp[u];
    NUCLEUS_CHECK_MSG(c != kInvalidId, "K_r without a sub-nucleus");
    ++direct_count[canon[c]];
  }

  // 3. Keep the root and every representative with direct members; splice
  //    memberless chain nodes (LCPS levels with no lambda == level K_r) by
  //    climbing to the nearest kept ancestor.
  const std::int32_t root_rep = canon[build.root_id];
  std::vector<char> keep(num_skel, 0);
  for (std::int32_t i = 0; i < num_skel; ++i) {
    if (canon[i] == i && (direct_count[i] > 0 || i == root_rep)) keep[i] = 1;
  }
  // Effective parent representative of every kept node, recorded once.
  std::vector<std::int32_t> kept_parent(num_skel, kInvalidId);
  for (std::int32_t i = 0; i < num_skel; ++i) {
    if (!keep[i] || i == root_rep) continue;
    std::int32_t p = skel.Parent(i);
    while (p != kInvalidId && !keep[canon[p]]) p = skel.Parent(canon[p]);
    NUCLEUS_CHECK_MSG(p != kInvalidId, "kept node with no kept ancestor");
    kept_parent[i] = canon[p];
  }

  // 4. Canonical numbering: BFS from the root, siblings ordered by the
  //    smallest clique id in their subtree. Subtrees are disjoint, so that
  //    order is total and the ids depend on the nucleus set alone, not on
  //    the algorithm that built the skeleton. Climbing from each clique in
  //    ascending id order reaches every kept node first from its subtree
  //    minimum, so appending nodes to their parent's list on first reach
  //    yields sibling lists already in that order. Parents get smaller ids
  //    than children, so one backward sweep aggregates subtree data.
  NucleusHierarchy h;
  std::vector<std::int32_t> compact(num_skel, kInvalidId);
  {
    std::vector<std::vector<std::int32_t>> kids(num_skel);
    std::vector<char> reached(num_skel, 0);
    for (std::int64_t u = 0; u < num_cliques; ++u) {
      std::int32_t rep = canon[build.comp[u]];
      while (rep != root_rep && !reached[rep]) {
        reached[rep] = 1;
        kids[kept_parent[rep]].push_back(rep);
        rep = kept_parent[rep];
      }
    }
    std::vector<std::int32_t> order{root_rep};
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (std::int32_t c : kids[order[head]]) order.push_back(c);
    }
    h.nodes_.resize(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      compact[order[i]] = static_cast<std::int32_t>(i);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::int32_t rep = order[i];
      Node& node = h.nodes_[i];
      node.lambda = skel.LambdaOf(rep);
      node.parent = rep == root_rep ? kInvalidId : compact[kept_parent[rep]];
      if (node.parent != kInvalidId) {
        h.nodes_[node.parent].children.push_back(static_cast<std::int32_t>(i));
      }
    }
  }
  h.root_ = compact[root_rep];
  NUCLEUS_CHECK(h.root_ == 0);

  // 5. Assign cliques to compact nodes and collect direct member lists.
  h.node_of_clique_.resize(num_cliques);
  for (std::int64_t u = 0; u < num_cliques; ++u) {
    const std::int32_t id = compact[canon[build.comp[u]]];
    h.node_of_clique_[u] = id;
    h.nodes_[id].members.push_back(static_cast<CliqueId>(u));
  }
  // comp buckets were filled in increasing u, so members are sorted already.

  // 6. Subtree aggregates (children have larger compact ids than parents).
  for (std::int64_t i = static_cast<std::int64_t>(h.nodes_.size()) - 1; i >= 0;
       --i) {
    Node& node = h.nodes_[i];
    node.subtree_members += static_cast<std::int64_t>(node.members.size());
    if (node.parent != kInvalidId) {
      h.nodes_[node.parent].subtree_members += node.subtree_members;
    }
    if (node.lambda >= 1) ++h.num_nuclei_;
    if (node.lambda > h.max_lambda_) h.max_lambda_ = node.lambda;
  }
  return h;
}

NucleusHierarchy NucleusHierarchy::FromParts(
    std::vector<Lambda> node_lambda, std::vector<std::int32_t> parent,
    std::vector<std::int32_t> node_of_clique) {
  const std::int32_t num_nodes =
      static_cast<std::int32_t>(node_lambda.size());
  NUCLEUS_CHECK(num_nodes >= 1);
  NUCLEUS_CHECK(parent.size() == node_lambda.size());
  NUCLEUS_CHECK(parent[0] == kInvalidId && node_lambda[0] == kRootLambda);

  NucleusHierarchy h;
  h.root_ = 0;
  h.nodes_.resize(num_nodes);
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    Node& node = h.nodes_[i];
    node.lambda = node_lambda[i];
    node.parent = parent[i];
    if (i == 0) continue;
    NUCLEUS_CHECK(parent[i] >= 0 && parent[i] < i);
    NUCLEUS_CHECK(node_lambda[parent[i]] < node_lambda[i]);
    h.nodes_[parent[i]].children.push_back(i);
  }

  // Direct members: clique ids ascend, so each bucket fills sorted.
  for (std::size_t u = 0; u < node_of_clique.size(); ++u) {
    const std::int32_t id = node_of_clique[u];
    NUCLEUS_CHECK(id >= 0 && id < num_nodes);
    h.nodes_[id].members.push_back(static_cast<CliqueId>(u));
  }
  h.node_of_clique_ = std::move(node_of_clique);

  // Subtree aggregates, exactly as FromSkeleton step 6 (children have
  // larger ids than parents, so one backward sweep suffices).
  for (std::int32_t i = num_nodes - 1; i >= 0; --i) {
    Node& node = h.nodes_[i];
    NUCLEUS_CHECK_MSG(i == 0 || !node.members.empty(),
                      "non-root hierarchy node with no direct members");
    node.subtree_members += static_cast<std::int64_t>(node.members.size());
    if (node.parent != kInvalidId) {
      h.nodes_[node.parent].subtree_members += node.subtree_members;
    }
    if (node.lambda >= 1) ++h.num_nuclei_;
    if (node.lambda > h.max_lambda_) h.max_lambda_ = node.lambda;
  }
  return h;
}

std::vector<std::int32_t> NucleusHierarchy::AncestorChain(CliqueId u) const {
  std::vector<std::int32_t> chain;
  std::int32_t cur = node_of_clique_[u];
  while (cur != kInvalidId) {
    chain.push_back(cur);
    cur = nodes_[cur].parent;
  }
  return chain;
}

std::vector<CliqueId> NucleusHierarchy::MembersOfSubtree(
    std::int32_t id) const {
  std::vector<CliqueId> out;
  std::vector<std::int32_t> stack{id};
  while (!stack.empty()) {
    const std::int32_t cur = stack.back();
    stack.pop_back();
    out.insert(out.end(), nodes_[cur].members.begin(),
               nodes_[cur].members.end());
    for (std::int32_t c : nodes_[cur].children) stack.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Nucleus> NucleusHierarchy::ExtractNuclei() const {
  std::vector<Nucleus> out;
  out.reserve(static_cast<std::size_t>(num_nuclei_));
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(nodes_.size());
       ++id) {
    if (nodes_[id].lambda < 1) continue;
    Nucleus nucleus;
    nucleus.k = nodes_[id].lambda;
    nucleus.members = MembersOfSubtree(id);
    out.push_back(std::move(nucleus));
  }
  return out;
}

HierarchyProfile ProfileHierarchy(const NucleusHierarchy& h) {
  HierarchyProfile profile;
  std::vector<std::int32_t> depth(h.NumNodes(), 0);
  std::map<Lambda, std::int64_t> per_lambda;
  std::int64_t internal_children = 0;
  std::int64_t internal_nodes = 0;
  std::int64_t members = 0;
  for (std::int32_t id = 0; id < h.NumNodes(); ++id) {
    const auto& node = h.node(id);
    if (node.parent != kInvalidId) {
      depth[id] = depth[node.parent] + 1;  // parents precede children
      profile.max_depth = std::max(profile.max_depth, depth[id]);
    }
    if (id == h.root()) continue;
    ++profile.num_nodes;
    members += static_cast<std::int64_t>(node.members.size());
    ++per_lambda[node.lambda];
    if (node.children.empty()) {
      ++profile.num_leaves;
    } else {
      ++internal_nodes;
      internal_children += static_cast<std::int64_t>(node.children.size());
    }
  }
  profile.avg_branching =
      internal_nodes > 0
          ? static_cast<double>(internal_children) / internal_nodes
          : 0.0;
  profile.avg_members_per_node =
      profile.num_nodes > 0
          ? static_cast<double>(members) / profile.num_nodes
          : 0.0;
  profile.nodes_per_lambda.assign(per_lambda.begin(), per_lambda.end());
  return profile;
}

void NucleusHierarchy::Validate(const std::vector<Lambda>& lambda) const {
  NUCLEUS_CHECK(root_ == 0 && !nodes_.empty());
  NUCLEUS_CHECK(nodes_[root_].lambda == kRootLambda);
  NUCLEUS_CHECK(nodes_[root_].parent == kInvalidId);
  NUCLEUS_CHECK(nodes_[root_].subtree_members ==
                static_cast<std::int64_t>(node_of_clique_.size()));
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(nodes_.size());
       ++id) {
    const Node& node = nodes_[id];
    if (id != root_) {
      NUCLEUS_CHECK(node.parent != kInvalidId);
      // Strictly increasing lambda along every root-to-leaf path.
      NUCLEUS_CHECK(nodes_[node.parent].lambda < node.lambda);
      NUCLEUS_CHECK_MSG(!node.members.empty(),
                        "non-root hierarchy node with no direct members");
    }
    std::int64_t subtree = static_cast<std::int64_t>(node.members.size());
    for (std::int32_t c : node.children) {
      NUCLEUS_CHECK(nodes_[c].parent == id);
      subtree += nodes_[c].subtree_members;
    }
    NUCLEUS_CHECK(subtree == node.subtree_members);
    for (CliqueId u : node.members) {
      NUCLEUS_CHECK(node_of_clique_[u] == id);
      NUCLEUS_CHECK(lambda[u] == node.lambda);
    }
  }
}

}  // namespace nucleus
