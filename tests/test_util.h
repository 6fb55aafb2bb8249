// Shared helpers for the test suite: independent reference implementations
// of the peeling numbers (straight from Definition 2's pruning fixpoint, not
// the bucket algorithm under test) and of nucleus enumeration (per-k
// union-find over the surviving supercliques, not BFS), plus canonical forms
// for cross-algorithm comparison and a zoo of graph fixtures.
#ifndef NUCLEUS_TESTS_TEST_UTIL_H_
#define NUCLEUS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "nucleus/cliques/edge_index.h"
#include "nucleus/cliques/triangle_index.h"
#include "nucleus/core/hierarchy.h"
#include "nucleus/core/spaces.h"
#include "nucleus/core/types.h"
#include "nucleus/dsf/disjoint_set.h"
#include "nucleus/graph/generators.h"
#include "nucleus/graph/graph.h"
#include "nucleus/graph/graph_builder.h"

namespace nucleus {
namespace testing_util {

// ---------------------------------------------------------------------------
// The integer after `key` (e.g. `"lines_admitted": `) in a one-line JSON
// response, searching from `from`. A missing key fails the test.
// ---------------------------------------------------------------------------
inline std::int64_t JsonIntAfter(const std::string& text,
                                 const std::string& key,
                                 std::size_t from = 0) {
  const std::size_t at = text.find(key, from);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << text;
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

// ---------------------------------------------------------------------------
// TempDir()-based scratch path with a per-process prefix. Parallel ctest
// runs several processes of one test binary against a single shared
// TempDir(); the prefix keeps their files disjoint.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// g's CSR offsets array: NumVertices() + 1 entries, the last the adjacency
/// size.
inline std::vector<std::int64_t> CsrOffsets(const Graph& g) {
  std::vector<std::int64_t> offsets;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    offsets.push_back(g.AdjOffset(v));
  }
  offsets.push_back(static_cast<std::int64_t>(g.AdjArray().size()));
  return offsets;
}

// ---------------------------------------------------------------------------
// v1 snapshot fixtures (tests/data/v1, see the README there): the only v1
// bytes left now that nothing writes the format. `name` is the file stem,
// e.g. "figure2_core_index". Tests corrupt COPIES, never the originals.
inline std::string V1FixturePath(const std::string& name) {
  return std::string(NUCLEUS_TEST_DATA_DIR) + "/v1/" + name + ".v1.nucsnap";
}

inline std::string CopyV1Fixture(const std::string& name,
                                 const std::string& temp_name) {
  const std::string path = TempPath(temp_name);
  std::filesystem::copy_file(V1FixturePath(name), path,
                             std::filesystem::copy_options::overwrite_existing);
  return path;
}

// ---------------------------------------------------------------------------
// Reference lambda: iterated pruning per k, straight from the definition.
// lambda(u) = max k such that u survives "remove any K_r whose number of
// supercliques with all members alive is < k" iterated to fixpoint.
// Exponentially simpler than — and independent of — the bucket peeling.
template <typename Space>
std::vector<Lambda> ReferenceLambda(const Space& space) {
  const std::int64_t n = space.NumCliques();
  std::vector<Lambda> lambda(n, 0);
  std::vector<char> alive(n, 1);
  for (Lambda k = 1;; ++k) {
    // Prune to the k-fixpoint, starting from the (k-1)-fixpoint.
    bool changed = true;
    while (changed) {
      changed = false;
      for (CliqueId u = 0; u < n; ++u) {
        if (!alive[u]) continue;
        std::int64_t support = 0;
        space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
          for (int i = 0; i < count; ++i) {
            if (!alive[members[i]]) return;
          }
          ++support;
        });
        if (support < k) {
          alive[u] = 0;
          changed = true;
        }
      }
    }
    bool any = false;
    for (CliqueId u = 0; u < n; ++u) {
      if (alive[u]) {
        lambda[u] = k;
        any = true;
      }
    }
    if (!any) break;
  }
  return lambda;
}

// ---------------------------------------------------------------------------
// Reference nuclei: for every k in [1, max lambda], union-find over the
// K_r's with lambda >= k joined through supercliques whose minimum member
// lambda is >= k; report components containing a lambda == k member.
template <typename Space>
std::vector<Nucleus> ReferenceNuclei(const Space& space,
                                     const std::vector<Lambda>& lambda,
                                     Lambda max_lambda) {
  const std::int64_t n = space.NumCliques();
  std::vector<Nucleus> out;
  for (Lambda k = 1; k <= max_lambda; ++k) {
    DisjointSet dsf(n);
    for (CliqueId u = 0; u < n; ++u) {
      if (lambda[u] < k) continue;
      space.ForEachSuperclique(u, [&](const CliqueId* members, int count) {
        for (int i = 0; i < count; ++i) {
          if (lambda[members[i]] < k) return;
        }
        for (int i = 1; i < count; ++i) dsf.Union(members[0], members[i]);
      });
    }
    // Components keyed by representative.
    std::vector<std::vector<CliqueId>> groups(n);
    std::vector<char> has_k(n, 0);
    for (CliqueId u = 0; u < n; ++u) {
      if (lambda[u] < k) continue;
      const std::int32_t rep = dsf.Find(u);
      groups[rep].push_back(u);
      if (lambda[u] == k) has_k[rep] = 1;
    }
    for (CliqueId rep = 0; rep < n; ++rep) {
      if (!has_k[rep] || groups[rep].empty()) continue;
      Nucleus nucleus;
      nucleus.k = k;
      nucleus.members = groups[rep];  // ascending by construction
      out.push_back(std::move(nucleus));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Canonical form: sort nuclei by (k, members) so different algorithms'
// outputs compare with ==.
inline std::vector<Nucleus> Canonicalize(std::vector<Nucleus> nuclei) {
  for (Nucleus& nucleus : nuclei) {
    std::sort(nucleus.members.begin(), nucleus.members.end());
  }
  std::sort(nuclei.begin(), nuclei.end(),
            [](const Nucleus& a, const Nucleus& b) {
              return std::tie(a.k, a.members) < std::tie(b.k, b.members);
            });
  return nuclei;
}

inline bool NucleiEqual(const std::vector<Nucleus>& a,
                        const std::vector<Nucleus>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].k != b[i].k || a[i].members != b[i].members) return false;
  }
  return true;
}

inline std::vector<Nucleus> NucleiFromHierarchy(const NucleusHierarchy& h) {
  return Canonicalize(h.ExtractNuclei());
}

// ---------------------------------------------------------------------------
// Graph fixtures.

/// The paper's Figure 2: two 3-cores (K4s) connected by a 2-core cycle.
inline Graph PaperFigure2Graph() {
  GraphBuilder b;
  // Left 3-core: K4 on {0,1,2,3}; right 3-core: K4 on {4,5,6,7}.
  for (VertexId u = 0; u < 4; ++u)
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  for (VertexId u = 4; u < 8; ++u)
    for (VertexId v = u + 1; v < 8; ++v) b.AddEdge(u, v);
  // 2-core bridge: a cycle through fresh vertices 8, 9 touching both K4s.
  b.AddEdge(3, 8);
  b.AddEdge(8, 4);
  b.AddEdge(4, 9);  // cycle closes so bridge vertices have lambda 2
  b.AddEdge(9, 3);
  return b.Build();
}

/// Two triangles sharing one vertex: a k-dense/k-truss discriminator
/// (paper Figure 3's flavor).
inline Graph BowTieGraph() {
  return GraphFromEdges(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}});
}

/// A named zoo entry for parameterized suites.
struct GraphCase {
  std::string name;
  std::function<Graph()> make;
};

/// Structured + random fixtures that exercise every code path at sizes
/// where the reference implementations stay fast.
inline std::vector<GraphCase> GraphZoo() {
  return {
      {"empty", [] { return Graph(); }},
      {"single_vertex", [] { return Path(1); }},
      {"single_edge", [] { return Path(2); }},
      {"path16", [] { return Path(16); }},
      {"cycle12", [] { return Cycle(12); }},
      {"star20", [] { return Star(20); }},
      {"k6", [] { return Complete(6); }},
      {"k9", [] { return Complete(9); }},
      {"bipartite_4_5", [] { return CompleteBipartite(4, 5); }},
      {"grid_5x6", [] { return Grid2D(5, 6); }},
      {"wheel10", [] { return Wheel(10); }},
      {"lollipop_6_5", [] { return Lollipop(6, 5); }},
      {"figure2", [] { return PaperFigure2Graph(); }},
      {"bowtie", [] { return BowTieGraph(); }},
      {"two_k5_bridge",
       [] {
         Graph a = Complete(5);
         Graph both = DisjointUnion({a, a});
         GraphBuilder b(both.NumVertices());
         both.ForEachEdge([&b](VertexId u, VertexId v) { b.AddEdge(u, v); });
         b.AddEdge(4, 5);
         return b.Build();
       }},
      {"disjoint_mix",
       [] {
         return DisjointUnion({Complete(5), Cycle(6), Path(4), Star(5)});
       }},
      {"er_40_p15", [] { return ErdosRenyiGnp(40, 0.15, 7); }},
      {"er_60_p10", [] { return ErdosRenyiGnp(60, 0.10, 11); }},
      {"er_30_p30", [] { return ErdosRenyiGnp(30, 0.30, 13); }},
      {"ba_50_3", [] { return BarabasiAlbert(50, 3, 17); }},
      {"ws_40_3_p2", [] { return WattsStrogatz(40, 3, 0.2, 19); }},
      {"planted_3x12", [] { return PlantedPartition(3, 12, 0.6, 0.05, 23); }},
      {"caveman_4x8", [] { return Caveman(4, 8, 6, 29); }},
      {"hierarchical",
       [] { return HierarchicalCommunities(2, 2, 6, 1, 31); }},
      {"rmat_small", [] { return RMat(7, 300, 0.5, 0.2, 0.2, 37); }},
      {"triadic_ba",
       [] { return WithTriadicClosure(BarabasiAlbert(40, 2, 41), 60, 43); }},
  };
}

inline void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

}  // namespace testing_util
}  // namespace nucleus

#endif  // NUCLEUS_TESTS_TEST_UTIL_H_
