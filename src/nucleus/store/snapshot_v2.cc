#include "nucleus/store/snapshot_v2.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "nucleus/core/hierarchy_index.h"
#include "nucleus/store/record_io.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/util/file_util.h"

namespace nucleus {

// v2 is defined as a little-endian format served zero-copy from a mapping;
// a big-endian port would need byte-swapping shims in the source layer.
static_assert(std::endian::native == std::endian::little,
              ".nucsnap v2 requires a little-endian host");

namespace store_v2_internal {

const char* SectionName(SnapshotSection section) {
  switch (section) {
    case SnapshotSection::kLambda: return "lambda";
    case SnapshotSection::kNodeLambda: return "node_lambda";
    case SnapshotSection::kNodeParent: return "node_parent";
    case SnapshotSection::kNodeOfClique: return "node_of_clique";
    case SnapshotSection::kDepth: return "depth";
    case SnapshotSection::kUp: return "up";
    case SnapshotSection::kSubBegin: return "sub_begin";
    case SnapshotSection::kSubEnd: return "sub_end";
    case SnapshotSection::kCliquesPre: return "cliques_pre";
    case SnapshotSection::kDensityRanking: return "density_ranking";
  }
  return "unknown";
}

std::int64_t ExpectedSectionLength(SnapshotSection section,
                                   const V2Header& header) {
  const std::int64_t nodes = header.num_nodes;
  const std::int64_t cliques = header.meta.num_cliques;
  switch (section) {
    case SnapshotSection::kLambda:
    case SnapshotSection::kNodeOfClique:
    case SnapshotSection::kCliquesPre:
      return cliques * 4;
    case SnapshotSection::kNodeLambda:
    case SnapshotSection::kNodeParent:
    case SnapshotSection::kDepth:
      return nodes * 4;
    case SnapshotSection::kUp:
      return static_cast<std::int64_t>(header.levels) * nodes * 4;
    case SnapshotSection::kSubBegin:
    case SnapshotSection::kSubEnd:
      return nodes * 8;
    case SnapshotSection::kDensityRanking:
      return static_cast<std::int64_t>(header.num_ranked) * 4;
  }
  return 0;
}

std::uint64_t SectionDigest(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = store_internal::kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    hash ^= word;
    hash *= store_internal::kFnvPrime;
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= store_internal::kFnvPrime;
  }
  return hash;
}

namespace {

std::int64_t AlignUp8(std::int64_t value) { return (value + 7) & ~std::int64_t{7}; }

template <typename T>
T ReadLe(const unsigned char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

Status HeaderError(const std::string& path, const std::string& reason) {
  return Status::InvalidArgument(path + ": header: " + reason);
}

Status DirectoryError(const std::string& path, const std::string& reason) {
  return Status::InvalidArgument(path + ": directory: " + reason);
}

}  // namespace

Status ParseV2Header(const unsigned char* data, std::int64_t file_size,
                     const std::string& path, V2Header* header) {
  if (file_size < kSnapshotV2HeaderBytes) {
    return Status::OutOfRange(path + ": header: truncated snapshot");
  }
  if (std::memcmp(data, kSnapshotV2Magic, sizeof(kSnapshotV2Magic)) != 0) {
    return HeaderError(path, "bad magic (not a snapshot file)");
  }
  const std::uint32_t version = ReadLe<std::uint32_t>(data + 8);
  if (version != kSnapshotV2Version) {
    return HeaderError(path, "unsupported snapshot version " +
                                 std::to_string(version));
  }
  const std::uint32_t flags = ReadLe<std::uint32_t>(data + 12);
  if (flags != 0) {
    return HeaderError(path, "unknown snapshot flags");
  }
  const std::int32_t family = ReadLe<std::int32_t>(data + 16);
  const std::int32_t algorithm = ReadLe<std::int32_t>(data + 20);
  if (family < 0 ||
      family > static_cast<std::int32_t>(Family::kNucleus34)) {
    return HeaderError(path, "invalid family");
  }
  if (algorithm < 0 ||
      algorithm > static_cast<std::int32_t>(Algorithm::kHypo)) {
    return HeaderError(path, "invalid algorithm");
  }
  header->meta.family = static_cast<Family>(family);
  header->meta.algorithm = static_cast<Algorithm>(algorithm);
  header->meta.num_vertices = ReadLe<std::int32_t>(data + 24);
  header->meta.num_edges = ReadLe<std::int64_t>(data + 28);
  header->meta.graph_fingerprint = ReadLe<std::uint64_t>(data + 36);
  header->meta.num_cliques = ReadLe<std::int64_t>(data + 44);
  header->meta.max_lambda = ReadLe<std::int32_t>(data + 52);
  header->num_nodes = ReadLe<std::int32_t>(data + 56);
  header->levels = ReadLe<std::int32_t>(data + 60);
  header->num_ranked = ReadLe<std::int32_t>(data + 64);
  const std::uint32_t section_count = ReadLe<std::uint32_t>(data + 68);

  if (header->meta.num_vertices < 0 || header->meta.num_edges < 0 ||
      header->meta.num_cliques < 0 || header->meta.max_lambda < 0 ||
      header->num_nodes < 1) {
    return HeaderError(path, "impossible counts");
  }
  if (header->levels < 1 || header->levels > 32) {
    return HeaderError(path, "invalid index levels");
  }
  if (header->num_ranked < 0 || header->num_ranked > header->num_nodes) {
    return HeaderError(path, "impossible density ranking count");
  }
  if (section_count != kSnapshotV2SectionCount) {
    return HeaderError(path, "unexpected section count " +
                                 std::to_string(section_count));
  }
  // Bound every count by the file size BEFORE the length arithmetic below,
  // exactly like v1's BoundCountsByFileSize: a crafted 2^62 count must not
  // wrap the int64 multiplications and reach an allocation.
  const std::int64_t max_entries = file_size / 4;
  if (header->meta.num_cliques > max_entries ||
      header->num_nodes > max_entries ||
      static_cast<std::int64_t>(header->levels) * header->num_nodes >
          max_entries ||
      header->num_nodes > file_size / 8) {
    return HeaderError(
        path, "size mismatch (header counts exceed the file size; "
              "truncated or corrupt)");
  }

  // Directory digest covers preamble + directory: corrupting an offset,
  // length or per-section digest is caught HERE, eagerly and in O(header),
  // never by wandering into the wrong bytes later.
  const std::int64_t dir_end =
      kSnapshotV2PreambleBytes +
      kSnapshotV2SectionCount * kSnapshotV2DirEntryBytes;
  const std::uint64_t computed =
      SectionDigest(data, static_cast<std::size_t>(dir_end));
  const std::uint64_t stored = ReadLe<std::uint64_t>(data + dir_end);
  if (computed != stored) {
    return HeaderError(path, "checksum mismatch (corrupt header/directory)");
  }

  std::int64_t cursor = kSnapshotV2HeaderBytes;
  for (std::uint32_t i = 0; i < kSnapshotV2SectionCount; ++i) {
    const unsigned char* entry =
        data + kSnapshotV2PreambleBytes + i * kSnapshotV2DirEntryBytes;
    const auto section = static_cast<SnapshotSection>(i + 1);
    const char* name = SectionName(section);
    if (ReadLe<std::uint32_t>(entry) != i + 1) {
      return DirectoryError(path, std::string("section id mismatch for ") +
                                      name);
    }
    SnapshotSectionEntry& out = header->sections[i];
    out.offset = ReadLe<std::int64_t>(entry + 8);
    out.length = ReadLe<std::int64_t>(entry + 16);
    out.digest = ReadLe<std::uint64_t>(entry + 24);
    if (out.length != ExpectedSectionLength(section, *header)) {
      return Status::InvalidArgument(
          path + ": " + name +
          ": size mismatch (section length disagrees with header counts)");
    }
    if (out.offset < kSnapshotV2HeaderBytes || (out.offset & 7) != 0 ||
        out.offset > file_size) {
      return DirectoryError(path, std::string("offset out of range for ") +
                                      name);
    }
    if (out.length > file_size - out.offset) {
      return Status::InvalidArgument(
          path + ": " + name +
          ": section out of file bounds (truncated or corrupt)");
    }
    if (out.offset < cursor) {
      return DirectoryError(path, std::string("overlapping sections at ") +
                                      name);
    }
    cursor = AlignUp8(out.offset + out.length);
  }
  if (cursor != AlignUp8(file_size) || file_size != cursor) {
    return Status::InvalidArgument(
        path + ": directory: size mismatch (expected " +
        std::to_string(cursor) + " bytes, file has " +
        std::to_string(file_size) + "; truncated or trailing data)");
  }
  return Status::Ok();
}

Status VerifySectionDigest(const unsigned char* base,
                           const SnapshotSectionEntry& entry,
                           SnapshotSection section, const std::string& path) {
  const std::uint64_t computed = SectionDigest(
      base + entry.offset, static_cast<std::size_t>(entry.length));
  if (computed != entry.digest) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(SectionName(section)) +
                                   ": checksum mismatch (corrupt section)");
  }
  return Status::Ok();
}

Status ValidateTreeSections(const std::string& path, const V2Header& h,
                            const Lambda* node_lambda,
                            const std::int32_t* node_parent) {
  if (node_lambda[0] != kRootLambda || node_parent[0] != kInvalidId) {
    return Status::InvalidArgument(path +
                                   ": node_parent: corrupt snapshot root "
                                   "node");
  }
  Lambda max_lambda = 0;
  for (std::int32_t i = 1; i < h.num_nodes; ++i) {
    if (node_parent[i] < 0 || node_parent[i] >= i) {
      return Status::InvalidArgument(path +
                                     ": node_parent: corrupt parent order");
    }
    if (node_lambda[i] < 0 || node_lambda[node_parent[i]] >= node_lambda[i]) {
      return Status::InvalidArgument(
          path + ": node_lambda: non-increasing lambda chain");
    }
    if (node_lambda[i] > max_lambda) max_lambda = node_lambda[i];
  }
  if (max_lambda != h.meta.max_lambda) {
    return Status::InvalidArgument(path +
                                   ": node_lambda: max lambda mismatch");
  }
  return Status::Ok();
}

Status ValidateAssignSections(const std::string& path, const V2Header& h,
                              const Lambda* lambda,
                              const Lambda* node_lambda,
                              const std::int32_t* node_of_clique) {
  std::vector<char> has_member(static_cast<std::size_t>(h.num_nodes), 0);
  for (std::int64_t u = 0; u < h.meta.num_cliques; ++u) {
    const std::int32_t id = node_of_clique[u];
    if (id < 0 || id >= h.num_nodes) {
      return Status::InvalidArgument(
          path + ": node_of_clique: clique assigned out of range");
    }
    if (lambda[u] != node_lambda[id]) {
      return Status::InvalidArgument(
          path + ": lambda: lambda / node assignment mismatch");
    }
    has_member[id] = 1;
  }
  for (std::int32_t i = 1; i < h.num_nodes; ++i) {
    if (!has_member[i]) {
      return Status::InvalidArgument(
          path + ": node_of_clique: memberless non-root node");
    }
  }
  return Status::Ok();
}

Status ValidateIndexSections(const std::string& path, const V2Header& h,
                             const std::int32_t* node_parent,
                             const std::int32_t* depth,
                             const std::int32_t* up) {
  const std::int32_t n = h.num_nodes;
  std::int32_t max_depth = 0;
  if (depth[0] != 0) {
    return Status::InvalidArgument(path + ": depth: corrupt index depth "
                                          "table");
  }
  for (std::int32_t i = 1; i < n; ++i) {
    if (depth[i] != depth[node_parent[i]] + 1) {
      return Status::InvalidArgument(path + ": depth: corrupt index depth "
                                            "table");
    }
    if (depth[i] > max_depth) max_depth = depth[i];
  }
  std::int32_t expected_levels = 1;
  while ((1 << expected_levels) <= std::max(max_depth, 1)) ++expected_levels;
  if (h.levels != expected_levels) {
    return Status::InvalidArgument(path + ": up: index level count "
                                          "mismatch");
  }
  const auto at = [&](std::int32_t j, std::int32_t x) {
    return up[static_cast<std::size_t>(j) * n + x];
  };
  for (std::int32_t x = 0; x < n; ++x) {
    if (at(0, x) != node_parent[x]) {
      return Status::InvalidArgument(path + ": up: corrupt index jump "
                                            "table");
    }
  }
  for (std::int32_t j = 1; j < h.levels; ++j) {
    for (std::int32_t x = 0; x < n; ++x) {
      const std::int32_t half = at(j - 1, x);
      const std::int32_t expect =
          half == kInvalidId ? kInvalidId : at(j - 1, half);
      if (at(j, x) != expect) {
        return Status::InvalidArgument(path + ": up: corrupt index jump "
                                              "table");
      }
    }
  }
  return Status::Ok();
}

Status ValidateSubSections(const std::string& path, const V2Header& h,
                           const std::int32_t* node_parent,
                           const std::int32_t* node_of_clique,
                           const std::int64_t* sub_begin,
                           const std::int64_t* sub_end) {
  const std::int32_t n = h.num_nodes;
  const std::int64_t cliques = h.meta.num_cliques;
  if (sub_begin[0] != 0 || sub_end[0] != cliques) {
    return Status::InvalidArgument(
        path + ": sub_begin: root interval does not cover the clique "
               "space");
  }
  for (std::int32_t i = 1; i < n; ++i) {
    const std::int32_t p = node_parent[i];
    if (sub_begin[i] < sub_begin[p] || sub_end[i] > sub_end[p] ||
        sub_begin[i] > sub_end[i]) {
      return Status::InvalidArgument(
          path + ": sub_begin: subtree interval not nested in its parent");
    }
  }
  // Exactness: every node's interval must hold exactly its direct cliques
  // plus its children's intervals. Nesting alone would let two siblings
  // share positions; the size balance below rules that out in O(n).
  std::vector<std::int64_t> direct(static_cast<std::size_t>(n), 0);
  for (std::int64_t u = 0; u < cliques; ++u) {
    const std::int32_t id = node_of_clique[u];
    if (id < 0 || id >= n) {
      return Status::InvalidArgument(
          path + ": node_of_clique: clique assigned out of range");
    }
    ++direct[id];
  }
  std::vector<std::int64_t> child_sum(static_cast<std::size_t>(n), 0);
  for (std::int32_t i = n - 1; i >= 1; --i) {
    const std::int64_t size = sub_end[i] - sub_begin[i];
    if (size != direct[i] + child_sum[i]) {
      return Status::InvalidArgument(
          path + ": sub_end: subtree interval size disagrees with the "
                 "tree");
    }
    child_sum[node_parent[i]] += size;
  }
  if (cliques != direct[0] + child_sum[0]) {
    return Status::InvalidArgument(
        path + ": sub_end: subtree interval size disagrees with the tree");
  }
  return Status::Ok();
}

Status ValidateCliquesPre(const std::string& path, const V2Header& h,
                          const std::int32_t* node_of_clique,
                          const std::int64_t* sub_begin,
                          const std::int64_t* sub_end,
                          const std::int32_t* cliques_pre) {
  const std::int64_t cliques = h.meta.num_cliques;
  std::vector<char> seen(static_cast<std::size_t>(cliques), 0);
  for (std::int64_t p = 0; p < cliques; ++p) {
    const std::int32_t c = cliques_pre[p];
    if (c < 0 || c >= cliques || seen[static_cast<std::size_t>(c)]) {
      return Status::InvalidArgument(
          path + ": cliques_pre: not a permutation of the clique space");
    }
    seen[static_cast<std::size_t>(c)] = 1;
    const std::int32_t node = node_of_clique[c];
    if (p < sub_begin[node] || p >= sub_end[node]) {
      return Status::InvalidArgument(
          path + ": cliques_pre: clique outside its node's subtree "
                 "interval");
    }
  }
  return Status::Ok();
}

Status ValidateRankingSection(const std::string& path, const V2Header& h,
                              const Lambda* node_lambda,
                              const std::int32_t* ranking) {
  std::int64_t expected = 0;
  for (std::int32_t i = 0; i < h.num_nodes; ++i) {
    if (node_lambda[i] >= 1) ++expected;
  }
  if (expected != h.num_ranked) {
    return Status::InvalidArgument(
        path + ": density_ranking: ranking count disagrees with the tree");
  }
  for (std::int32_t i = 0; i < h.num_ranked; ++i) {
    const std::int32_t id = ranking[i];
    if (id < 0 || id >= h.num_nodes || node_lambda[id] < 1) {
      return Status::InvalidArgument(
          path + ": density_ranking: entry is not a nucleus node");
    }
    if (i > 0) {
      const std::int32_t prev = ranking[i - 1];
      const bool ordered =
          node_lambda[prev] > node_lambda[id] ||
          (node_lambda[prev] == node_lambda[id] && prev < id);
      if (!ordered) {
        return Status::InvalidArgument(
            path + ": density_ranking: not ordered by (lambda desc, id "
                   "asc)");
      }
    }
  }
  return Status::Ok();
}


namespace {

/// Derives the member store: DFS preorder from the root with children in
/// ascending id order, each node's direct members (already sorted) emitted
/// at entry. Every subtree then occupies one contiguous [begin, end) run
/// of `cliques_pre`, which is the property SnapshotSource's
/// MaterializeMembers and SubtreeSize lean on.
void BuildMemberStore(const NucleusHierarchy& h, V2Image* image) {
  const std::int32_t n = static_cast<std::int32_t>(h.NumNodes());
  image->sub_begin.assign(static_cast<std::size_t>(n), 0);
  image->sub_end.assign(static_cast<std::size_t>(n), 0);
  image->cliques_pre.reserve(static_cast<std::size_t>(h.NumCliques()));
  // (node, next child index) stack; a node's interval closes when its last
  // child's subtree has been emitted.
  std::vector<std::pair<std::int32_t, std::size_t>> stack;
  stack.emplace_back(h.root(), 0);
  image->sub_begin[h.root()] =
      static_cast<std::int64_t>(image->cliques_pre.size());
  for (const CliqueId c : h.node(h.root()).members) {
    image->cliques_pre.push_back(c);
  }
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    const auto& children = h.node(node).children;
    if (next_child == children.size()) {
      image->sub_end[node] =
          static_cast<std::int64_t>(image->cliques_pre.size());
      stack.pop_back();
      continue;
    }
    const std::int32_t child = children[next_child++];
    image->sub_begin[child] =
        static_cast<std::int64_t>(image->cliques_pre.size());
    for (const CliqueId c : h.node(child).members) {
      image->cliques_pre.push_back(c);
    }
    stack.emplace_back(child, 0);
  }
}

void AppendLe(std::vector<unsigned char>* buffer, const void* data,
              std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  buffer->insert(buffer->end(), bytes, bytes + size);
}

template <typename T>
void AppendValue(std::vector<unsigned char>* buffer, T value) {
  AppendLe(buffer, &value, sizeof(T));
}

}  // namespace

void PlanV2Image(const SnapshotData& snapshot, V2Image* image) {
  const NucleusHierarchy& h = snapshot.hierarchy;
  NUCLEUS_CHECK_MSG(h.NumNodes() >= 1,
                    "snapshot requires a built hierarchy (build_tree)");
  NUCLEUS_CHECK(static_cast<std::int64_t>(snapshot.peel.lambda.size()) ==
                h.NumCliques());
  const std::int32_t num_nodes = static_cast<std::int32_t>(h.NumNodes());

  image->node_lambda.resize(static_cast<std::size_t>(num_nodes));
  image->node_parent.resize(static_cast<std::size_t>(num_nodes));
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    image->node_lambda[i] = h.node(i).lambda;
    image->node_parent[i] = h.node(i).parent;
  }
  // v2 always ships the jump tables: the whole point of the layout is that
  // a load never rebuilds anything.
  if (!snapshot.has_index) image->built_tables = HierarchyIndex(h).Tables();
  const HierarchyIndexTables& tables =
      snapshot.has_index ? snapshot.index_tables : image->built_tables;
  BuildMemberStore(h, image);
  image->ranking.reserve(static_cast<std::size_t>(h.NumNuclei()));
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    if (h.node(i).lambda >= 1) image->ranking.push_back(i);
  }
  std::sort(image->ranking.begin(), image->ranking.end(),
            [&h](std::int32_t a, std::int32_t b) {
              if (h.node(a).lambda != h.node(b).lambda) {
                return h.node(a).lambda > h.node(b).lambda;
              }
              return a < b;
            });

  V2Header header;
  header.meta = snapshot.meta;
  header.meta.num_cliques = h.NumCliques();
  header.num_nodes = num_nodes;
  header.levels = tables.levels;
  header.num_ranked = static_cast<std::int32_t>(image->ranking.size());
  const void* section_data[kSnapshotV2SectionCount] = {
      snapshot.peel.lambda.data(),  image->node_lambda.data(),
      image->node_parent.data(),    h.NodeOfCliqueArray().data(),
      tables.depth.data(),          tables.up.data(),
      image->sub_begin.data(),      image->sub_end.data(),
      image->cliques_pre.data(),    image->ranking.data()};
  std::int64_t cursor = kSnapshotV2HeaderBytes;
  for (std::uint32_t i = 0; i < kSnapshotV2SectionCount; ++i) {
    V2Image::Section& section = image->sections[i];
    section.data = section_data[i];
    section.offset = cursor;
    section.length =
        ExpectedSectionLength(static_cast<SnapshotSection>(i + 1), header);
    cursor = AlignUp8(cursor + section.length);
  }
  image->size = cursor;

  std::vector<unsigned char>& out = image->header;
  out.reserve(static_cast<std::size_t>(kSnapshotV2HeaderBytes));
  AppendLe(&out, kSnapshotV2Magic, sizeof(kSnapshotV2Magic));
  AppendValue(&out, kSnapshotV2Version);
  AppendValue(&out, std::uint32_t{0});  // flags
  AppendValue(&out, static_cast<std::int32_t>(header.meta.family));
  AppendValue(&out, static_cast<std::int32_t>(header.meta.algorithm));
  AppendValue(&out, header.meta.num_vertices);
  AppendValue(&out, header.meta.num_edges);
  AppendValue(&out, header.meta.graph_fingerprint);
  AppendValue(&out, header.meta.num_cliques);
  AppendValue(&out, header.meta.max_lambda);
  AppendValue(&out, header.num_nodes);
  AppendValue(&out, header.levels);
  AppendValue(&out, header.num_ranked);
  AppendValue(&out, kSnapshotV2SectionCount);
  for (std::uint32_t i = 0; i < kSnapshotV2SectionCount; ++i) {
    const V2Image::Section& section = image->sections[i];
    AppendValue(&out, i + 1);               // section id
    AppendValue(&out, std::uint32_t{0});  // reserved
    AppendValue(&out, section.offset);
    AppendValue(&out, section.length);
    AppendValue(&out, SectionDigest(section.data,
                                    static_cast<std::size_t>(section.length)));
  }
  AppendValue(&out, SectionDigest(out.data(), out.size()));
  NUCLEUS_CHECK(static_cast<std::int64_t>(out.size()) ==
                kSnapshotV2HeaderBytes);
}

}  // namespace store_v2_internal

namespace {

Status WriteV2Image(const store_v2_internal::V2Image& image, std::FILE* f,
                    const std::string& path) {
  if (std::fwrite(image.header.data(), 1, image.header.size(), f) !=
      image.header.size()) {
    return Status::Internal("short write to " + path);
  }
  const unsigned char padding[8] = {0};
  for (const auto& section : image.sections) {
    const auto length = static_cast<std::size_t>(section.length);
    if (length > 0 && std::fwrite(section.data, 1, length, f) != length) {
      return Status::Internal("short write to " + path);
    }
    const auto pad = static_cast<std::size_t>((8 - section.length % 8) % 8);
    if (pad > 0 && std::fwrite(padding, 1, pad, f) != pad) {
      return Status::Internal("short write to " + path);
    }
  }
  return store_internal::FlushToDevice(f, path);
}

}  // namespace

Status SaveSnapshotV2(const SnapshotData& snapshot, const std::string& path) {
  // Streams from the plan: no whole-file buffer, so a save costs the
  // derived sections on top of the snapshot, not another copy of it.
  store_v2_internal::V2Image image;
  store_v2_internal::PlanV2Image(snapshot, &image);
  return store_internal::WriteFileAtomically(
      path, [&image](std::FILE* f, const std::string& temp_path) {
        return WriteV2Image(image, f, temp_path);
      });
}

StatusOr<SnapshotData> LoadSnapshotV2(const std::string& path) {
  // Owned mode verifies every section before the open returns, so the
  // arrays handed to FromParts are already structurally sound.
  StatusOr<std::shared_ptr<const SnapshotSource>> source =
      SnapshotSource::OpenV2(path, SnapshotMemoryMode::kHeap);
  if (!source.ok()) return source.status();
  return (*source)->ToSnapshotData();
}

StatusOr<std::uint32_t> ReadSnapshotVersion(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), file.get()) != sizeof(magic)) {
    return Status::OutOfRange(path + ": header: truncated snapshot");
  }
  if (std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) == 0) {
    return std::uint32_t{1};
  }
  if (std::memcmp(magic, kSnapshotV2Magic, sizeof(kSnapshotV2Magic)) == 0) {
    return std::uint32_t{2};
  }
  return Status::InvalidArgument(path +
                                 ": header: bad magic (not a snapshot "
                                 "file)");
}

Status UpgradeSnapshot(const std::string& in_path,
                       const std::string& out_path) {
  // LoadSnapshot dispatches on the magic, so upgrading is idempotent: a v2
  // input is validated and rewritten (fresh digests, canonical layout).
  StatusOr<SnapshotData> snapshot = LoadSnapshot(in_path);
  if (!snapshot.ok()) return snapshot.status();
  return SaveSnapshotV2(*snapshot, out_path);
}

}  // namespace nucleus
