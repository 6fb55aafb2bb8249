#include "nucleus/store/snapshot.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "nucleus/store/record_io.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/file_util.h"

namespace nucleus {
namespace {

using store_internal::ChecksummingReader;
using store_internal::Fnv1a;
using store_internal::kFnvOffset;

/// The header in parsed form (never memcpy'd as a struct: the on-disk
/// layout is packed, field by field).
struct Header {
  std::uint32_t flags = 0;
  std::int32_t family = 0;
  std::int32_t algorithm = 0;
  std::int32_t num_vertices = 0;
  std::int64_t num_edges = 0;
  std::uint64_t graph_fingerprint = 0;
  std::int64_t num_cliques = 0;
  std::int32_t max_lambda = 0;
  std::int32_t num_nodes = 0;
  std::int32_t levels = 0;
};

constexpr std::int64_t kHeaderBytes = 64;
constexpr std::int64_t kFooterBytes = 8;

/// Expected total file size from a validated header whose counts have been
/// bounded by BoundCountsByFileSize: every term is then <= actual file
/// size, so the sum cannot overflow.
std::int64_t ExpectedFileSize(const Header& h) {
  std::int64_t payload = 0;
  payload += h.num_cliques * 4;  // lambda
  payload += static_cast<std::int64_t>(h.num_nodes) * 4;  // node_lambda
  payload += static_cast<std::int64_t>(h.num_nodes) * 4;  // node_parent
  payload += h.num_cliques * 4;  // node_of_clique
  if (h.flags & kSnapshotFlagHasIndex) {
    payload += static_cast<std::int64_t>(h.num_nodes) * 4;  // depth
    payload += static_cast<std::int64_t>(h.levels) * h.num_nodes * 4;  // up
  }
  return kHeaderBytes + payload + kFooterBytes;
}

/// Rejects counts a file of `actual` bytes cannot possibly hold BEFORE any
/// size arithmetic: without this, a crafted num_cliques near 2^62 would
/// wrap the int64 multiplications in ExpectedFileSize, slip past the size
/// comparison, and reach a multi-exabyte vector::resize.
Status BoundCountsByFileSize(const Header& h, std::int64_t actual,
                             const std::string& path) {
  const std::int64_t max_entries = actual / 4;  // every array is int32
  if (h.num_cliques > max_entries || h.num_nodes > max_entries ||
      static_cast<std::int64_t>(h.levels) * h.num_nodes > max_entries) {
    return Status::InvalidArgument(
        path +
        ": header: size mismatch (header counts exceed the file size; "
        "truncated or corrupt)");
  }
  return Status::Ok();
}

Status ReadHeader(ChecksummingReader* reader, const std::string& path,
                  Header* header) {
  char magic[8];
  if (Status s = reader->Read(magic, sizeof(magic)); !s.ok()) return s;
  if (std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument(path +
                                   ": header: bad magic (not a snapshot "
                                   "file)");
  }
  std::uint32_t version = 0;
  if (Status s = reader->ReadValue(&version); !s.ok()) return s;
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(path +
                                   ": header: unsupported snapshot version " +
                                   std::to_string(version));
  }
  if (Status s = reader->ReadValue(&header->flags); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->family); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->algorithm); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->num_vertices); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->num_edges); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->graph_fingerprint); !s.ok()) {
    return s;
  }
  if (Status s = reader->ReadValue(&header->num_cliques); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->max_lambda); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->num_nodes); !s.ok()) return s;
  if (Status s = reader->ReadValue(&header->levels); !s.ok()) return s;

  if (header->flags & ~kSnapshotFlagHasIndex) {
    return Status::InvalidArgument(path + ": header: unknown snapshot flags");
  }
  if (header->family < 0 ||
      header->family > static_cast<std::int32_t>(Family::kNucleus34)) {
    return Status::InvalidArgument(path + ": header: invalid family");
  }
  if (header->algorithm < 0 ||
      header->algorithm > static_cast<std::int32_t>(Algorithm::kHypo)) {
    return Status::InvalidArgument(path + ": header: invalid algorithm");
  }
  if (header->num_vertices < 0 || header->num_edges < 0 ||
      header->num_cliques < 0 || header->max_lambda < 0 ||
      header->num_nodes < 1) {
    return Status::InvalidArgument(path + ": header: impossible counts");
  }
  const bool has_index = (header->flags & kSnapshotFlagHasIndex) != 0;
  // levels is bounded by the depth of a binary-lifted tree over int32 ids.
  if (has_index ? (header->levels < 1 || header->levels > 32)
                : header->levels != 0) {
    return Status::InvalidArgument(path + ": header: invalid index levels");
  }
  return Status::Ok();
}

SnapshotMeta MetaOf(const Header& header) {
  SnapshotMeta meta;
  meta.family = static_cast<Family>(header.family);
  meta.algorithm = static_cast<Algorithm>(header.algorithm);
  meta.num_vertices = header.num_vertices;
  meta.num_edges = header.num_edges;
  meta.graph_fingerprint = header.graph_fingerprint;
  meta.num_cliques = header.num_cliques;
  meta.max_lambda = header.max_lambda;
  return meta;
}

}  // namespace

std::uint64_t GraphFingerprint(const Graph& g) {
  std::uint64_t hash = kFnvOffset;
  const std::int64_t n = g.NumVertices();
  hash = Fnv1a(hash, &n, sizeof(n));
  for (VertexId v = 0; v < n; ++v) {
    const std::int64_t offset = g.AdjOffset(v);
    hash = Fnv1a(hash, &offset, sizeof(offset));
  }
  const std::vector<VertexId>& adj = g.AdjArray();
  if (!adj.empty()) {
    hash = Fnv1a(hash, adj.data(), adj.size() * sizeof(VertexId));
  }
  return hash;
}

SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          const DecompositionResult& result, bool with_index) {
  DecompositionResult copy;
  copy.num_cliques = result.num_cliques;
  copy.peel = result.peel;
  copy.hierarchy = result.hierarchy;
  return MakeSnapshot(g, options, std::move(copy), with_index);
}

SnapshotData MakeSnapshot(const Graph& g, const DecomposeOptions& options,
                          DecompositionResult&& result, bool with_index) {
  NUCLEUS_CHECK_MSG(result.hierarchy.NumNodes() >= 1,
                    "snapshot requires a built hierarchy (build_tree)");
  NUCLEUS_CHECK(result.hierarchy.NumCliques() == result.num_cliques);
  SnapshotData snapshot;
  snapshot.meta.family = options.family;
  snapshot.meta.algorithm = options.algorithm;
  snapshot.meta.num_vertices = g.NumVertices();
  snapshot.meta.num_edges = g.NumEdges();
  snapshot.meta.graph_fingerprint = GraphFingerprint(g);
  snapshot.meta.num_cliques = result.num_cliques;
  snapshot.meta.max_lambda = result.peel.max_lambda;
  snapshot.peel = std::move(result.peel);
  snapshot.hierarchy = std::move(result.hierarchy);
  snapshot.has_index = with_index;
  if (with_index) {
    snapshot.index_tables = HierarchyIndex(snapshot.hierarchy).Tables();
  }
  return snapshot;
}

StatusOr<SnapshotData> LoadSnapshot(const std::string& path) {
  // Version dispatch on the magic: v2 files load eagerly through the
  // sectioned reader into the same SnapshotData, so chains, updates and
  // tooling are format-transparent. v1 files are read below, only so they
  // can be upgraded.
  StatusOr<std::uint32_t> version = ReadSnapshotVersion(path);
  if (!version.ok()) return version.status();
  if (*version == 2) return LoadSnapshotV2(path);
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  ChecksummingReader reader(file.get(), path);

  Header header;
  if (Status s = ReadHeader(&reader, path, &header); !s.ok()) return s;

  // Size the whole file from the header BEFORE any allocation: a corrupt
  // count can neither over-allocate nor hide trailing garbage.
  StatusOr<std::int64_t> actual = FileSize(file.get(), path);
  if (!actual.ok()) return actual.status();
  if (Status s = BoundCountsByFileSize(header, *actual, path); !s.ok()) {
    return s;
  }
  if (*actual != ExpectedFileSize(header)) {
    return Status::InvalidArgument(
        path + ": header: size mismatch (expected " +
        std::to_string(ExpectedFileSize(header)) + " bytes, file has " +
        std::to_string(*actual) + "; truncated or trailing data)");
  }

  SnapshotData snapshot;
  snapshot.meta = MetaOf(header);
  snapshot.has_index = (header.flags & kSnapshotFlagHasIndex) != 0;

  std::vector<Lambda> node_lambda;
  std::vector<std::int32_t> node_parent;
  std::vector<std::int32_t> node_of_clique;
  reader.BeginSection("lambda");
  if (Status s = reader.ReadArray(header.num_cliques, &snapshot.peel.lambda);
      !s.ok()) {
    return s;
  }
  reader.BeginSection("node_lambda");
  if (Status s = reader.ReadArray(header.num_nodes, &node_lambda); !s.ok()) {
    return s;
  }
  reader.BeginSection("node_parent");
  if (Status s = reader.ReadArray(header.num_nodes, &node_parent); !s.ok()) {
    return s;
  }
  reader.BeginSection("node_of_clique");
  if (Status s = reader.ReadArray(header.num_cliques, &node_of_clique);
      !s.ok()) {
    return s;
  }
  if (snapshot.has_index) {
    reader.BeginSection("depth");
    if (Status s =
            reader.ReadArray(header.num_nodes, &snapshot.index_tables.depth);
        !s.ok()) {
      return s;
    }
    reader.BeginSection("up");
    if (Status s = reader.ReadArray(
            static_cast<std::int64_t>(header.levels) * header.num_nodes,
            &snapshot.index_tables.up);
        !s.ok()) {
      return s;
    }
    snapshot.index_tables.levels = header.levels;
  }

  const std::uint64_t computed = reader.checksum();
  std::uint64_t stored = 0;
  if (std::fread(&stored, 1, sizeof(stored), file.get()) != sizeof(stored)) {
    return Status::OutOfRange(path + ": footer: truncated snapshot");
  }
  if (stored != computed) {
    return Status::InvalidArgument(
        path + ": footer: checksum mismatch (corrupt snapshot)");
  }

  // v1 arrays obey the same structural rulebook as their v2 sections.
  store_v2_internal::V2Header v2_header;
  v2_header.meta = snapshot.meta;
  v2_header.num_nodes = header.num_nodes;
  v2_header.levels = header.levels;
  if (Status s = store_v2_internal::ValidateTreeSections(
          path, v2_header, node_lambda.data(), node_parent.data());
      !s.ok()) {
    return s;
  }
  if (Status s = store_v2_internal::ValidateAssignSections(
          path, v2_header, snapshot.peel.lambda.data(), node_lambda.data(),
          node_of_clique.data());
      !s.ok()) {
    return s;
  }
  if (snapshot.has_index) {
    if (Status s = store_v2_internal::ValidateIndexSections(
            path, v2_header, node_parent.data(),
            snapshot.index_tables.depth.data(),
            snapshot.index_tables.up.data());
        !s.ok()) {
      return s;
    }
  }

  // v1 files predate the canonical node numbering, so the validated tree
  // goes back through FromSkeleton (a skeleton with no equal-lambda links
  // contracts to itself) and comes out canonically renumbered; jump tables
  // the file carried describe the old ids and are rebuilt.
  snapshot.peel.max_lambda = header.max_lambda;
  SkeletonBuild build;
  for (std::int32_t i = 0; i < header.num_nodes; ++i) {
    build.skeleton.AddNode(node_lambda[i]);
    if (i > 0) build.skeleton.SetParent(i, node_parent[i]);
  }
  build.comp = std::move(node_of_clique);
  build.root_id = 0;
  snapshot.hierarchy =
      NucleusHierarchy::FromSkeleton(build, header.num_cliques);
  if (snapshot.has_index) {
    snapshot.index_tables = HierarchyIndex(snapshot.hierarchy).Tables();
  }
  return snapshot;
}

StatusOr<SnapshotMeta> ReadSnapshotMeta(const std::string& path) {
  StatusOr<std::uint32_t> version = ReadSnapshotVersion(path);
  if (!version.ok()) return version.status();
  if (*version == 2) {
    // Mapping validates the header + directory in O(header).
    StatusOr<std::shared_ptr<const SnapshotSource>> source =
        SnapshotSource::OpenV2(path, SnapshotMemoryMode::kMmap);
    if (!source.ok()) return source.status();
    return (*source)->meta();
  }
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  ChecksummingReader reader(file.get(), path);
  Header header;
  if (Status s = ReadHeader(&reader, path, &header); !s.ok()) return s;
  return MetaOf(header);
}

}  // namespace nucleus
