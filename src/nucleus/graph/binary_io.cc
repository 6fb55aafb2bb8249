#include "nucleus/graph/binary_io.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "nucleus/util/file_util.h"

namespace nucleus {
namespace {

Status WriteBytes(std::FILE* f, const void* data, std::size_t size,
                  const std::string& path) {
  if (std::fwrite(data, 1, size, f) != size) {
    return Status::Internal("short write to " + path);
  }
  return Status::Ok();
}

Status ReadBytes(std::FILE* f, void* data, std::size_t size,
                 const std::string& path) {
  if (std::fread(data, 1, size, f) != size) {
    return Status::OutOfRange("truncated file " + path);
  }
  return Status::Ok();
}

Status ParseHeader(std::FILE* f, const std::string& path,
                   BinaryGraphHeader* header) {
  if (Status s = ReadBytes(f, header->magic, sizeof(header->magic), path);
      !s.ok()) {
    return s;
  }
  if (std::memcmp(header->magic, kBinaryGraphMagic,
                  sizeof(kBinaryGraphMagic)) != 0) {
    return Status::InvalidArgument("bad magic in " + path +
                                   " (not a binary graph file)");
  }
  if (Status s = ReadBytes(f, &header->version, sizeof(header->version), path);
      !s.ok()) {
    return s;
  }
  if (header->version != kBinaryGraphVersion) {
    return Status::InvalidArgument("unsupported binary graph version " +
                                   std::to_string(header->version) + " in " +
                                   path);
  }
  if (Status s = ReadBytes(f, &header->num_vertices,
                           sizeof(header->num_vertices), path);
      !s.ok()) {
    return s;
  }
  if (Status s = ReadBytes(f, &header->adj_size, sizeof(header->adj_size),
                           path);
      !s.ok()) {
    return s;
  }
  if (header->num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count in " + path);
  }
  if (header->adj_size < 0 || header->adj_size % 2 != 0) {
    return Status::InvalidArgument("invalid adjacency size in " + path);
  }
  return Status::Ok();
}

// Header bytes preceding the arrays: magic + version + |V| + |adj|.
constexpr std::int64_t kBinaryGraphHeaderBytes = 8 + 4 + 4 + 8;

}  // namespace

Status WriteBinaryGraph(const Graph& g, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::Internal("cannot create " + path);
  }
  std::FILE* f = file.get();

  const std::int32_t n = g.NumVertices();
  const std::vector<VertexId>& adj = g.AdjArray();
  const std::int64_t adj_size = static_cast<std::int64_t>(adj.size());
  if (Status s = WriteBytes(f, kBinaryGraphMagic, sizeof(kBinaryGraphMagic),
                            path);
      !s.ok()) {
    return s;
  }
  if (Status s =
          WriteBytes(f, &kBinaryGraphVersion, sizeof(kBinaryGraphVersion),
                     path);
      !s.ok()) {
    return s;
  }
  if (Status s = WriteBytes(f, &n, sizeof(n), path); !s.ok()) return s;
  if (Status s = WriteBytes(f, &adj_size, sizeof(adj_size), path); !s.ok()) {
    return s;
  }

  // Offsets are regenerated from the graph (AdjOffset is the CSR offset
  // array; the final entry is adj.size()).
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1);
  for (VertexId v = 0; v < n; ++v) offsets[v] = g.AdjOffset(v);
  offsets[n] = adj_size;
  if (Status s = WriteBytes(f, offsets.data(),
                            offsets.size() * sizeof(std::int64_t), path);
      !s.ok()) {
    return s;
  }
  if (!adj.empty()) {
    if (Status s =
            WriteBytes(f, adj.data(), adj.size() * sizeof(VertexId), path);
        !s.ok()) {
      return s;
    }
  }
  if (std::fflush(f) != 0) {
    return Status::Internal("flush failed for " + path);
  }
  return Status::Ok();
}

StatusOr<Graph> ReadBinaryGraph(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::FILE* f = file.get();

  BinaryGraphHeader header;
  if (Status s = ParseHeader(f, path, &header); !s.ok()) return s;

  // Size the whole file from the header BEFORE allocating: a corrupt
  // vertex/adjacency count can neither trigger a giant allocation nor
  // hide a truncated tail or trailing garbage behind short reads. The
  // adj_size bound comes first so the expected-size arithmetic below
  // cannot wrap for adj_size near INT64_MAX (num_vertices is int32, so
  // its term is bounded already).
  StatusOr<std::int64_t> actual = FileSize(f, path);
  if (!actual.ok()) return actual.status();
  if (header.adj_size > *actual / 4) {
    return Status::InvalidArgument(
        "size mismatch in " + path +
        " (adjacency count exceeds the file size; truncated or corrupt)");
  }
  const std::int64_t expected =
      kBinaryGraphHeaderBytes +
      (static_cast<std::int64_t>(header.num_vertices) + 1) * 8 +
      header.adj_size * 4;
  if (*actual != expected) {
    return Status::InvalidArgument(
        "size mismatch in " + path + " (header implies " +
        std::to_string(expected) + " bytes, file has " +
        std::to_string(*actual) + "; truncated or trailing data)");
  }

  std::vector<std::int64_t> offsets(
      static_cast<std::size_t>(header.num_vertices) + 1);
  if (Status s = ReadBytes(f, offsets.data(),
                           offsets.size() * sizeof(std::int64_t), path);
      !s.ok()) {
    return s;
  }
  std::vector<VertexId> adj(static_cast<std::size_t>(header.adj_size));
  if (!adj.empty()) {
    if (Status s =
            ReadBytes(f, adj.data(), adj.size() * sizeof(VertexId), path);
        !s.ok()) {
      return s;
    }
  }

  // A corrupt file surfaces as a Status instead of FromCsr's abort.
  if (Status s = ValidateCsr(offsets, adj); !s.ok()) {
    return Status::InvalidArgument(s.message() + " in " + path);
  }
  return Graph::FromCsr(std::move(offsets), std::move(adj));
}

StatusOr<BinaryGraphHeader> ReadBinaryGraphHeader(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  BinaryGraphHeader header;
  if (Status s = ParseHeader(file.get(), path, &header); !s.ok()) return s;
  return header;
}

}  // namespace nucleus
