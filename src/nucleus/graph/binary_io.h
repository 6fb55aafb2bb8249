// Binary CSR graph serialization.
//
// The on-disk format is the graph's CSR arrays verbatim behind a small
// header, so a load is two bulk reads with no parsing — the format the
// external-memory module (src/nucleus/em) scans directly from disk:
//
//   bytes 0..7    magic "NUCGRAPH"
//   bytes 8..11   format version (uint32, little-endian, currently 1)
//   bytes 12..15  |V| (int32)
//   bytes 16..23  |adj| = 2|E| (int64)
//   then          offsets array: (|V| + 1) x int64
//   then          adjacency array: |adj| x int32
//
// Integers are stored in the host's native byte order; the format is a
// processing artifact (like a RocksDB SST), not an interchange format.
#ifndef NUCLEUS_GRAPH_BINARY_IO_H_
#define NUCLEUS_GRAPH_BINARY_IO_H_

#include <cstdint>
#include <string>

#include "nucleus/graph/graph.h"
#include "nucleus/util/status.h"

namespace nucleus {

inline constexpr char kBinaryGraphMagic[8] = {'N', 'U', 'C', 'G',
                                              'R', 'A', 'P', 'H'};
inline constexpr std::uint32_t kBinaryGraphVersion = 1;

/// Fixed-size header preceding the CSR arrays.
struct BinaryGraphHeader {
  char magic[8];
  std::uint32_t version = 0;
  std::int32_t num_vertices = 0;
  std::int64_t adj_size = 0;  // 2 * |E|
};

/// Writes `g` to `path` in the binary CSR format, overwriting any existing
/// file. Fails with kInternal if the file cannot be created or written.
Status WriteBinaryGraph(const Graph& g, const std::string& path);

/// Loads a binary CSR file written by WriteBinaryGraph. Validates the
/// header (magic, version, non-negative sizes) and then the CSR with
/// ValidateCsr, so a corrupted file (non-monotone offsets, out-of-range
/// ids, asymmetric lists) is InvalidArgument naming the path instead of
/// Graph::FromCsr's abort.
StatusOr<Graph> ReadBinaryGraph(const std::string& path);

/// Reads and validates only the header — cheap metadata probe used by the
/// external-memory scanners to size their in-memory arrays.
StatusOr<BinaryGraphHeader> ReadBinaryGraphHeader(const std::string& path);

}  // namespace nucleus

#endif  // NUCLEUS_GRAPH_BINARY_IO_H_
