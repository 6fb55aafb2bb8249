// Plain-text graph IO: whitespace-separated edge lists (the SNAP format the
// paper's datasets ship in) and MatrixMarket coordinate files (UF Sparse
// Matrix Collection format, used by uk-2005).
//
// Cost contract: the readers stream their input through one buffer of
// kEdgeListChunkBytes (grown only for a single longer line). Each batch it
// takes is cut at its last newline and split at newlines into L slices, L
// being the number of hardware lanes capped by the number of chunks the
// input has, so an input of one chunk or less parses on the calling thread
// and starts no thread. The slices parse in parallel on a ThreadPool, each
// into its own buffer of canonical pairs, and the buffers append to
// GraphBuilder in slice order. Beyond the buffer and one batch's pairs,
// both released before GraphBuilder::Build, memory is GraphBuilder's (one
// 8-byte pair per edge line) and the resulting Graph; there is no per-line
// allocation, no whole-file buffer and no mapping. Errors are those of a
// serial read: the first bad line in file order is reported, with its line
// number counted over the whole input. A read error is reported once its
// batch is read, ahead of a bad line earlier in that batch. WriteEdgeList
// formats into one buffer of kEdgeListChunkBytes.
#ifndef NUCLEUS_GRAPH_EDGE_LIST_IO_H_
#define NUCLEUS_GRAPH_EDGE_LIST_IO_H_

#include <cstddef>
#include <string>

#include "nucleus/graph/graph.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// Bytes per read (and per write) of the edge-list stream.
inline constexpr std::size_t kEdgeListChunkBytes = std::size_t{1} << 20;

/// Reads a whitespace-separated edge list. Lines starting with '#' or '%'
/// are comments. Directions are ignored, self-loops and duplicates dropped
/// (paper Section 5: "We ignore the directions for directed graphs").
/// Vertex ids must be non-negative integers; the graph gets
/// max_id + 1 vertices. Tokens after the second id are ignored. Errors: a
/// malformed line is InvalidArgument naming its line number and text, an id
/// over 2^31-2 is OutOfRange naming the line, a missing file is NotFound,
/// and a read error (a directory, a failing disk) is Internal naming the
/// path.
StatusOr<Graph> ReadEdgeList(const std::string& path);

/// Parses an edge list from an in-memory string (same format as above).
StatusOr<Graph> ParseEdgeList(const std::string& text);

/// Writes one "u v" line per undirected edge (u < v).
Status WriteEdgeList(const Graph& g, const std::string& path);

/// Reads a MatrixMarket coordinate file as an undirected graph. Supports
/// "pattern", "integer" and "real" fields; values are ignored. 1-based
/// indices per the format; index 0 is InvalidArgument naming its line
/// (counted from the header, line 1). Other errors as for ReadEdgeList.
StatusOr<Graph> ReadMatrixMarket(const std::string& path);

}  // namespace nucleus

#endif  // NUCLEUS_GRAPH_EDGE_LIST_IO_H_
