// Disk-resident adjacency scanner: the edge substrate of the semi-external
// algorithms (paper Section 3.1 discusses the external-memory k-core works
// of Cheng et al., Khaouid et al. and Wen et al., and points out that they
// compute only the lambda values — the traversal that finds connected
// k-cores and the hierarchy "is at least as expensive as finding lambda
// values" in that model; src/nucleus/em exists to close that gap).
//
// Semi-external model: O(|V|) state in memory (the CSR offsets live here),
// edges stay on disk in the binary CSR format (graph/binary_io.h) and are
// only touched through block-buffered sequential scans. Every scan's IO is
// accounted in EmIoStats so benches can report passes and bytes like the EM
// literature does.
#ifndef NUCLEUS_EM_ADJACENCY_FILE_H_
#define NUCLEUS_EM_ADJACENCY_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nucleus/util/common.h"
#include "nucleus/util/status.h"

namespace nucleus {

/// IO accounting for the external-memory algorithms.
struct EmIoStats {
  std::int64_t scans = 0;          // full sequential passes over edge data
  std::int64_t bytes_read = 0;     // from any em file
  std::int64_t bytes_written = 0;  // to any em file (spills)

  void Add(const EmIoStats& other) {
    scans += other.scans;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
  }
};

class AdjacencyFile {
 public:
  /// Opens a binary CSR graph file (graph/binary_io.h format), loading the
  /// header and the offsets array (the O(|V|) in-memory part) and leaving
  /// the adjacency array on disk. `block_bytes` sizes the scan buffer.
  static StatusOr<AdjacencyFile> Open(const std::string& path,
                                      std::size_t block_bytes = 1 << 20);

  AdjacencyFile(AdjacencyFile&&) = default;
  AdjacencyFile& operator=(AdjacencyFile&&) = default;

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.size()) - 1;
  }
  std::int64_t NumEdges() const { return adj_size_ / 2; }
  std::int64_t Degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// One sequential pass over the adjacency array. Calls
  /// f(v, neighbors-of-v) for every vertex in increasing id order
  /// (isolated vertices included, with an empty span). Counts as one scan.
  /// A list with an id outside [0, n), out of order or naming v itself
  /// stops the scan before f sees it, and a scan whose entries u < v and
  /// u > v differ in number fails at its end: both return InvalidArgument.
  Status ScanVertices(
      const std::function<void(VertexId, std::span<const VertexId>)>& f);

  /// One sequential pass reporting each undirected edge once as (u, v) with
  /// u < v. Built on ScanVertices; counts as one scan.
  Status ScanEdges(const std::function<void(VertexId, VertexId)>& f);

  const EmIoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EmIoStats(); }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  AdjacencyFile() = default;

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  std::vector<std::int64_t> offsets_;  // in-memory: |V| + 1 entries
  std::int64_t adj_size_ = 0;
  std::int64_t payload_begin_ = 0;  // file offset of the adjacency array
  std::size_t block_ints_ = 0;
  std::vector<VertexId> buffer_;   // scan block
  std::vector<VertexId> scratch_;  // assembles lists that straddle blocks
  EmIoStats stats_;
};

}  // namespace nucleus

#endif  // NUCLEUS_EM_ADJACENCY_FILE_H_
