// Append-only spill file of int32 pairs with block-buffered scans and a
// two-pass external counting sort — the disk-side ADJ list of the
// semi-external hierarchy construction, which BuildSpilledSkeleton runs.
//
// The paper's FND (Alg. 8) keeps its ADJ list of inter-sub-nucleus
// connections in memory; in the external-memory model that list (up to
// O(|E|) pairs) must spill to disk. BuildHierarchy (Alg. 9) only needs the
// pairs grouped by bin and visited in decreasing bin order, which an
// external counting sort delivers with one counting scan and one scatter
// scan, using O(num_bins) memory for offsets plus a small per-bin write
// buffer.
#ifndef NUCLEUS_EM_PAIR_FILE_H_
#define NUCLEUS_EM_PAIR_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nucleus/core/types.h"
#include "nucleus/em/adjacency_file.h"
#include "nucleus/util/status.h"

namespace nucleus {

class PairFile {
 public:
  /// Creates (or truncates) a pair file at `path` for appending.
  static StatusOr<PairFile> Create(const std::string& path,
                                   std::size_t buffer_pairs = 1 << 16);

  PairFile(PairFile&&) = default;
  PairFile& operator=(PairFile&&) = default;

  /// Buffered append of one (a, b) pair.
  Status Append(std::int32_t a, std::int32_t b);

  /// Flushes the append buffer to disk. Must be called before Scan /
  /// ScanRange / SortByBin observe all appended pairs.
  Status Flush();

  std::int64_t NumPairs() const { return num_pairs_; }

  /// Sequential scan of all pairs in append order.
  Status Scan(const std::function<void(std::int32_t, std::int32_t)>& f);

  /// Sequential scan of pairs [begin, end) (indices in append order for an
  /// unsorted file; bin-contiguous positions after SortByBin).
  Status ScanRange(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int32_t, std::int32_t)>& f);

  /// External counting sort: writes a new pair file at `out_path` where
  /// pairs are grouped by key(a, b) in increasing key order, and returns it
  /// together with `bin_begin` (size num_bins + 1; bin k occupies pair
  /// positions [bin_begin[k], bin_begin[k+1]) of the new file). Keys must
  /// lie in [0, num_bins). Two passes over this file, one scatter write.
  StatusOr<PairFile> SortByBin(
      const std::function<std::int32_t(std::int32_t, std::int32_t)>& key,
      std::int32_t num_bins, const std::string& out_path,
      std::vector<std::int64_t>* bin_begin);

  const EmIoStats& stats() const { return stats_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  PairFile() = default;

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  std::int64_t num_pairs_ = 0;
  std::size_t buffer_pairs_ = 0;
  std::vector<std::int32_t> write_buffer_;  // flattened (a, b) pairs
  EmIoStats stats_;
};

/// Receives one K_s as the array of its K_r member ids.
using KsSink = std::function<void(std::span<const std::int32_t>)>;

/// The semi-external hierarchy assembly over final lambdas. `scan` feeds
/// every K_s once: members at its minimum lambda are united (the components
/// are the maximal sub-nuclei), the others spill as (member, min) ADJ
/// pairs, which are sorted by bin on disk and consumed by Alg. 9. Spill
/// files in `temp_dir` are removed on every return.
Status BuildSpilledSkeleton(const PeelResult& peel, const std::string& temp_dir,
                            const std::function<Status(const KsSink&)>& scan,
                            SkeletonBuild* build, std::int64_t* num_adj,
                            EmIoStats* io);

}  // namespace nucleus

#endif  // NUCLEUS_EM_PAIR_FILE_H_
