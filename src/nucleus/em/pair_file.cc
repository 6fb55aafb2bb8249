#include "nucleus/em/pair_file.h"

#include <algorithm>

#include "nucleus/core/fast_nucleus.h"
#include "nucleus/dsf/disjoint_set.h"
#include "nucleus/util/scratch.h"

namespace nucleus {

StatusOr<PairFile> PairFile::Create(const std::string& path,
                                    std::size_t buffer_pairs) {
  PairFile pf;
  pf.path_ = path;
  pf.file_.reset(std::fopen(path.c_str(), "w+b"));
  if (pf.file_ == nullptr) {
    return Status::Internal("cannot create " + path);
  }
  pf.buffer_pairs_ = std::max<std::size_t>(buffer_pairs, 1);
  pf.write_buffer_.reserve(2 * pf.buffer_pairs_);
  return pf;
}

Status PairFile::Append(std::int32_t a, std::int32_t b) {
  write_buffer_.push_back(a);
  write_buffer_.push_back(b);
  ++num_pairs_;
  if (write_buffer_.size() >= 2 * buffer_pairs_) return Flush();
  return Status::Ok();
}

Status PairFile::Flush() {
  if (write_buffer_.empty()) return Status::Ok();
  // Appends always happen at the end; scans may have moved the cursor.
  if (std::fseek(file_.get(), 0, SEEK_END) != 0) {
    return Status::Internal("seek failed in " + path_);
  }
  if (std::fwrite(write_buffer_.data(), sizeof(std::int32_t),
                  write_buffer_.size(),
                  file_.get()) != write_buffer_.size()) {
    return Status::Internal("short write to " + path_);
  }
  stats_.bytes_written +=
      static_cast<std::int64_t>(write_buffer_.size() * sizeof(std::int32_t));
  write_buffer_.clear();
  return Status::Ok();
}

Status PairFile::Scan(
    const std::function<void(std::int32_t, std::int32_t)>& f) {
  return ScanRange(0, num_pairs_, f);
}

Status PairFile::ScanRange(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int32_t, std::int32_t)>& f) {
  NUCLEUS_CHECK(begin >= 0 && begin <= end && end <= num_pairs_);
  NUCLEUS_CHECK_MSG(write_buffer_.empty(), "Flush() before scanning");
  if (begin == end) return Status::Ok();
  if (std::fseek(file_.get(),
                 static_cast<long>(begin * 2 * sizeof(std::int32_t)),
                 SEEK_SET) != 0) {
    return Status::Internal("seek failed in " + path_);
  }
  ++stats_.scans;
  constexpr std::size_t kBlockPairs = 1 << 15;
  std::vector<std::int32_t> block(2 * kBlockPairs);
  std::int64_t remaining = end - begin;
  while (remaining > 0) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::int64_t>(remaining, kBlockPairs));
    if (std::fread(block.data(), sizeof(std::int32_t), 2 * take,
                   file_.get()) != 2 * take) {
      return Status::OutOfRange("truncated pair file " + path_);
    }
    stats_.bytes_read +=
        static_cast<std::int64_t>(2 * take * sizeof(std::int32_t));
    for (std::size_t i = 0; i < take; ++i) {
      f(block[2 * i], block[2 * i + 1]);
    }
    remaining -= static_cast<std::int64_t>(take);
  }
  return Status::Ok();
}

StatusOr<PairFile> PairFile::SortByBin(
    const std::function<std::int32_t(std::int32_t, std::int32_t)>& key,
    std::int32_t num_bins, const std::string& out_path,
    std::vector<std::int64_t>* bin_begin) {
  NUCLEUS_CHECK(num_bins >= 1);
  if (Status s = Flush(); !s.ok()) return s;

  // Pass 1: count pairs per bin.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_bins), 0);
  Status count_status = Status::Ok();
  if (Status s = Scan([&](std::int32_t a, std::int32_t b) {
        const std::int32_t k = key(a, b);
        if (k < 0 || k >= num_bins) {
          count_status = Status::OutOfRange("pair key out of bin range");
          return;
        }
        ++counts[static_cast<std::size_t>(k)];
      });
      !s.ok()) {
    return s;
  }
  if (!count_status.ok()) return count_status;

  bin_begin->assign(static_cast<std::size_t>(num_bins) + 1, 0);
  for (std::int32_t k = 0; k < num_bins; ++k) {
    (*bin_begin)[k + 1] = (*bin_begin)[k] + counts[k];
  }

  // Pass 2: scatter into the output file through small per-bin buffers so
  // writes stay mostly sequential within each bin (O(num_bins) memory).
  auto out = PairFile::Create(out_path);
  if (!out.ok()) return out.status();
  std::FILE* out_file = out->file_.get();

  constexpr std::size_t kBinBufferPairs = 256;
  std::vector<std::vector<std::int32_t>> bin_buffers(
      static_cast<std::size_t>(num_bins));
  std::vector<std::int64_t> fill(bin_begin->begin(), bin_begin->end() - 1);

  Status scatter_status = Status::Ok();
  auto flush_bin = [&](std::int32_t k) {
    std::vector<std::int32_t>& buf = bin_buffers[k];
    if (buf.empty()) return;
    const std::int64_t pos = fill[k] * 2 * sizeof(std::int32_t);
    if (std::fseek(out_file, static_cast<long>(pos), SEEK_SET) != 0 ||
        std::fwrite(buf.data(), sizeof(std::int32_t), buf.size(), out_file) !=
            buf.size()) {
      scatter_status = Status::Internal("scatter write failed to " + out_path);
      return;
    }
    out->stats_.bytes_written +=
        static_cast<std::int64_t>(buf.size() * sizeof(std::int32_t));
    fill[k] += static_cast<std::int64_t>(buf.size() / 2);
    buf.clear();
  };

  if (Status s = Scan([&](std::int32_t a, std::int32_t b) {
        if (!scatter_status.ok()) return;
        const std::int32_t k = key(a, b);
        std::vector<std::int32_t>& buf = bin_buffers[k];
        buf.push_back(a);
        buf.push_back(b);
        if (buf.size() >= 2 * kBinBufferPairs) flush_bin(k);
      });
      !s.ok()) {
    return s;
  }
  if (!scatter_status.ok()) return scatter_status;
  for (std::int32_t k = 0; k < num_bins; ++k) {
    flush_bin(k);
    if (!scatter_status.ok()) return scatter_status;
  }
  out->num_pairs_ = num_pairs_;
  if (std::fflush(out_file) != 0) {
    return Status::Internal("flush failed for " + out_path);
  }
  return out;
}

Status BuildSpilledSkeleton(const PeelResult& peel, const std::string& temp_dir,
                            const std::function<Status(const KsSink&)>& scan,
                            SkeletonBuild* build, std::int64_t* num_adj,
                            EmIoStats* io) {
  const std::vector<Lambda>& lambda = peel.lambda;
  const std::int64_t n = static_cast<std::int64_t>(lambda.size());
  const std::string spill_path = UniqueScratchPath(temp_dir, "em_adj", ".pairs");
  const std::string sorted_path =
      UniqueScratchPath(temp_dir, "em_adj_sorted", ".pairs");
  // Declared before the PairFiles so the scratch files are closed before
  // they are removed, on success and on every early-error return.
  ScratchFileRemover spill_cleanup(spill_path);
  ScratchFileRemover sorted_cleanup(sorted_path);
  auto spill_or = PairFile::Create(spill_path);
  if (!spill_or.ok()) return spill_or.status();
  PairFile spill = std::move(*spill_or);

  DisjointSet sets(n);
  Status append_status = Status::Ok();
  Status scan_status = scan([&](std::span<const std::int32_t> members) {
    if (!append_status.ok()) return;
    std::int32_t min_member = members[0];
    for (std::int32_t x : members) {
      if (lambda[x] < lambda[min_member]) min_member = x;
    }
    for (std::int32_t x : members) {
      if (lambda[x] == lambda[min_member]) {
        sets.Union(x, min_member);
      } else {
        append_status = spill.Append(x, min_member);
        if (!append_status.ok()) return;
      }
    }
  });
  if (!scan_status.ok()) return scan_status;
  if (!append_status.ok()) return append_status;
  if (Status s = spill.Flush(); !s.ok()) return s;
  *num_adj = spill.NumPairs();

  // One skeleton node per component, numbered by first member; comp maps
  // every K_r to its node, so the skeleton build is total.
  build->comp.assign(n, kInvalidId);
  std::vector<std::int32_t> node_of_root(n, kInvalidId);
  for (std::int32_t x = 0; x < n; ++x) {
    const std::int32_t r = sets.Find(x);
    if (node_of_root[r] == kInvalidId) {
      node_of_root[r] = build->skeleton.AddNode(lambda[x]);
    }
    build->comp[x] = node_of_root[r];
  }

  std::vector<std::int64_t> bin_begin;
  auto sorted_or = spill.SortByBin(
      [&lambda](std::int32_t /*hi*/, std::int32_t lo) { return lambda[lo]; },
      peel.max_lambda + 1, sorted_path, &bin_begin);
  if (!sorted_or.ok()) return sorted_or.status();
  PairFile sorted = std::move(*sorted_or);

  Status consumed = internal::ConsumeBins(
      peel.max_lambda, &build->skeleton, [&](Lambda level, auto&& visit) {
        return sorted.ScanRange(
            bin_begin[level], bin_begin[level + 1],
            [&](std::int32_t hi, std::int32_t lo) {
              visit(build->comp[hi], build->comp[lo]);
            });
      });
  if (!consumed.ok()) return consumed;
  build->AddRoot();

  io->Add(spill.stats());
  io->Add(sorted.stats());
  return Status::Ok();
}

}  // namespace nucleus
