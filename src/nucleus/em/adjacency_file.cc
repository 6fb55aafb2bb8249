#include "nucleus/em/adjacency_file.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "nucleus/graph/binary_io.h"

namespace nucleus {

StatusOr<AdjacencyFile> AdjacencyFile::Open(const std::string& path,
                                            std::size_t block_bytes) {
  auto header = ReadBinaryGraphHeader(path);
  if (!header.ok()) return header.status();

  AdjacencyFile af;
  af.path_ = path;
  af.file_.reset(std::fopen(path.c_str(), "rb"));
  if (af.file_ == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  af.adj_size_ = header->adj_size;

  // Header is magic(8) + version(4) + |V|(4) + adj_size(8) = 24 bytes,
  // followed by the offsets array, then the adjacency payload.
  const std::size_t num_offsets =
      static_cast<std::size_t>(header->num_vertices) + 1;
  if (std::fseek(af.file_.get(), 24, SEEK_SET) != 0) {
    return Status::Internal("seek failed in " + path);
  }
  af.offsets_.resize(num_offsets);
  if (std::fread(af.offsets_.data(), sizeof(std::int64_t), num_offsets,
                 af.file_.get()) != num_offsets) {
    return Status::OutOfRange("truncated offsets in " + path);
  }
  af.stats_.bytes_read +=
      static_cast<std::int64_t>(num_offsets * sizeof(std::int64_t));
  if (af.offsets_.front() != 0 || af.offsets_.back() != af.adj_size_) {
    return Status::InvalidArgument("corrupt offsets in " + path);
  }
  for (std::size_t v = 0; v + 1 < af.offsets_.size(); ++v) {
    if (af.offsets_[v] > af.offsets_[v + 1]) {
      return Status::InvalidArgument("non-monotone offsets in " + path);
    }
  }
  af.payload_begin_ = 24 + static_cast<std::int64_t>(num_offsets *
                                                     sizeof(std::int64_t));
  af.block_ints_ = std::max<std::size_t>(block_bytes / sizeof(VertexId), 16);
  af.buffer_.reserve(af.block_ints_);
  return af;
}

Status AdjacencyFile::ScanVertices(
    const std::function<void(VertexId, std::span<const VertexId>)>& f) {
  std::FILE* file = file_.get();
  if (std::fseek(file, static_cast<long>(payload_begin_), SEEK_SET) != 0) {
    return Status::Internal("seek failed in " + path_);
  }
  ++stats_.scans;

  std::int64_t consumed = 0;   // adjacency ints consumed so far
  std::size_t buf_pos = 0;     // read cursor inside buffer_
  buffer_.clear();

  // Refills buffer_ so that at least min(want, block) ints are available
  // from buf_pos; returns the number of ints available.
  auto available = [&]() { return buffer_.size() - buf_pos; };
  auto refill = [&]() -> Status {
    // Shift the unconsumed tail to the front, then top up from disk.
    if (buf_pos > 0) {
      buffer_.erase(buffer_.begin(), buffer_.begin() + buf_pos);
      buf_pos = 0;
    }
    const std::size_t old_size = buffer_.size();
    const std::int64_t remaining_ints =
        adj_size_ - consumed - static_cast<std::int64_t>(old_size);
    const std::size_t want = std::min<std::int64_t>(
        static_cast<std::int64_t>(block_ints_ - old_size), remaining_ints);
    if (want == 0) return Status::Ok();
    buffer_.resize(old_size + want);
    if (std::fread(buffer_.data() + old_size, sizeof(VertexId), want, file) !=
        want) {
      return Status::OutOfRange("truncated adjacency in " + path_);
    }
    stats_.bytes_read += static_cast<std::int64_t>(want * sizeof(VertexId));
    return Status::Ok();
  };

  // The lists come from disk, so they are checked before f sees them: ids
  // in [0, n), strictly increasing, no self-loop, and (over the whole scan)
  // as many entries u < v as u > v, which a symmetric graph has.
  const VertexId n = NumVertices();
  std::int64_t forward = 0;
  std::int64_t backward = 0;
  auto check = [&](VertexId v, std::span<const VertexId> list) -> Status {
    VertexId prev = -1;
    for (VertexId w : list) {
      if (w < 0 || w >= n || w <= prev || w == v) {
        const std::string fault =
            w < 0 || w >= n ? "neighbour " + std::to_string(w) +
                                  " outside [0, " + std::to_string(n) + ")"
            : w <= prev     ? "neighbour list not strictly increasing"
                            : "self-loop";
        return Status::InvalidArgument("corrupt adjacency in " + path_ +
                                       ": vertex " + std::to_string(v) +
                                       ": " + fault);
      }
      ++(w > v ? forward : backward);
      prev = w;
    }
    return Status::Ok();
  };

  for (VertexId v = 0; v < n; ++v) {
    const std::size_t deg = static_cast<std::size_t>(Degree(v));
    if (deg == 0) {
      f(v, {});
      continue;
    }
    if (available() < deg) {
      if (Status s = refill(); !s.ok()) return s;
    }
    if (available() >= deg) {
      const std::span<const VertexId> list(buffer_.data() + buf_pos, deg);
      if (Status s = check(v, list); !s.ok()) return s;
      f(v, list);
      buf_pos += deg;
    } else {
      // List longer than the block: assemble it in the scratch buffer
      // (semi-external model permits O(max-degree) scratch).
      scratch_.assign(buffer_.begin() + buf_pos, buffer_.end());
      const std::size_t have = scratch_.size();
      scratch_.resize(deg);
      const std::size_t need = deg - have;
      if (std::fread(scratch_.data() + have, sizeof(VertexId), need, file) !=
          need) {
        return Status::OutOfRange("truncated adjacency in " + path_);
      }
      stats_.bytes_read += static_cast<std::int64_t>(need * sizeof(VertexId));
      buffer_.clear();
      buf_pos = 0;
      if (Status s = check(v, scratch_); !s.ok()) return s;
      f(v, scratch_);
    }
    consumed += static_cast<std::int64_t>(deg);
  }
  if (forward != backward) {
    return Status::InvalidArgument(
        "corrupt adjacency in " + path_ + ": asymmetric, " +
        std::to_string(forward) + " entries u < v against " +
        std::to_string(backward) + " entries u > v");
  }
  return Status::Ok();
}

Status AdjacencyFile::ScanEdges(
    const std::function<void(VertexId, VertexId)>& f) {
  return ScanVertices([&f](VertexId u, std::span<const VertexId> neighbors) {
    for (VertexId v : neighbors) {
      if (u < v) f(u, v);
    }
  });
}

}  // namespace nucleus
