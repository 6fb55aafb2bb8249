#include "nucleus/graph/edge_list_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nucleus/graph/graph_builder.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/util/file_util.h"

namespace nucleus {
namespace {

constexpr std::int64_t kMaxVertex = 2147483646;

// The whitespace set of std::isspace in the "C" locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Parses a non-negative integer from the front of `sv`, advancing it past
// the number and any following whitespace. Returns false on malformed input.
bool ParseId(std::string_view* sv, std::int64_t* out) {
  std::size_t i = 0;
  while (i < sv->size() && IsSpace((*sv)[i])) ++i;
  sv->remove_prefix(i);
  if (sv->empty()) return false;
  const char* begin = sv->data();
  const char* end = sv->data() + sv->size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || *out < 0) return false;
  sv->remove_prefix(static_cast<std::size_t>(ptr - begin));
  return true;
}

bool IsBlankOrComment(std::string_view line) {
  for (char c : line) {
    if (IsSpace(c)) continue;
    return c == '#' || c == '%';
  }
  return true;
}

Status ReadError(const std::string& path) {
  return Status::Internal("read error on '" + path +
                          "': " + std::strerror(errno));
}

// Byte source over an open file. A read error, including reading a
// directory, fails with the path instead of ending the input early.
auto FileReader(std::FILE* f, const std::string& path) {
  return [f, &path](char* dst, std::size_t cap) -> StatusOr<std::size_t> {
    const std::size_t got = std::fread(dst, 1, cap, f);
    if (got < cap && std::ferror(f)) return ReadError(path);
    return got;
  };
}

// Lanes for an input of `bytes` (negative: unknown): every hardware lane,
// but no more than the input has chunks, so an input of one chunk or less
// parses on the calling thread alone.
int LanesFor(std::int64_t bytes) {
  const int hardware = ParallelConfig::Auto().ResolvedThreads();
  if (bytes < 0) return hardware;
  const std::int64_t chunk = static_cast<std::int64_t>(kEdgeListChunkBytes);
  const std::int64_t chunks = bytes / chunk + (bytes % chunk != 0);
  return static_cast<int>(std::clamp<std::int64_t>(chunks, 1, hardware));
}

enum class BadLine { kNone, kMalformed, kZeroIndex, kOutOfRange };

// What one lane made of its slice of a batch: the slice's edges, already in
// GraphBuilder's canonical form, its line count and its first bad line.
struct Slice {
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::int64_t lines = 0;
  BadLine bad = BadLine::kNone;
  std::string_view bad_text;  // the bad line, into the batch buffer

  // Parses the whole lines of `text` (the last may lack its '\n'). Lines
  // are numbered from 1 within the slice; parsing stops at the first bad
  // line, which `lines` then numbers.
  void Parse(std::string_view text, bool one_based) {
    edges.clear();
    lines = 0;
    bad = BadLine::kNone;
    while (!text.empty()) {
      const std::size_t nl = text.find('\n');
      const std::string_view line = text.substr(0, nl);
      text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
      ++lines;
      if (IsBlankOrComment(line)) continue;
      std::string_view rest = line;
      std::int64_t u = 0;
      std::int64_t v = 0;
      if (!ParseId(&rest, &u) || !ParseId(&rest, &v)) {
        bad = BadLine::kMalformed;
      } else if (one_based && (u == 0 || v == 0)) {
        bad = BadLine::kZeroIndex;
      } else {
        if (one_based) {
          --u;
          --v;
        }
        if (u > kMaxVertex || v > kMaxVertex) bad = BadLine::kOutOfRange;
      }
      if (bad != BadLine::kNone) {
        bad_text = line;
        return;
      }
      if (u == v) continue;  // self-loop
      if (u > v) std::swap(u, v);
      edges.emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(v));
    }
  }

  // The Status of the bad line, numbered `line_no` in the whole input.
  Status Error(std::int64_t line_no) const {
    switch (bad) {
      case BadLine::kMalformed:
        return Status::InvalidArgument("malformed edge at line " +
                                       std::to_string(line_no) + ": '" +
                                       std::string(bad_text) + "'");
      case BadLine::kZeroIndex:
        return Status::InvalidArgument("MatrixMarket index 0 at line " +
                                       std::to_string(line_no));
      case BadLine::kOutOfRange:
        return Status::OutOfRange("vertex id exceeds 2^31-2 at line " +
                                  std::to_string(line_no));
      case BadLine::kNone:
        break;
    }
    return Status::Ok();
  }
};

// Cuts `batch` into cuts->size() - 1 runs of whole lines of about equal
// size: cut k is the first line start at or after k/L of the batch.
void CutAtLineStarts(std::string_view batch, std::vector<std::size_t>* cuts) {
  const std::size_t parts = cuts->size() - 1;
  (*cuts)[0] = 0;
  for (std::size_t k = 1; k < parts; ++k) {
    std::size_t at = std::max((*cuts)[k - 1], k * batch.size() / parts);
    if (at > 0 && batch[at - 1] != '\n') {
      const std::size_t nl = batch.find('\n', at);
      at = nl == std::string_view::npos ? batch.size() : nl + 1;
    }
    (*cuts)[k] = at;
  }
  (*cuts)[parts] = batch.size();
}

// Parses the edge lines of a byte source of about `bytes` bytes (negative:
// unknown) whose first `lines_before` lines were consumed already.
// `read(dst, cap)` fills up to `cap` bytes and returns the count, 0 at the
// end of the source. One buffer of kEdgeListChunkBytes takes each batch;
// the batch is cut at its last '\n' (the cut line is carried to the
// buffer's front) and split at newlines into L = LanesFor(bytes) slices
// that parse in parallel. The buffer doubles only when a single line fills
// it, and a final line without '\n' counts. Slices merge in file order, so
// the first bad line of the earliest slice is the first in the file.
template <typename ReadFn>
StatusOr<Graph> ParseEdgeSource(ReadFn&& read, std::int64_t bytes,
                                bool one_based, std::int64_t lines_before) {
  GraphBuilder builder;
  {
    const int lanes = LanesFor(bytes);
    std::optional<ThreadPool> pool;
    if (lanes > 1) pool.emplace(lanes);
    std::vector<Slice> slices(static_cast<std::size_t>(lanes));
    std::vector<std::size_t> cuts(slices.size() + 1);
    std::vector<char> buf(kEdgeListChunkBytes);
    std::size_t kept = 0;  // bytes of an unfinished line at buf's front
    for (bool end = false; !end;) {
      if (kept == buf.size()) buf.resize(2 * buf.size());
      const StatusOr<std::size_t> got =
          read(buf.data() + kept, buf.size() - kept);
      if (!got.ok()) return got.status();
      const std::string_view filled(buf.data(), kept + *got);
      end = *got == 0;
      // The batch is every whole line read so far; at the end of the
      // source, the unfinished line too.
      std::size_t take = filled.size();
      if (!end) {
        const std::size_t nl = filled.rfind('\n');
        take = nl == std::string_view::npos ? 0 : nl + 1;
      }
      const std::string_view batch = filled.substr(0, take);
      CutAtLineStarts(batch, &cuts);
      const auto parse = [&](int, std::int64_t begin, std::int64_t stop) {
        for (std::int64_t k = begin; k < stop; ++k) {
          slices[k].Parse(batch.substr(cuts[k], cuts[k + 1] - cuts[k]),
                          one_based);
        }
      };
      if (pool) {
        pool->ParallelFor(lanes, 1, parse);
      } else {
        parse(0, 0, lanes);
      }
      for (const Slice& slice : slices) {
        if (slice.bad != BadLine::kNone) {
          return slice.Error(lines_before + slice.lines);
        }
        builder.AddCanonicalEdges(slice.edges);
        lines_before += slice.lines;
      }
      kept = filled.size() - batch.size();
      std::memmove(buf.data(), buf.data() + batch.size(), kept);
    }
  }
  return builder.Build();
}

// The size of an open file, or -1 when it has none (a pipe, a directory).
std::int64_t SizeOrUnknown(std::FILE* f, const std::string& path) {
  const StatusOr<std::int64_t> size = FileSize(f, path);
  return size.ok() ? *size : -1;
}

// Reads one line of `f` without its '\n' into `line`; false at the end of
// the input with nothing read.
bool GetLine(std::FILE* f, std::string* line) {
  line->clear();
  for (int c = std::getc(f); c != EOF; c = std::getc(f)) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

}  // namespace

StatusOr<Graph> ReadEdgeList(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::NotFound("cannot open '" + path + "'");
  return ParseEdgeSource(FileReader(file.get(), path),
                         SizeOrUnknown(file.get(), path),
                         /*one_based=*/false, /*lines_before=*/0);
}

StatusOr<Graph> ParseEdgeList(const std::string& text) {
  std::size_t pos = 0;
  return ParseEdgeSource(
      [&](char* dst, std::size_t cap) -> StatusOr<std::size_t> {
        const std::size_t n = std::min(cap, text.size() - pos);
        std::memcpy(dst, text.data() + pos, n);
        pos += n;
        return n;
      },
      static_cast<std::int64_t>(text.size()), /*one_based=*/false,
      /*lines_before=*/0);
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  // Room for one "u v\n" line of two 32-bit ids.
  constexpr std::size_t kMaxLine = 2 * 11 + 2;
  std::vector<char> buf(kEdgeListChunkBytes);
  std::size_t used = 0;
  bool write_ok = true;
  const auto flush = [&] {
    write_ok =
        write_ok && std::fwrite(buf.data(), 1, used, file.get()) == used;
    used = 0;
  };
  g.ForEachEdge([&](VertexId u, VertexId v) {
    if (buf.size() - used < kMaxLine) flush();
    char* p = buf.data() + used;
    char* const end = buf.data() + buf.size();
    p = std::to_chars(p, end, u).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, v).ptr;
    *p++ = '\n';
    used = static_cast<std::size_t>(p - buf.data());
  });
  flush();
  const bool close_ok = std::fclose(file.release()) == 0;
  if (!write_ok || !close_ok) {
    return Status::Internal("write failure on '" + path + "'");
  }
  return Status::Ok();
}

StatusOr<Graph> ReadMatrixMarket(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::NotFound("cannot open '" + path + "'");
  const Status missing_header = Status::InvalidArgument(
      "missing %%MatrixMarket header in '" + path + "'");
  // Line 1 is the header; the first line after it that is neither blank
  // nor a comment is the size line. Both are read here, so the edge lines
  // parse on the shared path, numbered from the header as line 1.
  std::string line;
  const bool has_header = GetLine(file.get(), &line);
  if (std::ferror(file.get())) return ReadError(path);
  if (!has_header || line.rfind("%%MatrixMarket", 0) != 0) {
    return missing_header;
  }
  if (line.find("coordinate") == std::string::npos) {
    return Status::InvalidArgument("only coordinate format supported");
  }
  std::int64_t lines_before = 1;
  while (GetLine(file.get(), &line)) {
    ++lines_before;
    if (!IsBlankOrComment(line)) break;
  }
  if (std::ferror(file.get())) return ReadError(path);
  return ParseEdgeSource(FileReader(file.get(), path),
                         SizeOrUnknown(file.get(), path),
                         /*one_based=*/true, lines_before);
}

}  // namespace nucleus
