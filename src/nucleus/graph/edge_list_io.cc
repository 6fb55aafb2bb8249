#include "nucleus/graph/edge_list_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "nucleus/graph/graph_builder.h"
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

// Calls `on_line` with every line of a byte source, without its '\n', and
// stops at the first non-OK Status it returns. `read(dst, cap)` fills up to
// `cap` bytes and returns the count, 0 at the end of the source. The source
// is read in kEdgeListChunkBytes chunks into one buffer; a line cut by a
// chunk boundary is carried to the buffer's front, and the buffer doubles
// only when a single line fills it. A final line without '\n' counts.
template <typename ReadFn, typename LineFn>
Status ForEachLine(ReadFn&& read, LineFn&& on_line) {
  std::vector<char> buf(kEdgeListChunkBytes);
  std::size_t kept = 0;  // bytes of an unfinished line at buf's front
  for (;;) {
    if (kept == buf.size()) buf.resize(2 * buf.size());
    const StatusOr<std::size_t> got =
        read(buf.data() + kept, buf.size() - kept);
    if (!got.ok()) return got.status();
    if (*got == 0) {
      return kept > 0 ? on_line(std::string_view(buf.data(), kept))
                      : Status::Ok();
    }
    const char* line = buf.data();
    const char* scan = buf.data() + kept;
    const char* const stop = scan + *got;
    while (const void* found = std::memchr(
               scan, '\n', static_cast<std::size_t>(stop - scan))) {
      const char* nl = static_cast<const char*>(found);
      if (Status s = on_line(std::string_view(
              line, static_cast<std::size_t>(nl - line)));
          !s.ok()) {
        return s;
      }
      line = scan = nl + 1;
    }
    kept = static_cast<std::size_t>(stop - line);
    std::memmove(buf.data(), line, kept);
  }
}

// Byte source over an open file. A read error, including reading a
// directory, fails with the path instead of ending the input early.
auto FileReader(std::FILE* f, const std::string& path) {
  return [f, &path](char* dst, std::size_t cap) -> StatusOr<std::size_t> {
    const std::size_t got = std::fread(dst, 1, cap, f);
    if (got < cap && std::ferror(f)) {
      return Status::Internal("read error on '" + path +
                              "': " + std::strerror(errno));
    }
    return got;
  };
}

// Parses edge lines into a GraphBuilder, numbering lines from 1.
class EdgeLineParser {
 public:
  // `one_based` shifts MatrixMarket's 1-based ids down; the first
  // `skip_records` non-comment lines (MatrixMarket's size line) are skipped.
  EdgeLineParser(bool one_based, std::int64_t skip_records)
      : one_based_(one_based), skip_records_(skip_records) {}

  Status Add(std::string_view line) {
    ++line_no_;
    if (IsBlankOrComment(line)) return Status::Ok();
    if (skip_records_ > 0) {
      --skip_records_;
      return Status::Ok();
    }
    std::string_view rest = line;
    std::int64_t u = 0;
    std::int64_t v = 0;
    if (!ParseId(&rest, &u) || !ParseId(&rest, &v)) {
      return Status::InvalidArgument("malformed edge at line " +
                                     std::to_string(line_no_) + ": '" +
                                     std::string(line) + "'");
    }
    if (one_based_) {
      if (u == 0 || v == 0) {
        return Status::InvalidArgument("MatrixMarket index 0 at line " +
                                       std::to_string(line_no_));
      }
      --u;
      --v;
    }
    if (u > kMaxVertex || v > kMaxVertex) {
      return Status::OutOfRange("vertex id exceeds 2^31-2 at line " +
                                std::to_string(line_no_));
    }
    builder_.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    return Status::Ok();
  }

  Graph Build() const { return builder_.Build(); }

 private:
  const bool one_based_;
  std::int64_t skip_records_;
  std::int64_t line_no_ = 0;
  GraphBuilder builder_;
};

template <typename ReadFn>
StatusOr<Graph> ParseEdgeSource(ReadFn&& read) {
  EdgeLineParser parser(/*one_based=*/false, /*skip_records=*/0);
  if (Status s = ForEachLine(read, [&](std::string_view line) {
        return parser.Add(line);
      });
      !s.ok()) {
    return s;
  }
  return parser.Build();
}

}  // namespace

StatusOr<Graph> ReadEdgeList(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::NotFound("cannot open '" + path + "'");
  return ParseEdgeSource(FileReader(file.get(), path));
}

StatusOr<Graph> ParseEdgeList(const std::string& text) {
  std::size_t pos = 0;
  return ParseEdgeSource(
      [&](char* dst, std::size_t cap) -> StatusOr<std::size_t> {
        const std::size_t n = std::min(cap, text.size() - pos);
        std::memcpy(dst, text.data() + pos, n);
        pos += n;
        return n;
      });
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
  // Line 1 is the header (a '%' comment to the parser); the first
  // non-comment line after it is the size line.
  EdgeLineParser parser(/*one_based=*/true, /*skip_records=*/1);
  bool header_seen = false;
  if (Status s = ForEachLine(
          FileReader(file.get(), path),
          [&](std::string_view line) -> Status {
            if (!header_seen) {
              header_seen = true;
              if (line.rfind("%%MatrixMarket", 0) != 0) return missing_header;
              if (line.find("coordinate") == std::string_view::npos) {
                return Status::InvalidArgument(
                    "only coordinate format supported");
              }
            }
            return parser.Add(line);
          });
      !s.ok()) {
    return s;
  }
  if (!header_seen) return missing_header;
  return parser.Build();
}

}  // namespace nucleus
