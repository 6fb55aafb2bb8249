// Spans recorded by the benchmark around its calls into the library: name,
// start, end and the span that caused it. Kept in memory and written out
// as JSON lines when the run ends. Every span is taken from OUTSIDE the
// program — the library itself is not instrumented by this benchmark.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds: one clock shared by the parent and the
/// forked build children, so their spans line up.
inline std::int64_t MonoNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPU time of the calling thread, in nanoseconds.
inline std::int64_t ThreadCpuNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = a root span
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Trace {
 public:
  /// Appends a finished span; returns its id.
  std::int64_t Add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1) {
    const std::int64_t id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({id, parent, name, start_ns, end_ns});
    return id;
  }

  /// Closes a span opened with end_ns = 0 once its children are recorded.
  void End(std::int64_t id, std::int64_t end_ns) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` minus the part of it its children cover.
  double SelfSeconds(std::int64_t id) const {
    std::int64_t covered = 0;
    for (const Span& s : spans_) {
      if (s.parent == id) covered += s.end_ns - s.start_ns;
    }
    const Span& self = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(self.end_ns - self.start_ns - covered) * 1e-9;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns
          << ", \"self_s\": " << SelfSeconds(s.id) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
