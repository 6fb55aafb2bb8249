// The pipeline benchmark: one run drives the product pipeline end to end on
// generated inputs and times every layer from outside, by wrapping calls to
// the library's public functions.
//
//   edge-list file → ReadEdgeList → Decompose → MakeSnapshot(with_index)
//   → SaveSnapshotV2 → cold OpenSnapshotSource(kMmap) → QueryEngine
//   → answers over TCP (direct TcpServer, or TenantRouter over two backend
//   TcpServers) → live `update` lines on a (1,2) tenant
//
// Every workload runs every stage, so every end-to-end metric exists on
// every workload; the workloads differ in which stage dominates (see
// Plans() and BENCHMARK.json). Usage:
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--trace-out FILE] [--toy]
//                  [--negative-control probe|transcript|live]
//
// It prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (spans go to --trace-out as JSON lines). Exit status is 0 only when every
// correctness check passed.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "nucleus/bench/runner.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/graph/generators.h"
#include "nucleus/parallel/thread_pool.h"
#include "nucleus/serve/live_update.h"
#include "nucleus/serve/net/tcp_server.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/router/router.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/delta.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/rng.h"
#include "trace.h"

namespace perfbench {
namespace {

using nucleus::Algorithm;
using nucleus::Family;
using nucleus::Graph;
using nucleus::Lambda;
using nucleus::QueryEngine;
using nucleus::Rng;
using nucleus::Status;

// One machine, one process: the build uses at most this many threads and
// the serve stage at most this many client connections.
constexpr int kThreads = 4;
constexpr int kReaders = 3;  // plus one writer connection
// Member queries only ask for subtrees this small, so one answer line stays
// a few hundred bytes and the mix prices lookups, not bulk transfer.
constexpr std::int64_t kSmallSubtree = 64;
// Lines in flight per pipelined connection: well under the TcpServer and
// router admission caps, so no correct line is ever refused.
constexpr std::int64_t kWindow = 256;
constexpr int kSetupReps = 3;
constexpr int kMinBuilds = 5;
constexpr int kMaxBuilds = 40;
constexpr int kFirstAnswerReps = 100;
constexpr int kMinRounds = 3;
constexpr double kRoundSeconds = 0.5;
constexpr std::int64_t kProbeLines = 2000;
constexpr std::int64_t kLiveReplayEdits = 200;

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string workdir;
  std::string trace_out;
  std::string negative_control;  // "", "probe", "transcript" or "live"
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "pipeline_bench: " << why
            << "\nusage: pipeline_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out FILE] [--toy] "
               "[--negative-control probe|transcript|live]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--toy") {
      args.toy = true;
    } else if (flag == "--negative-control") {
      args.negative_control = value();
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.workdir.empty()) {
    Usage("--workload and --workdir are required");
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workload plans

struct TenantPlan {
  std::string name;
  Family family = Family::kCore12;
  Algorithm algorithm = Algorithm::kDft;
  std::function<Graph(std::uint64_t seed)> make;
  bool live = false;  // graph paired: the writer's `update` lines go here
  bool read = true;   // the readers' mix includes this tenant
};

struct WorkloadPlan {
  std::string name;
  std::vector<TenantPlan> tenants;
  bool routed = false;
  // serve_live_update runs the writer beside the open-loop readers; the
  // other workloads run it after the read phases, so their read
  // transcripts stay byte-comparable with a stdio replay.
  bool concurrent_writer = false;
  double read_rate = 0;  // open-loop lines/s over all readers
  std::int64_t pipelined_lines = 0;  // per reader
  std::int64_t updates = 0;          // minimum updates per run
  double build_share = 0.4;          // shares of --seconds
  double open_loop_share = 0.3;
  double pipelined_share = 0.2;
};

// A small (1,2) tenant that takes the update stream on workloads whose
// subject is not itself updatable: 4k vertices, a few ms per applied edit.
// Its graph is a fixed fixture, the same for every seed, so its update
// latencies vary with the machine and the edits, not with the graph.
TenantPlan LiveSide(bool toy) {
  TenantPlan t;
  t.name = "live";
  t.family = Family::kCore12;
  t.algorithm = Algorithm::kDft;
  t.make = [toy](std::uint64_t) {
    constexpr std::uint64_t kFixtureSeed = 12;
    return toy ? nucleus::RMat(9, 2000, .57, .19, .19, kFixtureSeed)
               : nucleus::RMat(12, 35000, .57, .19, .19, kFixtureSeed);
  };
  t.live = true;
  t.read = false;
  return t;
}

std::vector<WorkloadPlan> Plans(bool toy) {
  std::vector<WorkloadPlan> plans;
  {
    // The paper's web/internet regime: loading the edge list dominates the
    // build, the peel is cheap, the cliques layer is unused.
    WorkloadPlan w;
    w.name = "build_sparse_core";
    TenantPlan web;
    web.name = "web";
    web.family = Family::kCore12;
    web.algorithm = Algorithm::kDft;
    web.make = [toy](std::uint64_t seed) {
      return toy ? nucleus::RMat(11, 12000, .57, .19, .19, seed)
                 : nucleus::RMat(19, 4000000, .57, .19, .19, seed);
    };
    w.tenants = {web, LiveSide(toy)};
    w.read_rate = 40000;
    w.pipelined_lines = 80000;
    w.updates = 500;
    plans.push_back(w);
  }
  {
    // The facebook100 regime of Table 1: (3,4) on a dense planted
    // partition; peel and the FND hierarchy dominate, loading is ~1%.
    WorkloadPlan w;
    w.name = "build_dense_34";
    TenantPlan dense;
    dense.name = "dense";
    dense.family = Family::kNucleus34;
    dense.algorithm = Algorithm::kFnd;
    dense.make = [toy](std::uint64_t seed) {
      return toy ? nucleus::PlantedPartition(6, 30, .5, .01, seed)
                 : nucleus::PlantedPartition(30, 160, .45, .004, seed);
    };
    w.tenants = {dense, LiveSide(toy)};
    w.read_rate = 40000;
    w.pipelined_lines = 80000;
    w.updates = 500;
    plans.push_back(w);
  }
  {
    // Two read-only mmap tenants on two backends behind one router: the
    // only workload that crosses the router hop.
    WorkloadPlan w;
    w.name = "serve_routed_read";
    TenantPlan web;
    web.name = "web";
    web.family = Family::kCore12;
    web.algorithm = Algorithm::kDft;
    web.make = [toy](std::uint64_t seed) {
      return toy ? nucleus::RMat(10, 6000, .57, .19, .19, seed)
                 : nucleus::RMat(18, 2500000, .57, .19, .19, seed);
    };
    TenantPlan social;
    social.name = "social";
    social.family = Family::kTruss23;
    social.algorithm = Algorithm::kFnd;
    social.make = [toy](std::uint64_t seed) {
      const Graph base = toy ? nucleus::BarabasiAlbert(1500, 5, seed)
                             : nucleus::BarabasiAlbert(60000, 10, seed);
      return nucleus::WithTriadicClosure(base, toy ? 1500 : 600000,
                                         Mix64(seed));
    };
    w.tenants = {web, social, LiveSide(toy)};
    w.routed = true;
    w.read_rate = 30000;
    w.pipelined_lines = 25000;
    w.updates = 500;
    plans.push_back(w);
  }
  {
    // Writes beside reads: one live heap tenant (skitter-syn shape), one
    // direct server, no router. Every update changes the engine epoch.
    WorkloadPlan w;
    w.name = "serve_live_update";
    TenantPlan live;
    live.name = "live";
    live.family = Family::kCore12;
    live.algorithm = Algorithm::kDft;
    live.make = [toy](std::uint64_t seed) {
      return toy ? nucleus::RMat(10, 6000, .57, .19, .19, seed)
                 : nucleus::RMat(15, 280000, .57, .19, .19, seed);
    };
    live.live = true;
    live.read = true;
    w.tenants = {live};
    w.concurrent_writer = true;
    w.read_rate = 30000;
    w.pipelined_lines = 80000;
    w.updates = 200;
    w.build_share = 0.15;
    w.open_loop_share = 0.55;
    plans.push_back(w);
  }
  if (toy) {
    for (WorkloadPlan& w : plans) {
      w.read_rate = std::min(w.read_rate, 5000.0);
      w.pipelined_lines = 2000;
      w.updates = 20;
    }
  }
  return plans;
}

// ---------------------------------------------------------------------------
// Metrics and small statistics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(v.size() - 1)));
  return v[index];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// Mean of the middle half (the interquartile mean). Rounds of a serve phase
// fall into two or three speed regimes depending on how the scheduler
// places a round's threads; a median flips between regimes from run to run,
// a mean of the middle half moves only with their mix, and still ignores a
// round hit by a stall of the machine.
double MidMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Correctness bookkeeping: every line sent and every check made is an
// attempt; refusals, error answers and divergences are failures.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      notes.push_back(what);
    }
  }
};

// Lines of a transcript that are error objects (refusals or bad answers).
std::int64_t CountErrorLines(const std::string& transcript) {
  std::int64_t errors = 0;
  std::size_t pos = 0;
  while (pos < transcript.size()) {
    if (transcript.compare(pos, 9, "{\"error\":") == 0) ++errors;
    const std::size_t nl = transcript.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return errors;
}

void CorruptOneAnswer(std::string* text) {
  const std::size_t digit = text->find_first_of("0123456789");
  if (digit != std::string::npos) {
    (*text)[digit] = (*text)[digit] == '9' ? '8' : '9';
  } else {
    *text += "corrupted\n";
  }
}

// ---------------------------------------------------------------------------
// Request mixes

// What a script generator needs to know about one tenant's snapshot.
struct Shape {
  std::int64_t num_cliques = 0;
  std::int32_t num_nodes = 0;
  Lambda max_lambda = 0;
  std::vector<std::int32_t> small_nodes;  // subtree <= kSmallSubtree
};

Shape ShapeOfSource(const nucleus::SnapshotSource& source) {
  Shape shape;
  shape.num_cliques = source.meta().num_cliques;
  shape.num_nodes = source.NumNodes();
  shape.max_lambda = source.meta().max_lambda;
  if (!source.Ensure(nucleus::kNeedSizes).ok()) return shape;
  for (std::int32_t node = 0; node < shape.num_nodes; ++node) {
    if (source.SubtreeSize(node) <= kSmallSubtree) {
      shape.small_nodes.push_back(node);
    }
  }
  return shape;
}

Shape ShapeOfSnapshot(const nucleus::SnapshotData& snapshot) {
  Shape shape;
  shape.num_cliques = snapshot.meta.num_cliques;
  shape.max_lambda = snapshot.meta.max_lambda;
  shape.num_nodes = static_cast<std::int32_t>(snapshot.hierarchy.NumNodes());
  for (std::int32_t node = 0; node < shape.num_nodes; ++node) {
    if (snapshot.hierarchy.node(node).subtree_members <= kSmallSubtree) {
      shape.small_nodes.push_back(node);
    }
  }
  return shape;
}

// The read mix of bench/network_serving and bench/router_serving: lambda
// 35%, nucleus 25%, common/level 30%, top 7%, members 3%.
std::string MixLine(Rng& rng, const Shape& s) {
  std::ostringstream line;
  const std::int64_t roll = rng.UniformInt(0, 99);
  const auto clique = [&] { return rng.UniformInt(0, s.num_cliques - 1); };
  if (roll < 35) {
    line << "lambda " << clique();
  } else if (roll < 60) {
    line << "nucleus " << clique() << " "
         << rng.UniformInt(1, std::max<Lambda>(1, s.max_lambda));
  } else if (roll < 90) {
    line << (rng.Bernoulli(0.5) ? "common " : "level ") << clique() << " "
         << clique();
  } else if (roll < 97 || s.small_nodes.empty()) {
    line << "top " << rng.UniformInt(1, 10);
  } else {
    // Skewed toward the first candidates so the member cache sees reuse.
    const std::int64_t span = std::min<std::int64_t>(
        static_cast<std::int64_t>(s.small_nodes.size()), 512);
    const std::int64_t pick = rng.UniformInt(0, span - 1) *
                              rng.UniformInt(0, span - 1) / span;
    line << "members " << s.small_nodes[static_cast<std::size_t>(pick)];
  }
  return line.str();
}

Script MakeProbe(std::uint64_t seed, const Shape& shape,
                 const std::string& prefix, std::int64_t lines) {
  Rng rng(seed);
  Script script;
  for (std::int64_t i = 0; i < lines; ++i) {
    script.Add(prefix + MixLine(rng, shape));
  }
  return script;
}

// ---------------------------------------------------------------------------
// Files

std::string EdgeListPath(const Args& a, const TenantPlan& t) {
  return a.workdir + "/" + t.name + ".txt";
}
std::string SnapshotPath(const Args& a, const TenantPlan& t) {
  return a.workdir + "/" + t.name + ".nucsnap";
}
std::string ProbePath(const Args& a, const TenantPlan& t) {
  return a.workdir + "/" + t.name + ".probe";
}

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n = 0;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::int64_t>(st.st_size)
                                        : 0;
}

std::uint64_t TenantSeed(const Args& a, std::size_t index) {
  return Mix64(a.seed * 1000003 + index + 1);
}

// ---------------------------------------------------------------------------
// Forked children: set-up and builds run in a child process, so the build's
// peak RSS is its own (the parent holds no workload data when it forks) and
// nothing the parent allocated is charged to it.

struct ChildResult {
  bool ok = false;
  double peak_rss_mb = 0;
  std::string report;  // what the child wrote to its pipe
};

ChildResult RunChild(const std::function<bool(FILE* report)>& body) {
  std::cout.flush();
  std::cerr.flush();
  int fds[2];
  ChildResult result;
  if (::pipe(fds) != 0) return result;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    FILE* report = ::fdopen(fds[1], "w");
    bool ok = false;
    try {
      ok = report != nullptr && body(report);
    } catch (...) {
      ok = false;
    }
    if (report != nullptr) std::fclose(report);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    result.report.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

// Report lines are "val <key> <number>" or "span <name> <start> <end>".
struct Report {
  std::map<std::string, double> vals;
  std::vector<Span> spans;
};

Report ParseReport(const std::string& text) {
  Report r;
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    if (kind == "val") {
      std::string key;
      double v = 0;
      in >> key >> v;
      r.vals[key] = v;
    } else if (kind == "span") {
      Span s;
      in >> s.name >> s.start_ns >> s.end_ns;
      r.spans.push_back(s);
    } else {
      std::string rest;
      std::getline(in, rest);
    }
  }
  return r;
}

// Every set-up and build writes files under fresh names: replacing a file
// frees its blocks, which on a disk mounted with `discard` stalls writes for
// seconds and would time the disk's discard queue instead of the pipeline.
// The run's files are deleted after it is measured.
bool GenerateInputs(const Args& args, const WorkloadPlan& plan,
                    const std::string& suffix, FILE* report) {
  const std::int64_t t0 = MonoNanos();
  for (std::size_t i = 0; i < plan.tenants.size(); ++i) {
    const TenantPlan& t = plan.tenants[i];
    const Graph g = t.make(TenantSeed(args, i));
    if (!nucleus::WriteEdgeList(g, EdgeListPath(args, t) + suffix).ok()) {
      return false;
    }
  }
  std::fprintf(report, "val setup_s %.17g\n", Seconds(MonoNanos() - t0));
  // Durable before the builds start, so their fsyncs do not also flush
  // the set-up's dirty pages.
  for (const TenantPlan& t : plan.tenants) {
    const int fd = ::open((EdgeListPath(args, t) + suffix).c_str(), O_RDONLY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!synced) return false;
  }
  return true;
}

// One build of every tenant: edge list on disk → durable .nucsnap v2. With
// `checks`, also the build-side correctness checks (t=1 lambda fingerprint
// and the probe answers of the in-memory result), outside the timed span.
bool BuildTenants(const Args& args, const WorkloadPlan& plan, bool traced,
                  bool checks, const std::string& suffix, FILE* report) {
  const auto span = [&](const std::string& name, std::int64_t s,
                        std::int64_t e) {
    if (traced) std::fprintf(report, "span %s %lld %lld\n", name.c_str(),
                             static_cast<long long>(s),
                             static_cast<long long>(e));
  };
  const auto val = [&](const std::string& key, double v) {
    std::fprintf(report, "val %s %.17g\n", key.c_str(), v);
  };
  std::int64_t build_ns = 0;
  for (std::size_t i = 0; i < plan.tenants.size(); ++i) {
    const TenantPlan& t = plan.tenants[i];
    nucleus::DecomposeOptions options;
    options.family = t.family;
    options.algorithm = t.algorithm;
    options.parallel.num_threads = kThreads;

    const std::int64_t t0 = MonoNanos();
    nucleus::StatusOr<Graph> g = nucleus::ReadEdgeList(EdgeListPath(args, t));
    if (!g.ok()) return false;
    const std::int64_t t1 = MonoNanos();
    nucleus::DecompositionResult result = nucleus::Decompose(*g, options);
    const std::int64_t t2 = MonoNanos();
    const nucleus::PhaseTimings timings = result.timings;
    const std::int64_t subnuclei = result.num_subnuclei;
    const std::int64_t adj = result.num_adj;
    nucleus::SnapshotData snapshot =
        nucleus::MakeSnapshot(*g, options, std::move(result), true);
    const std::int64_t t3 = MonoNanos();
    const std::int64_t cpu0 = traced ? ThreadCpuNanos() : 0;
    if (!nucleus::SaveSnapshotV2(snapshot, SnapshotPath(args, t) + suffix)
             .ok()) {
      return false;
    }
    const std::int64_t cpu1 = traced ? ThreadCpuNanos() : 0;
    const std::int64_t t4 = MonoNanos();
    build_ns += t4 - t0;

    const std::string p = t.name + ".";
    if (traced) {
      span(p + "graph.load", t0, t1);
      span(p + "core.decompose", t1, t2);
      span(p + "store.make_snapshot", t2, t3);
      span(p + "store.write", t3, t4);
      val(p + "index_s", timings.index_seconds);
      val(p + "peel_s", timings.peel_seconds);
      val(p + "traverse_s", timings.traverse_seconds);
      val(p + "phase_total_s", timings.total_seconds);
      val(p + "write_cpu_s", Seconds(cpu1 - cpu0));
    }
    val(p + "kr", static_cast<double>(snapshot.meta.num_cliques));
    val(p + "nodes", static_cast<double>(snapshot.hierarchy.NumNodes()));
    val(p + "subnuclei", static_cast<double>(subnuclei));
    val(p + "adj", static_cast<double>(adj));

    if (checks) {
      // The lambdas are thread-count invariant: a t=1 run must agree.
      nucleus::DecomposeOptions serial = options;
      serial.parallel.num_threads = 1;
      serial.build_tree = false;
      const nucleus::DecompositionResult one = nucleus::Decompose(*g, serial);
      val(p + "peel1_s", one.timings.peel_seconds);
      val(p + "fingerprint_match",
          nucleus::LambdaFingerprint(one.peel.lambda) ==
                  nucleus::LambdaFingerprint(snapshot.peel.lambda)
              ? 1
              : 0);
      // Probe answers straight from the in-memory result; the parent
      // replays the same script on the cold-opened mmap file.
      const Script probe =
          MakeProbe(TenantSeed(args, i) ^ 0x5eed, ShapeOfSnapshot(snapshot), "",
                    kProbeLines);
      std::unique_ptr<QueryEngine> engine =
          QueryEngine::FromSnapshotData(std::move(snapshot));
      std::istringstream in(probe.text);
      std::ostringstream out;
      nucleus::ServeRequests(static_cast<const QueryEngine&>(*engine), in, out);
      if (!WriteFile(ProbePath(args, t), probe.text) ||
          !WriteFile(ProbePath(args, t) + ".ans", out.str())) {
        return false;
      }
    }
  }
  val("build_s", Seconds(build_ns));
  return true;
}

// ---------------------------------------------------------------------------
// Live edits: "each removing the edge if present and inserting it
// otherwise", drawn so every edit changes the graph.

struct EdgeSet {
  std::vector<std::pair<nucleus::VertexId, nucleus::VertexId>> edges;
  std::unordered_map<std::uint64_t, std::size_t> index;

  static std::uint64_t Key(nucleus::VertexId u, nucleus::VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
  }
  void Insert(nucleus::VertexId u, nucleus::VertexId v) {
    if (u > v) std::swap(u, v);
    index[Key(u, v)] = edges.size();
    edges.emplace_back(u, v);
  }
  void Remove(std::size_t i) {
    index.erase(Key(edges[i].first, edges[i].second));
    if (i + 1 != edges.size()) {
      edges[i] = edges.back();
      index[Key(edges[i].first, edges[i].second)] = i;
    }
    edges.pop_back();
  }
};

EdgeSet EdgesOf(const Graph& g) {
  EdgeSet set;
  g.ForEachEdge([&](nucleus::VertexId u, nucleus::VertexId v) { set.Insert(u, v); });
  return set;
}

std::vector<nucleus::EdgeEdit> MakeEdits(const Graph& g, std::int64_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  EdgeSet set = EdgesOf(g);
  const nucleus::VertexId n = g.NumVertices();
  std::vector<nucleus::EdgeEdit> edits;
  while (static_cast<std::int64_t>(edits.size()) < count) {
    if (rng.Bernoulli(0.5) && !set.edges.empty()) {
      const std::size_t i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(set.edges.size()) - 1));
      edits.push_back({set.edges[i].first, set.edges[i].second,
                       nucleus::EdgeEditOp::kRemove});
      set.Remove(i);
    } else {
      const nucleus::VertexId u = rng.UniformVertex(n);
      const nucleus::VertexId v = rng.UniformVertex(n);
      if (u == v || set.index.count(EdgeSet::Key(u, v)) != 0) continue;
      edits.push_back({u, v, nucleus::EdgeEditOp::kInsert});
      set.Insert(u, v);
    }
  }
  return edits;
}

Graph ApplyEdits(const Graph& g, const std::vector<nucleus::EdgeEdit>& edits,
                 std::size_t count) {
  EdgeSet set = EdgesOf(g);
  for (std::size_t i = 0; i < count; ++i) {
    const nucleus::EdgeEdit& e = edits[i];
    if (e.op == nucleus::EdgeEditOp::kInsert) {
      set.Insert(e.u, e.v);
    } else {
      set.Remove(set.index.at(EdgeSet::Key(e.u, e.v)));
    }
  }
  // CSR over the same vertex count: the live tenant keeps its vertices
  // even when an edit leaves one isolated.
  const nucleus::VertexId n = g.NumVertices();
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : set.edges) {
    ++offsets[static_cast<std::size_t>(u) + 1];
    ++offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<nucleus::VertexId> adj(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> fill(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : set.edges) {
    adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(u)]++)] = v;
    adj[static_cast<std::size_t>(fill[static_cast<std::size_t>(v)]++)] = u;
  }
  for (nucleus::VertexId u = 0; u < n; ++u) {
    std::sort(adj.begin() + offsets[static_cast<std::size_t>(u)],
              adj.begin() + offsets[static_cast<std::size_t>(u) + 1]);
  }
  return Graph::FromCsr(std::move(offsets), std::move(adj));
}

std::string EditLine(const std::string& tenant, const nucleus::EdgeEdit& e) {
  return tenant + ":update " + std::to_string(e.u) + " " + std::to_string(e.v) +
         (e.op == nucleus::EdgeEditOp::kInsert ? " +" : " -");
}

// ---------------------------------------------------------------------------
// Serving topology

std::string ExtractNumber(const std::string& json, const std::string& after,
                          const std::string& key) {
  std::size_t pos = json.find(after);
  if (pos == std::string::npos) return "0";
  pos = json.find("\"" + key + "\": ", pos);
  if (pos == std::string::npos) return "0";
  pos += key.size() + 4;
  const std::size_t end = json.find_first_of(",}", pos);
  return json.substr(pos, end - pos);
}

nucleus::TcpServerOptions ServerOptions();

struct Topology {
  std::vector<std::unique_ptr<nucleus::SnapshotRegistry>> registries;
  std::vector<std::unique_ptr<nucleus::TcpServer>> backends;
  std::unique_ptr<nucleus::TenantRouter> router;
  std::unique_ptr<nucleus::TcpServer> front;  // null when direct
  int port = 0;
  // TcpServer::Stats of entry servers retired by RestartEntry.
  std::int64_t retired_lines_rejected = 0;
  std::int64_t retired_max_queue_depth = 0;

  // The server clients connect to: the router front, or the direct server.
  std::unique_ptr<nucleus::TcpServer>& entry() {
    return front ? front : backends[0];
  }

  // Replaces the entry server with a fresh one over the same registry or
  // router. A server's IO thread lives as long as the server, and where the
  // scheduler first puts it can hold a whole run at one speed; a fresh
  // server per round makes that placement one more thing a round samples.
  Status RestartEntry() {
    std::unique_ptr<nucleus::TcpServer>& server = entry();
    const nucleus::TcpServerStats stats = server->Stats();
    retired_lines_rejected += stats.lines_rejected;
    retired_max_queue_depth =
        std::max(retired_max_queue_depth, stats.max_queue_depth);
    server->Stop();
    if (front) {
      server = std::make_unique<nucleus::TcpServer>(router->HandlerFactory(),
                                                    ServerOptions());
    } else {
      server = std::make_unique<nucleus::TcpServer>(
          nucleus::MakeRegistryResolver(*registries[0]), registries[0].get(),
          ServerOptions());
    }
    Status started = server->Start();
    port = server->port();
    return started;
  }

  void Stop() {
    if (front) front->Stop();
    if (router) router->Stop();
    for (auto& b : backends) b->Stop();
  }
};

nucleus::TcpServerOptions ServerOptions() {
  nucleus::TcpServerOptions options;
  options.serve.parallel.num_threads = 1;
  options.max_connections = 16;
  options.queue_high_water = 4096;
  return options;
}

Status AttachTenant(nucleus::SnapshotRegistry& registry, const Args& args,
                    const TenantPlan& t, bool with_graph) {
  nucleus::TenantSpec spec;
  spec.name = t.name;
  spec.snapshot_path = SnapshotPath(args, t);
  if (with_graph && t.live) spec.graph_path = EdgeListPath(args, t);
  return registry.Attach(spec);
}

std::unique_ptr<nucleus::SnapshotRegistry> NewRegistry() {
  nucleus::RegistryOptions options;
  options.memory_mode = nucleus::SnapshotMemoryMode::kMmap;
  return std::make_unique<nucleus::SnapshotRegistry>(options);
}

Status StartDirect(const Args& args, const std::vector<TenantPlan>& tenants,
                   Topology* topo) {
  topo->registries.push_back(NewRegistry());
  nucleus::SnapshotRegistry& registry = *topo->registries.back();
  for (const TenantPlan& t : tenants) {
    if (Status s = AttachTenant(registry, args, t, true); !s.ok()) return s;
  }
  topo->backends.push_back(std::make_unique<nucleus::TcpServer>(
      nucleus::MakeRegistryResolver(registry), &registry, ServerOptions()));
  if (Status s = topo->backends.back()->Start(); !s.ok()) return s;
  topo->port = topo->backends.back()->port();
  return Status::Ok();
}

Status StartRouted(const Args& args, const std::vector<TenantPlan>& tenants,
                   Topology* topo) {
  nucleus::TenantRouterOptions router_options;
  for (int b = 0; b < 2; ++b) {
    topo->registries.push_back(NewRegistry());
    nucleus::SnapshotRegistry& registry = *topo->registries.back();
    topo->backends.push_back(std::make_unique<nucleus::TcpServer>(
        nucleus::MakeRegistryResolver(registry), &registry, ServerOptions()));
    if (Status s = topo->backends.back()->Start(); !s.ok()) return s;
    router_options.backends.push_back(
        "127.0.0.1:" + std::to_string(topo->backends.back()->port()));
  }
  router_options.max_inflight = 1 << 15;
  router_options.health_interval_ms = 0;  // loopback backends, no prober
  topo->router = std::make_unique<nucleus::TenantRouter>(router_options);
  if (Status s = topo->router->Start(); !s.ok()) return s;
  for (const TenantPlan& t : tenants) {
    const int home = topo->router->BackendIndexFor(t.name);
    if (Status s = AttachTenant(*topo->registries[static_cast<std::size_t>(home)],
                                args, t, true);
        !s.ok()) {
      return s;
    }
  }
  topo->front = std::make_unique<nucleus::TcpServer>(
      topo->router->HandlerFactory(), ServerOptions());
  if (Status s = topo->front->Start(); !s.ok()) return s;
  topo->port = topo->front->port();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Serve-stage phases

// One round: every reader replays its script once on a fresh connection,
// open loop at `rate` lines/s each, or pipelined when `rate` is 0.
std::vector<SessionResult> RunRound(int port, const std::vector<Script>& scripts,
                                    double rate) {
  std::vector<SessionResult> sessions(scripts.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    threads.emplace_back([&, i] {
      sessions[i] = rate > 0 ? RunOpenLoop(port, scripts[i], rate, start)
                             : RunPipelined(port, scripts[i], kWindow);
    });
  }
  for (std::thread& t : threads) t.join();
  return sessions;
}

// Per-round figures of one phase. A phase repeats its round until its time
// is spent, and the run reports medians over rounds, so one stall of the
// machine moves one round, not the result.
struct Rounds {
  std::vector<double> p50_us, p90_us, p99_us, late_p99_us, qps;
};

struct WriterResult {
  std::vector<double> latency_ms;
  std::int64_t sent = 0;
  std::int64_t not_applied = 0;
};

// Closed loop: one `update` line, wait for its ack, next. Runs until
// `deadline` has passed and at least `min_count` edits went out.
WriterResult RunWriter(int port, const std::string& tenant,
                       const std::vector<nucleus::EdgeEdit>& edits,
                       std::int64_t min_count, Clock::time_point deadline) {
  WriterResult w;
  RoundTripClient client(port);
  for (const nucleus::EdgeEdit& e : edits) {
    if (w.sent >= min_count && Clock::now() >= deadline) break;
    const Clock::time_point t0 = Clock::now();
    const std::string ack = client.Call(EditLine(tenant, e));
    w.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    ++w.sent;
    if (ack.find("\"applied\": true") == std::string::npos) ++w.not_applied;
  }
  return w;
}

// ---------------------------------------------------------------------------
// The run

class Bench {
 public:
  Bench(Args args, WorkloadPlan plan)
      : args_(std::move(args)), plan_(std::move(plan)) {}

  int Run();

 private:
  void Emit(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  bool Negative(const std::string& kind) const {
    return args_.negative_control == kind;
  }
  std::int64_t AddSpan(const std::string& name, std::int64_t s, std::int64_t e,
                       std::int64_t parent = -1) {
    return args_.trace ? trace_.Add(name, s, e, parent) : -1;
  }

  bool SetupStage();
  bool BuildStage();
  bool FirstAnswerStage();
  bool ServeStage();
  void ServePhase(const std::string& name, Topology* topo, bool restart,
                  const std::vector<Script>& scripts, double rate,
                  double seconds, const std::vector<std::string>* expected,
                  Rounds* rounds);
  void TracedLegs();
  void Table1Comparison();
  void LiveReplay();
  void CollectCounters();

  const Args args_;
  const WorkloadPlan plan_;
  Tally tally_;
  Trace trace_;
  std::vector<Metric> metrics_;

  double setup_inputs_s_ = 0;  // median of kSetupReps
  double server_start_s_ = 0;
  std::map<std::string, Shape> shapes_;  // read-script shapes, by tenant
  Report build_checks_;                  // the checking (first) build
  std::vector<Report> builds_;           // measured builds
  std::vector<double> build_rss_mb_;
  Topology topo_;
  std::vector<Script> open_scripts_;
  std::vector<Script> pipelined_scripts_;
  Rounds open_rounds_;
  Rounds pipelined_rounds_;
  WriterResult writer_;
  std::vector<nucleus::EdgeEdit> edits_;
  double replay_qps_ = 0;
  double first_answer_ms_ = 0;
  double store_open_ms_ = 0;
  double store_first_query_ms_ = 0;
  // Per-layer results of the traced legs.
  std::map<std::string, double> layer_;
};

bool Bench::SetupStage() {
  std::vector<double> reps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // The last repeat writes the edge lists the builds read.
    const std::string suffix =
        rep + 1 < kSetupReps ? ".setup" + std::to_string(rep) : "";
    const std::int64_t s = MonoNanos();
    const ChildResult child = RunChild([&](FILE* report) {
      return GenerateInputs(args_, plan_, suffix, report);
    });
    AddSpan("setup.generate_and_write", s, MonoNanos());
    if (!child.ok) return false;
    reps.push_back(ParseReport(child.report).vals["setup_s"]);
  }
  setup_inputs_s_ = Median(reps);
  return true;
}

bool Bench::BuildStage() {
  // The first build is the warm-up and carries the build-side checks; the
  // measured builds follow until the stage's share of --seconds is spent.
  const ChildResult first = RunChild([&](FILE* report) {
    return BuildTenants(args_, plan_, false, true, "", report);
  });
  if (!first.ok) return false;
  build_checks_ = ParseReport(first.report);
  for (const TenantPlan& t : plan_.tenants) {
    tally_.Check(build_checks_.vals[t.name + ".fingerprint_match"] == 1,
                 t.name + ": lambda fingerprint differs from a t=1 run");
  }
  const double budget = plan_.build_share * args_.seconds;
  const std::int64_t stage_start = MonoNanos();
  for (int rep = 0;; ++rep) {
    const bool traced = args_.trace && rep % 2 == 1;
    const ChildResult child = RunChild([&](FILE* report) {
      return BuildTenants(args_, plan_, traced, false,
                          "." + std::to_string(rep), report);
    });
    ++tally_.attempted;
    if (!child.ok) {
      ++tally_.failed;
      return false;
    }
    Report report = ParseReport(child.report);
    report.vals["traced"] = traced ? 1 : 0;
    builds_.push_back(std::move(report));
    build_rss_mb_.push_back(child.peak_rss_mb);
    // Traced runs alternate traced and untraced builds (the difference is
    // the tracing overhead), so they need twice the minimum.
    const int needed = args_.trace ? 2 * kMinBuilds : kMinBuilds;
    const double spent = Seconds(MonoNanos() - stage_start);
    if ((rep + 1 >= needed && spent >= budget) || rep + 1 >= kMaxBuilds) break;
  }
  return true;
}

bool Bench::FirstAnswerStage() {
  std::vector<double> total_ms, open_ms, query_ms;
  for (int rep = 0; rep < kFirstAnswerReps; ++rep) {
    double total = 0, open = 0, query = 0;
    for (const TenantPlan& t : plan_.tenants) {
      const std::int64_t t0 = MonoNanos();
      auto source = nucleus::OpenSnapshotSource(
          SnapshotPath(args_, t), nucleus::SnapshotMemoryMode::kMmap);
      if (!source.ok()) return false;
      const std::int64_t t1 = MonoNanos();
      std::unique_ptr<QueryEngine> engine = QueryEngine::FromSource(*source);
      const QueryEngine::Response first =
          engine->Run({QueryEngine::QueryKind::kNucleus, 0, 1});
      const std::int64_t t2 = MonoNanos();
      if (!first.status.ok()) return false;
      open += Seconds(t1 - t0) * 1e3;
      query += Seconds(t2 - t1) * 1e3;
      total += Seconds(t2 - t0) * 1e3;
      if (args_.trace) {
        const std::int64_t parent = AddSpan("first_answer." + t.name, t0, t2);
        AddSpan("store.open", t0, t1, parent);
        AddSpan("engine.first_query", t1, t2, parent);
      }
      if (rep == 0) {
        // Build check: the cold-opened mmap file answers the probe script
        // exactly as the in-memory result did.
        std::string probe, expected;
        const bool have = ReadFile(ProbePath(args_, t), &probe) &&
                          ReadFile(ProbePath(args_, t) + ".ans", &expected);
        std::istringstream in(probe);
        std::ostringstream out;
        nucleus::ServeRequests(static_cast<const QueryEngine&>(*engine), in,
                               out);
        std::string got = out.str();
        if (Negative("probe") && &t == &plan_.tenants.front()) {
          CorruptOneAnswer(&got);
        }
        tally_.attempted += kProbeLines - 1;
        tally_.Check(have && got == expected,
                     t.name + ": mmap probe answers differ from the "
                              "in-memory result");
        shapes_[t.name] = ShapeOfSource(**source);
      }
    }
    total_ms.push_back(total);
    open_ms.push_back(open);
    query_ms.push_back(query);
  }
  first_answer_ms_ = Median(total_ms);
  store_open_ms_ = Median(open_ms);
  store_first_query_ms_ = Median(query_ms);
  return true;
}

// Replays `scripts` over stdin/stdout on a registry holding the read
// tenants read-only; returns the transcripts and the replay's line rate.
std::vector<std::string> StdioReplay(const Args& args, const WorkloadPlan& plan,
                                     const std::vector<const Script*>& scripts,
                                     double* qps) {
  auto registry = NewRegistry();
  for (const TenantPlan& t : plan.tenants) {
    if (t.read && !AttachTenant(*registry, args, t, false).ok()) return {};
  }
  nucleus::ServeOptions options;
  options.parallel.num_threads = 1;
  std::vector<std::string> out;
  std::size_t lines = 0;
  const std::int64_t t0 = MonoNanos();
  for (const Script* script : scripts) {
    std::istringstream in(script->text);
    std::ostringstream transcript;
    nucleus::ServeRegistryRequests(*registry, in, transcript, options);
    out.push_back(transcript.str());
    lines += script->size();
  }
  *qps = static_cast<double>(lines) / Seconds(MonoNanos() - t0);
  return out;
}

void Bench::ServePhase(const std::string& name, Topology* topo, bool restart,
                       const std::vector<Script>& scripts, double rate,
                       double seconds,
                       const std::vector<std::string>* expected,
                       Rounds* rounds) {
  const std::int64_t phase_start = MonoNanos();
  for (int round = 0;; ++round) {
    if (restart && !topo->RestartEntry().ok()) {
      tally_.Check(false, name + ": the entry server did not restart");
      return;
    }
    const std::int64_t t0 = MonoNanos();
    std::vector<SessionResult> sessions = RunRound(topo->port, scripts, rate);
    const std::int64_t t1 = MonoNanos();
    AddSpan(name, t0, t1);
    std::vector<double> latency, late;
    std::size_t lines = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      SessionResult& s = sessions[i];
      lines += scripts[i].size();
      for (std::int64_t ns : s.latency_ns) latency.push_back(ns * 1e-3);
      for (std::int64_t ns : s.late_ns) late.push_back(ns * 1e-3);
      const std::int64_t errors = CountErrorLines(s.transcript);
      tally_.attempted += static_cast<std::int64_t>(scripts[i].size());
      tally_.failed += errors;
      if (!s.ok || errors > 0) {
        const std::size_t at = s.transcript.find("{\"error\":");
        tally_.correct = false;
        tally_.notes.push_back(
            name + " reader " + std::to_string(i) + ": " +
            std::to_string(errors) + " error lines" +
            (s.ok ? "" : ", session failed") +
            (at == std::string::npos
                 ? ""
                 : ", first: " +
                       s.transcript.substr(at, s.transcript.find('\n', at) - at)));
      }
      if (expected != nullptr) {
        if (round == 0 && i == 0 && Negative("transcript")) {
          CorruptOneAnswer(&s.transcript);
        }
        // Counted once per transcript; its lines were counted above.
        if (s.transcript != (*expected)[i]) {
          ++tally_.failed;
          tally_.correct = false;
          tally_.notes.push_back(name + " reader " + std::to_string(i) +
                                 ": transcript differs from its stdio replay");
        }
      }
    }
    rounds->qps.push_back(static_cast<double>(lines) / Seconds(t1 - t0));
    if (rate > 0) {
      rounds->p50_us.push_back(Percentile(latency, 0.5));
      rounds->p90_us.push_back(Percentile(latency, 0.9));
      rounds->p99_us.push_back(Percentile(latency, 0.99));
      rounds->late_p99_us.push_back(Percentile(late, 0.99));
    }
    if (round + 1 >= kMinRounds &&
        Seconds(MonoNanos() - phase_start) >= seconds) {
      break;
    }
  }
  const auto range = [](const std::vector<double>& v) {
    std::ostringstream out;
    out << std::setprecision(4) << MidMean(v) << " ["
        << *std::min_element(v.begin(), v.end()) << ", "
        << *std::max_element(v.begin(), v.end()) << "]";
    return out.str();
  };
  std::cout << name << ": " << rounds->qps.size()
            << " rounds, mid-mean [min, max] lines/s " << range(rounds->qps);
  if (rate > 0) {
    std::cout << ", p50 us " << range(rounds->p50_us) << ", p90 us "
              << range(rounds->p90_us) << ", p99 us " << range(rounds->p99_us);
  }
  std::cout << "\n";
}

bool Bench::ServeStage() {
  const TenantPlan* live = nullptr;
  std::vector<const TenantPlan*> read;
  bool reads_live = false;
  for (const TenantPlan& t : plan_.tenants) {
    if (t.live) live = &t;
    if (t.read) read.push_back(&t);
    if (t.read && t.live) reads_live = true;
  }
  if (live == nullptr || read.empty()) return false;

  // Scripts: every line picks one read tenant uniformly. An open-loop
  // round lasts kRoundSeconds at the workload's rate.
  const double rate_per_reader = plan_.read_rate / kReaders;
  const double round_seconds = args_.toy ? 0.1 : kRoundSeconds;
  const auto open_lines =
      static_cast<std::int64_t>(std::llround(rate_per_reader * round_seconds));
  Rng rng(Mix64(args_.seed ^ 0x0ead));
  std::map<std::string, Shape> shapes = shapes_;
  for (const TenantPlan* t : read) {
    // Edits move a live tenant's max lambda and node count; a `nucleus`
    // past the one or a `members` past the other is an error, so its reads
    // stay in the lower half of both.
    if (!t->live) continue;
    Shape& shape = shapes[t->name];
    shape.max_lambda = std::max<Lambda>(1, shape.max_lambda / 2);
    std::erase_if(shape.small_nodes, [&](std::int32_t node) {
      return node >= shape.num_nodes / 2;
    });
  }
  const auto fill = [&](Script* script, std::int64_t lines) {
    for (std::int64_t i = 0; i < lines; ++i) {
      const TenantPlan& t = *read[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(read.size()) - 1))];
      script->Add(t.name + ":" + MixLine(rng, shapes[t.name]));
    }
  };
  open_scripts_.resize(kReaders);
  pipelined_scripts_.resize(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    fill(&open_scripts_[static_cast<std::size_t>(r)], open_lines);
    fill(&pipelined_scripts_[static_cast<std::size_t>(r)], plan_.pipelined_lines);
  }
  nucleus::StatusOr<Graph> live_graph =
      nucleus::ReadEdgeList(EdgeListPath(args_, *live));
  if (!live_graph.ok()) return false;
  // The concurrent writer stops on its deadline or when these run out;
  // the cap keeps a fast writer from rewriting a small graph wholesale.
  edits_ = MakeEdits(*live_graph,
                     plan_.concurrent_writer ? 10 * plan_.updates : plan_.updates,
                     Mix64(args_.seed ^ 0xed17));

  // When no read races the writer, every read transcript must be
  // byte-identical to a stdio replay of its script. The replay runs first,
  // on its own registry, so each round is checked as it ends. (Where reads
  // race the writer, the replay only prices the request-loop leg.)
  std::vector<std::string> replay;
  if (!reads_live || args_.trace) {
    std::vector<const Script*> scripts;
    for (const Script& s : open_scripts_) scripts.push_back(&s);
    for (const Script& s : pipelined_scripts_) scripts.push_back(&s);
    const std::int64_t t0 = MonoNanos();
    replay = StdioReplay(args_, plan_, scripts, &replay_qps_);
    AddSpan("check.stdio_replay", t0, MonoNanos());
    if (replay.size() != scripts.size()) return false;
  }
  std::vector<std::string> open_expected, pipelined_expected;
  if (!reads_live) {
    open_expected.assign(replay.begin(), replay.begin() + kReaders);
    pipelined_expected.assign(replay.begin() + kReaders, replay.end());
  }

  // Server start-up counts toward set-up time.
  const std::int64_t s0 = MonoNanos();
  const Status started = plan_.routed
                             ? StartRouted(args_, plan_.tenants, &topo_)
                             : StartDirect(args_, plan_.tenants, &topo_);
  const std::int64_t s1 = MonoNanos();
  AddSpan("setup.start_servers", s0, s1);
  server_start_s_ = Seconds(s1 - s0);
  if (!started.ok()) {
    std::cerr << "server start failed: " << started.ToString() << "\n";
    return false;
  }
  if (plan_.routed && topo_.router->BackendIndexFor(read[0]->name) ==
                          topo_.router->BackendIndexFor(read[1]->name)) {
    std::cerr << "tenant placement put both read tenants on one backend\n";
    return false;
  }

  // Phase A: open-loop readers (and a concurrent writer beside them).
  const double open_seconds = plan_.open_loop_share * args_.seconds;
  std::thread writer;
  if (plan_.concurrent_writer) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(open_seconds));
    writer = std::thread([&, deadline, port = topo_.port] {
      writer_ = RunWriter(port, live->name, edits_, plan_.updates, deadline);
    });
  }
  // The entry server restarts before every round, except under a
  // concurrent writer, whose connection must live through the phase.
  ServePhase("serve.open_loop", &topo_, !plan_.concurrent_writer,
             open_scripts_, rate_per_reader, open_seconds,
             reads_live ? nullptr : &open_expected, &open_rounds_);
  if (writer.joinable()) writer.join();

  // Phase B: pipelined closed-loop readers.
  ServePhase("serve.pipelined", &topo_, true, pipelined_scripts_, 0,
             plan_.pipelined_share * args_.seconds,
             reads_live ? nullptr : &pipelined_expected, &pipelined_rounds_);

  // Phase C: the writer alone, on the workloads that keep reads pure.
  if (!plan_.concurrent_writer) {
    const std::int64_t t0 = MonoNanos();
    writer_ = RunWriter(topo_.port, live->name, edits_, plan_.updates,
                        Clock::now());
    AddSpan("serve.updates", t0, MonoNanos());
  }
  tally_.attempted += writer_.sent;
  tally_.failed += writer_.not_applied;
  if (writer_.not_applied > 0 || writer_.sent < plan_.updates) {
    tally_.correct = false;
    tally_.notes.push_back(std::to_string(writer_.not_applied) +
                           " updates not applied, " +
                           std::to_string(writer_.sent) + " sent");
  }

  // After the last acked update the live tenant answers a probe exactly
  // like a fresh kDft decomposition of the edited edge set, rebuilt here
  // from the edits that were sent.
  const std::int64_t p0 = MonoNanos();
  const Graph edited = ApplyEdits(*live_graph, edits_,
                                  static_cast<std::size_t>(writer_.sent));
  nucleus::DecomposeOptions fresh_options;
  fresh_options.family = Family::kCore12;
  fresh_options.algorithm = Algorithm::kDft;
  fresh_options.parallel.num_threads = kThreads;
  nucleus::SnapshotData fresh = nucleus::MakeSnapshot(
      edited, fresh_options, nucleus::Decompose(edited, fresh_options), false);
  const Shape fresh_shape = ShapeOfSnapshot(fresh);
  const std::uint64_t probe_seed = Mix64(args_.seed ^ 0x11fe);
  const Script expected_probe = MakeProbe(probe_seed, fresh_shape, "", kProbeLines);
  std::unique_ptr<QueryEngine> fresh_engine =
      QueryEngine::FromSnapshotData(std::move(fresh));
  std::istringstream in(expected_probe.text);
  std::ostringstream expected;
  nucleus::ServeRequests(static_cast<const QueryEngine&>(*fresh_engine), in,
                         expected);
  const Script routed_probe =
      MakeProbe(probe_seed, fresh_shape, live->name + ":", kProbeLines);
  SessionResult probe = RunPipelined(topo_.port, routed_probe, kWindow);
  if (Negative("live")) CorruptOneAnswer(&probe.transcript);
  tally_.attempted += kProbeLines - 1;
  tally_.Check(probe.ok && probe.transcript == expected.str(),
               "live tenant differs from a fresh kDft decomposition of the "
               "edited graph");
  AddSpan("check.live_probe", p0, MonoNanos());
  return true;
}

void Bench::CollectCounters() {
  std::int64_t rejected = topo_.retired_lines_rejected;
  std::int64_t max_depth = topo_.retired_max_queue_depth;
  for (auto& b : topo_.backends) {
    const nucleus::TcpServerStats s = b->Stats();
    rejected += s.lines_rejected;
    max_depth = std::max(max_depth, s.max_queue_depth);
  }
  if (topo_.front) {
    const nucleus::TcpServerStats s = topo_.front->Stats();
    rejected += s.lines_rejected;
    max_depth = std::max(max_depth, s.max_queue_depth);
    RoundTripClient client(topo_.port);
    const std::string stats = client.Call("stats");
    layer_["router.backend_failures"] =
        std::stod(ExtractNumber(stats, "\"router\": {", "backend_failures"));
    layer_["router.lines_rejected"] =
        std::stod(ExtractNumber(stats, "\"router\": {", "lines_rejected"));
  }
  layer_["net.lines_rejected"] = static_cast<double>(rejected);
  layer_["net.max_queue_depth"] = static_cast<double>(max_depth);

  std::int64_t loads = 0, evictions = 0, hits = 0, misses = 0;
  for (auto& registry : topo_.registries) {
    for (const std::string& name : registry->TenantNames()) {
      nucleus::StatusOr<nucleus::TenantStats> stats = registry->Stats(name);
      if (!stats.ok()) continue;
      loads += stats->loads;
      evictions += stats->evictions;
      hits += stats->cache.hits;
      misses += stats->cache.misses;
    }
  }
  layer_["registry.loads"] = static_cast<double>(loads);
  layer_["registry.evictions"] = static_cast<double>(evictions);
  layer_["engine.members_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
}

void Bench::LiveReplay() {
  const TenantPlan* live = nullptr;
  for (const TenantPlan& t : plan_.tenants) {
    if (t.live) live = &t;
  }
  nucleus::StatusOr<Graph> g = nucleus::ReadEdgeList(EdgeListPath(args_, *live));
  nucleus::StatusOr<nucleus::SnapshotData> snapshot =
      nucleus::LoadSnapshotV2(SnapshotPath(args_, *live));
  if (!g.ok() || !snapshot.ok()) return;
  auto created = nucleus::LiveUpdater::Create(*g, *snapshot);
  if (!created.ok()) return;
  std::unique_ptr<nucleus::LiveUpdater> updater = std::move(created.value());
  std::unique_ptr<QueryEngine> engine =
      QueryEngine::FromSnapshotData(std::move(*snapshot));
  std::vector<double> apply_ms, swap_ms;
  std::int64_t visits = 0;
  const std::size_t count =
      std::min<std::size_t>(edits_.size(), kLiveReplayEdits);
  const std::int64_t root = AddSpan("leg.live", MonoNanos(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    nucleus::MutexLock lock(updater->apply_mutex());
    const std::int64_t t0 = MonoNanos();
    auto applied = updater->Apply(std::span<const nucleus::EdgeEdit>(&edits_[i], 1));
    const std::int64_t t1 = MonoNanos();
    if (!applied.ok()) continue;
    if (applied->changed) {
      (void)engine->ApplyUpdate(std::move(applied->snapshot));
    }
    const std::int64_t t2 = MonoNanos();
    AddSpan("live.apply", t0, t1, root);
    AddSpan("live.swap", t1, t2, root);
    apply_ms.push_back(Seconds(t1 - t0) * 1e3);
    swap_ms.push_back(Seconds(t2 - t1) * 1e3);
    visits += applied->report.subcore_visited;
  }
  if (args_.trace) trace_.End(root, MonoNanos());
  layer_["live.apply_ms"] = Median(apply_ms);
  layer_["live.swap_ms"] = Median(swap_ms);
  layer_["live.subcore_visits_per_edit"] =
      count > 0 ? static_cast<double>(visits) / static_cast<double>(count) : 0;
}

void Bench::Table1Comparison() {
  const TenantPlan* dense = nullptr;
  for (const TenantPlan& t : plan_.tenants) {
    if (t.family == Family::kNucleus34) dense = &t;
  }
  if (dense == nullptr) return;
  nucleus::StatusOr<Graph> g = nucleus::ReadEdgeList(EdgeListPath(args_, *dense));
  if (!g.ok()) return;
  // Serial, like the paper's Table 1.
  std::int64_t t0 = MonoNanos();
  const nucleus::BenchRun fnd =
      nucleus::RunBench(*g, Family::kNucleus34, Algorithm::kFnd);
  AddSpan("table1.fnd", t0, MonoNanos());
  t0 = MonoNanos();
  const nucleus::BenchRun dft =
      nucleus::RunBench(*g, Family::kNucleus34, Algorithm::kDft);
  AddSpan("table1.dft", t0, MonoNanos());
  const double budget = std::max(1.0, 0.5 * args_.seconds);
  t0 = MonoNanos();
  const nucleus::NaiveBenchRun naive =
      nucleus::RunNaiveBudgeted(*g, Family::kNucleus34, budget);
  AddSpan("table1.naive", t0, MonoNanos());
  layer_["core.fnd_speedup_over_dft"] = dft.total_seconds / fnd.total_seconds;
  layer_["core.fnd_speedup_over_naive"] =
      naive.total_seconds / fnd.total_seconds;
  const double over_naive = layer_["core.fnd_speedup_over_naive"];
  std::cout << std::setprecision(4) << "Table 1 check, (3,4) at t=1 on "
            << dense->name << " (|V|=" << g->NumVertices()
            << ", |E|=" << g->NumEdges() << "): FND " << fnd.total_seconds
            << " s, DFT " << dft.total_seconds << " s (FND "
            << layer_["core.fnd_speedup_over_dft"] << "x), Naive "
            << naive.total_seconds << " s"
            << (naive.completed ? "" : " (budget hit: a lower bound)")
            << " (FND " << over_naive << "x)\n"
            << "  paper Table 1, (3,4) FND over Naive: Stanford3 1321.89x*, "
               "twitter-hb 38.96x*, uk-2005 1.98x* (* = Naive timed out)\n";
  if (over_naive < 38.96) {
    std::cout << "  the paper's facebook100 regime is NOT reached here: "
              << over_naive << "x against 1321.89x on Stanford3"
              << (naive.completed ? "" : " (Naive stopped at its budget)")
              << "\n";
  }
}

void Bench::TracedLegs() {
  std::vector<const Script*> scripts;
  std::size_t lines = 0;
  for (const Script& s : open_scripts_) scripts.push_back(&s);
  for (const Script& s : pipelined_scripts_) scripts.push_back(&s);
  for (const Script* s : scripts) lines += s->size();

  // Leg 1, engine: the same lines as parsed queries, RunBatch per tenant on
  // a 4-thread pool, against freshly opened read-only tenants.
  {
    auto registry = NewRegistry();
    for (const TenantPlan& t : plan_.tenants) {
      if (t.read) (void)AttachTenant(*registry, args_, t, false);
    }
    std::map<std::string, std::vector<QueryEngine::Query>> by_tenant;
    for (const Script* s : scripts) {
      std::istringstream in(s->text);
      std::string line;
      while (std::getline(in, line)) {
        auto parsed = nucleus::ParseRoutedServeLine(line);
        if (parsed.ok()) {
          by_tenant[parsed->tenant].push_back(parsed->request.query);
        }
      }
    }
    nucleus::ThreadPool pool(kThreads);
    double seconds = 0;
    for (auto& [tenant, queries] : by_tenant) {
      auto lease = registry->Acquire(tenant);
      if (!lease.ok()) continue;
      const std::int64_t t0 = MonoNanos();
      const auto responses = lease->engine().RunBatch(queries, pool);
      const std::int64_t t1 = MonoNanos();
      AddSpan("leg.engine." + tenant, t0, t1);
      seconds += Seconds(t1 - t0);
    }
    layer_["engine.qps"] = static_cast<double>(lines) / seconds;
  }

  // Leg 2, request loop: the stdio replay timed in ServeStage.
  layer_["request_loop.qps"] = replay_qps_;

  // Leg 3, direct TCP at the same script and rate; leg 4, the router, is
  // the serve stage itself on the routed workload.
  const double routed_p50 = MidMean(open_rounds_.p50_us);
  if (plan_.routed) {
    std::vector<TenantPlan> read;
    for (const TenantPlan& t : plan_.tenants) {
      if (t.read) read.push_back(t);
    }
    Topology direct;
    Rounds open, pipelined;
    if (StartDirect(args_, read, &direct).ok()) {
      ServePhase("leg.net.open_loop", &direct, true, open_scripts_,
                 plan_.read_rate / kReaders,
                 plan_.open_loop_share * args_.seconds, nullptr, &open);
      ServePhase("leg.net.pipelined", &direct, true, pipelined_scripts_, 0,
                 plan_.pipelined_share * args_.seconds, nullptr, &pipelined);
    }
    direct.Stop();
    layer_["net.qps"] = MidMean(pipelined.qps);
    layer_["net.p50_us"] = MidMean(open.p50_us);
    layer_["router.hop_p50_us"] = routed_p50 - layer_["net.p50_us"];
  } else {
    layer_["net.qps"] = MidMean(pipelined_rounds_.qps);
    layer_["net.p50_us"] = routed_p50;
  }

  LiveReplay();
  Table1Comparison();
}

int Bench::Run() {
  ::signal(SIGPIPE, SIG_IGN);
  const auto fail = [&](const std::string& stage) {
    std::cerr << "pipeline_bench: " << plan_.name << ": " << stage
              << " failed\n";
    topo_.Stop();
    return 1;
  };
  if (!SetupStage()) return fail("set-up");
  if (!BuildStage()) return fail("build stage");
  if (!FirstAnswerStage()) return fail("first-answer stage");
  if (!ServeStage()) return fail("serve stage");
  if (args_.trace) {
    CollectCounters();
    TracedLegs();
  }
  topo_.Stop();

  // Builds: the end-to-end numbers come from untraced builds only.
  std::vector<double> build_s, rss;
  for (std::size_t i = 0; i < builds_.size(); ++i) {
    if (builds_[i].vals.at("traced") != 1) {
      build_s.push_back(builds_[i].vals.at("build_s"));
      rss.push_back(build_rss_mb_[i]);
    }
  }

  if (!args_.trace) {
    Emit("setup_s", setup_inputs_s_ + server_start_s_, "s");
    Emit("build_s", MidMean(build_s), "s");
    Emit("build_peak_rss_mb", Median(rss), "MB");
    Emit("first_answer_ms", first_answer_ms_, "ms");
    Emit("read_p50_us", MidMean(open_rounds_.p50_us), "us");
    Emit("read_p90_us", MidMean(open_rounds_.p90_us), "us");
    Emit("update_p50_ms", Percentile(writer_.latency_ms, 0.5), "ms");
  } else {
    // Per-layer build attribution: mid-means over the traced builds of each
    // wrapped call, summed over the workload's tenants.
    std::map<std::string, std::vector<double>> per;
    for (std::size_t i = 0; i < builds_.size(); ++i) {
      const Report& r = builds_[i];
      if (r.vals.at("traced") != 1) continue;
      std::int64_t lo = INT64_MAX, hi = 0;
      for (const Span& s : r.spans) {
        lo = std::min(lo, s.start_ns);
        hi = std::max(hi, s.end_ns);
      }
      const std::int64_t root = AddSpan("build", lo, hi);
      std::map<std::string, double> sum;
      for (const Span& s : r.spans) {
        AddSpan(s.name, s.start_ns, s.end_ns, root);
        const std::string layer = s.name.substr(s.name.find('.') + 1);
        sum[layer] += s.seconds();
      }
      double index = 0, peel = 0, traverse = 0, phases = 0, cpu = 0;
      for (const TenantPlan& t : plan_.tenants) {
        index += r.vals.at(t.name + ".index_s");
        peel += r.vals.at(t.name + ".peel_s");
        traverse += r.vals.at(t.name + ".traverse_s");
        phases += r.vals.at(t.name + ".phase_total_s");
        cpu += r.vals.at(t.name + ".write_cpu_s");
      }
      per["graph.load_s"].push_back(sum["graph.load"]);
      per["cliques.index_s"].push_back(index);
      per["core.peel_s"].push_back(peel);
      per["core.traverse_s"].push_back(traverse);
      per["core.tree_s"].push_back(sum["core.decompose"] - phases);
      per["store.make_snapshot_s"].push_back(sum["store.make_snapshot"]);
      per["store.write_cpu_s"].push_back(cpu);
      per["store.write_wait_s"].push_back(sum["store.write"] - cpu);
      per["build_s"].push_back(r.vals.at("build_s"));
    }
    double input_mb = 0, snapshot_mb = 0, kr = 0, nodes = 0, subnuclei = 0,
           adj = 0, peel1 = 0;
    const Report& first = builds_.front();
    for (const TenantPlan& t : plan_.tenants) {
      input_mb += static_cast<double>(FileBytes(EdgeListPath(args_, t))) / 1e6;
      snapshot_mb += static_cast<double>(FileBytes(SnapshotPath(args_, t))) / 1e6;
      // (1,2) uses no clique index: its K_1 are the vertices.
      if (t.family != Family::kCore12) kr += first.vals.at(t.name + ".kr");
      nodes += first.vals.at(t.name + ".nodes");
      subnuclei += first.vals.at(t.name + ".subnuclei");
      adj += first.vals.at(t.name + ".adj");
      peel1 += build_checks_.vals.at(t.name + ".peel1_s");
    }
    const double peel4 = MidMean(per["core.peel_s"]);
    Emit("graph.load_s", MidMean(per["graph.load_s"]), "s");
    Emit("graph.input_mb", input_mb, "MB");
    Emit("cliques.index_s", MidMean(per["cliques.index_s"]), "s");
    Emit("cliques.kr_count", kr, "count");
    Emit("core.peel_s", peel4, "s");
    Emit("core.traverse_s", MidMean(per["core.traverse_s"]), "s");
    Emit("core.tree_s", MidMean(per["core.tree_s"]), "s");
    Emit("core.nodes", nodes, "count");
    Emit("core.subnuclei", subnuclei, "count");
    Emit("core.adj", adj, "count");
    Emit("core.fnd_speedup_over_dft", layer_["core.fnd_speedup_over_dft"], "x");
    Emit("core.fnd_speedup_over_naive", layer_["core.fnd_speedup_over_naive"],
         "x");
    Emit("parallel.peel_speedup_t4", peel4 > 0 ? peel1 / peel4 : 0.0, "x");
    Emit("store.make_snapshot_s", MidMean(per["store.make_snapshot_s"]), "s");
    Emit("store.write_cpu_s", MidMean(per["store.write_cpu_s"]), "s");
    Emit("store.write_wait_s", MidMean(per["store.write_wait_s"]), "s");
    Emit("store.snapshot_mb", snapshot_mb, "MB");
    Emit("store.open_ms", store_open_ms_, "ms");
    Emit("store.first_query_ms", store_first_query_ms_, "ms");
    for (const char* name :
         {"engine.qps", "engine.members_hit_ratio", "request_loop.qps",
          "net.qps", "net.p50_us", "net.lines_rejected",
          "net.max_queue_depth", "router.hop_p50_us",
          "router.backend_failures", "router.lines_rejected",
          "registry.loads", "registry.evictions", "live.apply_ms",
          "live.swap_ms", "live.subcore_visits_per_edit"}) {
      static const std::map<std::string, std::string> kUnits = {
          {"engine.qps", "1/s"},          {"engine.members_hit_ratio", "ratio"},
          {"request_loop.qps", "1/s"},    {"net.qps", "1/s"},
          {"net.p50_us", "us"},           {"router.hop_p50_us", "us"},
          {"live.apply_ms", "ms"},        {"live.swap_ms", "ms"}};
      const auto unit = kUnits.find(name);
      Emit(name, layer_[name], unit == kUnits.end() ? "count" : unit->second);
    }
    Emit("loadgen.late_p99_us", MidMean(open_rounds_.late_p99_us), "us");
    // Read throughput, read p99 and update p95 swing between runs past any
    // bound the end-to-end set may carry on a shared 4-vCPU machine, so
    // they are reported here, ungated, as what the load generator saw.
    Emit("loadgen.read_qps", MidMean(pipelined_rounds_.qps), "1/s");
    Emit("loadgen.read_p99_us", MidMean(open_rounds_.p99_us), "us");
    Emit("loadgen.update_p95_ms", Percentile(writer_.latency_ms, 0.95), "ms");
    const double untraced = MidMean(build_s);
    Emit("trace.overhead_frac",
         untraced > 0 ? MidMean(per["build_s"]) / untraced - 1.0 : 0.0, "ratio");

    const double attributed =
        MidMean(per["graph.load_s"]) + MidMean(per["cliques.index_s"]) + peel4 +
        MidMean(per["core.traverse_s"]) + MidMean(per["core.tree_s"]) +
        MidMean(per["store.make_snapshot_s"]) + MidMean(per["store.write_cpu_s"]) +
        MidMean(per["store.write_wait_s"]);
    std::cout << std::setprecision(6)
              << "build attribution (traced medians): graph + cliques + core "
                 "+ store = "
              << attributed << " s against traced build_s "
              << MidMean(per["build_s"]) << " s (untraced " << untraced
              << " s)\n"
              << "update path: update_p50_ms " << Percentile(writer_.latency_ms, 0.5)
              << " against live.apply_ms + live.swap_ms "
              << layer_["live.apply_ms"] + layer_["live.swap_ms"] << "\n";
    if (!args_.trace_out.empty() && !trace_.WriteJsonLines(args_.trace_out)) {
      std::cerr << "could not write " << args_.trace_out << "\n";
    }
  }

  std::cout << std::setprecision(10);
  for (const Metric& m : metrics_) {
    std::cout << plan_.name << "  " << std::left << std::setw(30) << m.name
              << std::right << " " << m.value << " " << m.unit << "\n";
  }
  for (const std::string& note : tally_.notes) {
    std::cout << "check failed: " << note << "\n";
  }
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": "
       << (tally_.correct ? "true" : "false")
       << ", \"attempted\": " << tally_.attempted
       << ", \"failed\": " << tally_.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return tally_.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  for (perfbench::WorkloadPlan& plan : perfbench::Plans(args.toy)) {
    if (plan.name == args.workload) {
      return perfbench::Bench(args, std::move(plan)).Run();
    }
  }
  perfbench::Usage("unknown workload " + args.workload);
}
