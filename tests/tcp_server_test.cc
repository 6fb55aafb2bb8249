// Conformance, fault-injection and lifecycle tests for the TCP serving
// tier: the same fuzz corpus the stdio loop is pinned against must come
// back byte-identical over a real socket, transport-level rejections
// (admission-queue overflow, oversized lines) must be structured errors
// with correct line numbers, a mid-line disconnect must serve the partial
// final line, and graceful drain must finish in-flight work before
// closing. Suites are named TcpServer* so the CI TSan job picks them up.
#include "nucleus/serve/net/tcp_server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::JsonIntAfter;
using testing_util::TempPath;

/// Blocking loopback dial; the server is already listening when tests
/// call this, so no retry loop is needed.
int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

/// Streams `payload` to `fd` from a side thread (so a payload larger than
/// the socket buffers cannot deadlock against unread responses), half-
/// closes, and returns everything the server sent back. A reset after the
/// server's drain counts as end-of-stream.
std::string SendAndCollect(int fd, const std::string& payload) {
  std::thread writer([fd, &payload] {
    const char* p = payload.data();
    std::size_t left = payload.size();
    while (left > 0) {
      const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
  });
  std::string received;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  writer.join();
  ::close(fd);
  return received;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  return lines;
}

/// The fuzz corpus of tests/request_loop_fuzz_test.cc (same shapes, same
/// seeds): valid routed/unrouted lines mixed with every malformed shape
/// an untrusted client produces. Mirrored here because both files keep
/// their corpus in an anonymous namespace on purpose — the TCP tier must
/// hold against the same traffic the stdio loop is pinned against.
std::vector<std::string> BuildCorpus(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick_int = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const std::vector<std::string> verbs = {"lambda", "nucleus", "common",
                                          "level",  "top",     "members"};
  const std::vector<std::string> tenants = {"alpha", "beta", "ghost"};

  std::vector<std::string> lines;
  for (int i = 0; i < 600; ++i) {
    std::string line;
    switch (pick_int(0, 13)) {
      case 0: {
        const std::string& verb = verbs[static_cast<std::size_t>(
            pick_int(0, static_cast<std::int64_t>(verbs.size()) - 1))];
        line = verb + " " + std::to_string(pick_int(-3, 40));
        if (verb == "nucleus" || verb == "common" || verb == "level") {
          line += " " + std::to_string(pick_int(-3, 40));
        }
        break;
      }
      case 1: {
        const std::string& tenant = tenants[static_cast<std::size_t>(
            pick_int(0, static_cast<std::int64_t>(tenants.size()) - 1))];
        line = tenant + ":lambda " + std::to_string(pick_int(0, 12));
        break;
      }
      case 2:
        line = "frobnicate " + std::to_string(pick_int(0, 9));
        break;
      case 3: {
        line = verbs[static_cast<std::size_t>(pick_int(0, 5))];
        for (std::int64_t k = pick_int(0, 4); k > 0; --k) {
          if (k != 1 || pick_int(0, 1) == 0) line += " 1";
        }
        break;
      }
      case 4:
        line = "lambda " + std::to_string(pick_int(0, 99)) +
               (pick_int(0, 1) == 0 ? "x" : ".5");
        break;
      case 5:
        line = "members 99999999999999999999999999999999";
        break;
      case 6: {
        line = std::string(static_cast<std::size_t>(pick_int(100, 8192)),
                           'x') +
               " 1";
        break;
      }
      case 7: {
        line = "lambda 1";
        line[pick_int(0, 1) == 0 ? 6 : 2] = '\0';
        if (pick_int(0, 1) == 0) line += '\x01';
        break;
      }
      case 8:
        switch (pick_int(0, 3)) {
          case 0: line = ":lambda 1"; break;
          case 1: line = "alpha: 1"; break;
          case 2: line = "bad name!:lambda 1"; break;
          default: line = "alpha:"; break;
        }
        break;
      case 9:
        switch (pick_int(0, 3)) {
          case 0: line = "attach"; break;
          case 1: line = "attach x nonsense"; break;
          case 2: line = "detach"; break;
          default: line = "tenants extra"; break;
        }
        break;
      case 10:
        line = "attach t" + std::to_string(pick_int(0, 9)) +
               " snapshot=/nonexistent/p" + std::to_string(pick_int(0, 9)) +
               ".nucsnap";
        break;
      case 11:
        switch (pick_int(0, 3)) {
          case 0: line = "update 0 5 +"; break;
          case 1: line = "update 0 5 *"; break;
          case 2: line = "alpha:update 1 2 -"; break;
          default: line = "update -1 2 +"; break;
        }
        break;
      case 12:
        line = pick_int(0, 1) == 0 ? "# comment " : "   \t ";
        break;
      default:
        line = "lambda +" + std::to_string(pick_int(0, 9));
        break;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string script;
  for (const std::string& line : lines) {
    script += line;
    script += '\n';
  }
  return script;
}

/// Two tenants with the fuzz test's exact shapes: alpha live (updates
/// apply), beta read-only truss.
struct FuzzTenants {
  TenantSpec alpha, beta;
  FuzzTenants() {
    const Graph alpha_graph = testing_util::PaperFigure2Graph();
    DecomposeOptions alpha_options;
    alpha_options.family = Family::kCore12;
    alpha_options.algorithm = Algorithm::kDft;
    alpha.name = "alpha";
    alpha.snapshot_path = TempPath("tcp_alpha.nucsnap");
    EXPECT_TRUE(SaveSnapshotV2(
                    MakeSnapshot(alpha_graph, alpha_options,
                                 Decompose(alpha_graph, alpha_options), true),
                    alpha.snapshot_path)
                    .ok());
    alpha.graph_path = TempPath("tcp_alpha_edges.txt");
    EXPECT_TRUE(WriteEdgeList(alpha_graph, alpha.graph_path).ok());

    const Graph beta_graph = Complete(6);
    DecomposeOptions beta_options;
    beta_options.family = Family::kTruss23;
    beta.name = "beta";
    beta.snapshot_path = TempPath("tcp_beta.nucsnap");
    EXPECT_TRUE(SaveSnapshotV2(
                    MakeSnapshot(beta_graph, beta_options,
                                 Decompose(beta_graph, beta_options), true),
                    beta.snapshot_path)
                    .ok());
  }
};

std::unique_ptr<QueryEngine> MakeFigure2Engine() {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kFnd;
  const DecompositionResult result = Decompose(g, options);
  return QueryEngine::FromSnapshotData(MakeSnapshot(g, options, result, true));
}

// The core conformance contract of the tier: a routed fuzz session over a
// real socket is byte-identical to the same lines served over
// stdin/stdout (fresh, identically seeded registries on both sides —
// the corpus mutates state via updates and attaches).
TEST(TcpServerFuzz, TranscriptMatchesStdioByteForByte) {
  FuzzTenants tenants;
  for (const std::uint64_t seed : {3u, 41u}) {
    SCOPED_TRACE(seed);
    const std::string script = JoinLines(BuildCorpus(seed));

    SnapshotRegistry tcp_registry;
    ASSERT_TRUE(tcp_registry.Attach(tenants.alpha).ok());
    ASSERT_TRUE(tcp_registry.Attach(tenants.beta).ok());
    TcpServerOptions options;
    options.serve.parallel.num_threads = 4;
    TcpServer server(MakeRegistryResolver(tcp_registry), &tcp_registry,
                     options);
    ASSERT_TRUE(server.Start().ok());
    const std::string tcp_transcript =
        SendAndCollect(Dial(server.port()), script);
    server.Stop();

    SnapshotRegistry stdio_registry;
    ASSERT_TRUE(stdio_registry.Attach(tenants.alpha).ok());
    ASSERT_TRUE(stdio_registry.Attach(tenants.beta).ok());
    std::istringstream in(script);
    std::ostringstream out;
    ServeOptions serve_options;
    serve_options.parallel.num_threads = 4;
    ServeRegistryRequests(stdio_registry, in, out, serve_options);

    EXPECT_EQ(tcp_transcript, out.str());
    EXPECT_FALSE(tcp_transcript.empty());
  }
}

// Transport-level line hygiene: oversized lines (beyond max_line_bytes)
// are rejected without buffering and WITHOUT losing their response slot,
// NUL-bearing lines become parser errors, and lines after either keep
// serving with correct global line numbers.
TEST(TcpServerFuzz, OversizedAndNulLinesAreStructuredErrors) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  TcpServerOptions options;
  options.max_line_bytes = 1024;
  TcpServer server(
      MakeEngineResolver(*engine, nullptr), nullptr,
      options);
  ASSERT_TRUE(server.Start().ok());

  std::string nul_line = "lambda 1";
  nul_line[2] = '\0';
  const std::string script = "lambda 0\n" +                  // line 1: ok
                             std::string(5000, 'x') + "\n" + // line 2: big
                             nul_line + "\n" +               // line 3: NUL
                             "lambda 3\n";                   // line 4: ok
  const std::string transcript =
      SendAndCollect(Dial(server.port()), script);
  server.Stop();

  const std::vector<std::string> responses = SplitLines(transcript);
  ASSERT_EQ(responses.size(), 4u) << transcript;
  EXPECT_NE(responses[0].find("\"lambda\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[1].find("exceeds"), std::string::npos);
  EXPECT_NE(responses[1].find("\"line\": 2"), std::string::npos);
  EXPECT_LT(responses[1].size(), 400u);  // the 5KB line is not echoed
  EXPECT_NE(responses[2].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[2].find("\"line\": 3"), std::string::npos);
  EXPECT_NE(responses[3].find("\"lambda\""), std::string::npos);

  EXPECT_EQ(server.Stats().oversized_lines, 1);
}

// A connection that dies mid-line gets its partial final line served the
// way std::getline serves an unterminated last line — as a line.
TEST(TcpServerFuzz, MidLineDisconnectServesPartialFinalLine) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  TcpServer server(
      MakeEngineResolver(*engine, nullptr), nullptr,
      TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // No trailing newline on the final token; half-close ends the stream.
  const std::string transcript =
      SendAndCollect(Dial(server.port()), "lambda 0\nlambda");
  server.Stop();

  const std::vector<std::string> responses = SplitLines(transcript);
  ASSERT_EQ(responses.size(), 2u) << transcript;
  EXPECT_NE(responses[0].find("\"lambda\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"line\": 2"), std::string::npos);
}

// Back-pressure: with the worker wedged on line 1 (a resolver that blocks
// until released), lines past the high-water mark are rejected — each
// with a structured error carrying its own line number — rather than
// buffered without bound. Rejection happens at ADMISSION (the server's
// queue-depth gauge never exceeds the mark), and the rejected lines'
// responses still come back in input order.
TEST(TcpServerBackpressure, RejectsPastHighWaterWithLineNumbers) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool released = false;
  const ServeSessionResolver resolver =
      [&](const std::string& tenant) -> StatusOr<ServeSession> {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      entered = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return released; });
    }
    return MakeEngineResolver(*engine,
                              nullptr)(tenant);
  };

  TcpServerOptions options;
  options.queue_high_water = 4;
  TcpServer server(resolver, nullptr, options);
  ASSERT_TRUE(server.Start().ok());
  const int fd = Dial(server.port());

  // Line 1 wedges the worker inside the resolver...
  ASSERT_GT(::send(fd, "lambda 0\n", 9, MSG_NOSIGNAL), 0);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return entered; });
  }
  // ...then 10 more lines arrive: 4 fit under the high-water mark, 6 are
  // rejected at admission.
  std::string burst;
  for (int i = 1; i <= 10; ++i) {
    burst += "lambda " + std::to_string(i) + "\n";
  }
  ASSERT_GT(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL), 0);
  for (int spin = 0; spin < 500 && server.Stats().lines_rejected < 6;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const TcpServerStats wedged = server.Stats();
  EXPECT_EQ(wedged.lines_rejected, 6);
  EXPECT_EQ(wedged.lines_admitted, 5);
  EXPECT_LE(wedged.queue_depth, options.queue_high_water);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
    gate_cv.notify_all();
  }

  const std::string transcript = SendAndCollect(fd, "");
  server.Stop();
  const std::vector<std::string> responses = SplitLines(transcript);
  ASSERT_EQ(responses.size(), 11u) << transcript;
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(responses[i].find("\"lambda\""), std::string::npos)
        << responses[i];
  }
  for (int i = 5; i < 11; ++i) {
    EXPECT_NE(responses[i].find("admission queue full"), std::string::npos)
        << responses[i];
    EXPECT_NE(responses[i].find("\"line\": " + std::to_string(i + 1)),
              std::string::npos)
        << responses[i];
  }
}

// Graceful drain under load: clients are streaming when the drain lands.
// The server stops accepting and admitting, finishes what it admitted,
// and every client sees a well-formed response prefix followed by EOF —
// never a torn line.
TEST(TcpServerDrain, DrainUnderLoadFinishesInFlightAndCloses) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  TcpServer server(
      MakeEngineResolver(*engine, nullptr), nullptr,
      TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<std::string> received(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &server, &received] {
      const int fd = Dial(server.port());
      std::thread pump([fd] {
        const std::string line = "lambda 3\n";
        for (int i = 0; i < 20000; ++i) {
          const ssize_t n =
              ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
          if (n <= 0) break;  // server drained mid-stream: stop pumping
        }
        ::shutdown(fd, SHUT_WR);
      });
      char chunk[65536];
      for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // EOF or reset after drain: both end the run
        received[c].append(chunk, static_cast<std::size_t>(n));
      }
      pump.join();
      ::close(fd);
    });
  }

  // Let the load build, then pull the plug mid-flight.
  for (int spin = 0; spin < 500 && server.Stats().lines_admitted < 100;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.RequestDrain();
  server.Wait();
  for (std::thread& t : clients) t.join();

  const TcpServerStats stats = server.Stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.connections_open, 0);
  EXPECT_EQ(stats.connections_drained, stats.connections_accepted);

  std::int64_t total_responses = 0;
  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE(c);
    // Every complete line in the prefix is one well-formed JSON object.
    const std::vector<std::string> lines = SplitLines(received[c]);
    for (const std::string& line : lines) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line.front(), '{') << line;
      EXPECT_EQ(line.back(), '}') << line;
    }
    total_responses += static_cast<std::int64_t>(lines.size());
  }
  EXPECT_GT(total_responses, 0);
}

// The `shutdown` protocol verb drains the WHOLE server: the issuing
// connection gets its acknowledgement, other open connections are wound
// down, and Wait() returns without any server-side Stop() call.
TEST(TcpServerDrain, ShutdownVerbDrainsWholeServer) {
  FuzzTenants tenants;
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(tenants.alpha).ok());
  TcpServer server(MakeRegistryResolver(registry), &registry,
                   TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  const int idle = Dial(port);  // a second connection, sitting quiet
  std::string idle_tail;
  std::thread idle_reader([idle, &idle_tail] {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(idle, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      idle_tail.append(chunk, static_cast<std::size_t>(n));
    }
  });

  const std::string transcript =
      SendAndCollect(Dial(port), "alpha:lambda 0\nstats\nshutdown\n");
  server.Wait();  // the verb alone must bring the server down
  idle_reader.join();
  ::close(idle);

  const std::vector<std::string> responses = SplitLines(transcript);
  ASSERT_EQ(responses.size(), 3u) << transcript;
  EXPECT_NE(responses[0].find("\"lambda\""), std::string::npos);
  // The stats verb exports per-tenant rows, registry counters AND the
  // server's own connection/queue gauges in one object.
  EXPECT_NE(responses[1].find("\"tenants\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"registry\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"server\": {"), std::string::npos);
  EXPECT_NE(responses[1].find("\"connections_accepted\": 2"),
            std::string::npos);
  EXPECT_NE(responses[1].find("\"queue_high_water\": 1024"),
            std::string::npos);
  EXPECT_EQ(responses[2], "{\"query\": \"shutdown\", \"ok\": true}");
  EXPECT_TRUE(idle_tail.empty());  // wound down without inventing output

  const TcpServerStats stats = server.Stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.connections_open, 0);
  EXPECT_EQ(stats.connections_drained, 2);
}

// Two connections hammering the SAME live tenant with updates: every
// update batch must apply exactly once, in some serial order (the
// updater's apply mutex — without it the workers race inside
// LiveUpdater::Apply and TSan flags this test). Each connection toggles
// its own absent edge, so all of its updates report applied:true
// regardless of interleaving, and the net graph is unchanged.
TEST(TcpServerConcurrency, ConcurrentUpdatesOnOneTenantSerialize) {
  FuzzTenants tenants;
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(tenants.alpha).ok());
  TcpServer server(MakeRegistryResolver(registry), &registry,
                   TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  constexpr int kToggles = 40;
  const auto script = [](const std::string& edge) {
    std::string lines;
    for (int i = 0; i < kToggles; ++i) {
      lines += "alpha:update " + edge + " +\n";
      lines += "alpha:update " + edge + " -\n";
    }
    return lines;
  };
  std::string transcripts[2];
  std::thread first([&] {
    transcripts[0] = SendAndCollect(Dial(port), script("0 4"));
  });
  std::thread second([&] {
    transcripts[1] = SendAndCollect(Dial(port), script("1 5"));
  });
  first.join();
  second.join();

  for (const std::string& transcript : transcripts) {
    const std::vector<std::string> responses = SplitLines(transcript);
    ASSERT_EQ(responses.size(), 2u * kToggles);
    for (const std::string& line : responses) {
      EXPECT_NE(line.find("\"applied\": true"), std::string::npos) << line;
    }
  }
  // Every batch was counted once, and the toggles cancelled out: the
  // bridge cycle answers exactly as before the storm.
  EXPECT_EQ(registry.Stats("alpha")->updates, 4 * kToggles);
  const std::string after =
      SendAndCollect(Dial(port), "alpha:lambda 8\nalpha:lambda 0\n");
  server.Stop();
  const std::vector<std::string> answers = SplitLines(after);
  ASSERT_EQ(answers.size(), 2u) << after;
  EXPECT_NE(answers[0].find("\"lambda\": 2"), std::string::npos) << after;
  EXPECT_NE(answers[1].find("\"lambda\": 3"), std::string::npos) << after;
}

// max_queue_depth is a compare-exchange high-water mark. Concurrent
// Stats() readers race the admission/dequeue traffic of several wedged
// connections; every reader must see a monotonically non-decreasing
// maximum (a lossy load-then-store could publish a smaller value over a
// larger one), and once admission quiesces the mark must cover the
// observed steady-state depth. TSan runs this suite, so the reader/
// writer races on the stat atomics are covered too.
TEST(TcpServerConcurrency, MaxQueueDepthIsAMonotonicHighWaterMark) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  int entered = 0;
  bool released = false;
  const ServeSessionResolver resolver =
      [&](const std::string& tenant) -> StatusOr<ServeSession> {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      ++entered;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return released; });
    }
    return MakeEngineResolver(*engine, nullptr)(tenant);
  };

  TcpServerOptions options;
  options.queue_high_water = 1024;
  TcpServer server(resolver, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop_polling{false};
  std::atomic<std::int64_t> regressions{0};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&] {
      std::int64_t last_max = 0;
      while (!stop_polling.load(std::memory_order_acquire)) {
        const std::int64_t max = server.Stats().max_queue_depth;
        if (max < last_max) regressions.fetch_add(1);
        last_max = max;
      }
    });
  }

  // Four connections: line 1 wedges each worker inside the resolver,
  // then a 50-line burst per connection piles up in the queues.
  constexpr int kConns = 4;
  constexpr int kBurst = 50;
  std::vector<int> fds;
  for (int c = 0; c < kConns; ++c) {
    const int fd = Dial(server.port());
    fds.push_back(fd);
    ASSERT_GT(::send(fd, "lambda 0\n", 9, MSG_NOSIGNAL), 0);
  }
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return entered == kConns; });
  }
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += "lambda " + std::to_string(i % 10) + "\n";
  }
  for (const int fd : fds) {
    ASSERT_GT(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL), 0);
  }
  for (int spin = 0;
       spin < 500 && server.Stats().lines_admitted < kConns * (kBurst + 1);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Steady state: each worker dequeued its wedge line and is blocked, so
  // exactly kConns * kBurst admitted lines sit in the queues — and the
  // high-water mark must already cover them.
  const TcpServerStats wedged = server.Stats();
  EXPECT_EQ(wedged.lines_admitted, kConns * (kBurst + 1));
  EXPECT_EQ(wedged.queue_depth, kConns * kBurst);
  EXPECT_GE(wedged.max_queue_depth, wedged.queue_depth);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
    gate_cv.notify_all();
  }
  std::vector<std::thread> drains;
  std::vector<std::string> transcripts(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    drains.emplace_back(
        [&, i] { transcripts[i] = SendAndCollect(fds[i], ""); });
  }
  for (std::thread& d : drains) d.join();
  server.Stop();
  stop_polling.store(true, std::memory_order_release);
  for (std::thread& p : pollers) p.join();

  EXPECT_EQ(regressions.load(), 0);  // the mark never moved backwards
  const TcpServerStats final_stats = server.Stats();
  EXPECT_EQ(final_stats.queue_depth, 0);
  EXPECT_GE(final_stats.max_queue_depth, wedged.queue_depth);
  for (const std::string& transcript : transcripts) {
    EXPECT_EQ(SplitLines(transcript).size(),
              static_cast<std::size_t>(kBurst + 1));
  }
}

// Connections beyond max_connections are answered with one structured
// error object and closed — a parseable refusal, not a silent reset —
// while the connection already inside keeps serving.
TEST(TcpServerLimit, ConnectionsPastLimitGetStructuredError) {
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  TcpServerOptions options;
  options.max_connections = 1;
  TcpServer server(
      MakeEngineResolver(*engine, nullptr), nullptr,
      options);
  ASSERT_TRUE(server.Start().ok());

  const int first = Dial(server.port());
  for (int spin = 0; spin < 500 && server.Stats().connections_accepted < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string refusal = SendAndCollect(Dial(server.port()), "");
  EXPECT_NE(refusal.find("\"error\""), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("connection limit"), std::string::npos);
  EXPECT_EQ(server.Stats().connections_rejected, 1);

  // The first connection is unaffected.
  const std::string transcript = SendAndCollect(first, "lambda 0\n");
  EXPECT_NE(transcript.find("\"lambda\""), std::string::npos);
  server.Stop();
}

// Regression for the Start-retry fd leak fixed alongside the
// thread-safety annotation rollout: a failed Start() (port already
// taken) used to create a fresh wake pipe on every attempt without
// closing the previous pair, leaking two fds per retry. Occupy a port,
// fail Start() repeatedly, and assert the process's open-fd count stays
// flat; then free the port and check the same server object starts and
// serves normally.
TEST(TcpServerLifecycle, FailedStartIsRetryableWithoutLeakingFds) {
  const auto count_open_fds = [] {
    int n = 0;
    DIR* dir = opendir("/proc/self/fd");
    EXPECT_NE(dir, nullptr);
    while (readdir(dir) != nullptr) ++n;
    closedir(dir);
    return n;
  };

  // Occupy an ephemeral port so Start() fails with "address in use".
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(blocker, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int taken_port = ntohs(addr.sin_port);

  FuzzTenants tenants;
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(tenants.alpha).ok());
  TcpServerOptions options;
  options.port = taken_port;
  TcpServer server(MakeRegistryResolver(registry), &registry, options);

  ASSERT_FALSE(server.Start().ok());  // first failure creates the wake pipe
  const int fds_after_first_failure = count_open_fds();
  for (int attempt = 0; attempt < 20; ++attempt) {
    ASSERT_FALSE(server.Start().ok());
  }
  // Pre-fix this grew by 2 fds per attempt (40 here).
  EXPECT_EQ(count_open_fds(), fds_after_first_failure);

  // Free the port; the same object must now start and serve.
  ASSERT_EQ(::close(blocker), 0);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.port(), taken_port);
  const std::string transcript =
      SendAndCollect(Dial(server.port()), "alpha:lambda 0\n");
  EXPECT_NE(transcript.find("\"lambda\""), std::string::npos) << transcript;
  server.Stop();
}

// Regression for the accept-path EMFILE spin: under fd exhaustion,
// accept() fails without consuming the pending connection, and a
// level-triggered poll() re-fires immediately — the old loop treated
// every failure as transient and re-entered accept in a hot spin. The
// fix counts the failure (accept_errors, also a registry counter) and
// backs off briefly, keeping the listener alive; once fds free up, the
// SAME pending connection must be accepted and served.
TEST(TcpServerLifecycle, SurvivesFdExhaustionAndRecovers) {
  const auto count_open_fds = [] {
    int n = 0;
    DIR* dir = opendir("/proc/self/fd");
    EXPECT_NE(dir, nullptr);
    while (readdir(dir) != nullptr) ++n;
    closedir(dir);
    return n;
  };
  const std::unique_ptr<QueryEngine> engine = MakeFigure2Engine();
  TcpServer server(MakeEngineResolver(*engine, nullptr), nullptr,
                   TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Stats().accept_errors, 0);

  // Tighten the fd ceiling to just above the current table, then hoard
  // every remaining slot except ONE — the client's own socket.
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(count_open_fds() + 8);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hoard;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) {
      EXPECT_EQ(errno, EMFILE);
      break;
    }
    hoard.push_back(fd);
  }
  ASSERT_FALSE(hoard.empty());
  ::close(hoard.back());
  hoard.pop_back();

  // The connect itself succeeds (it rides the listen backlog); the
  // server's accept() has no fd to give it and must fail-and-back-off,
  // not die and not spin at full speed.
  const int fd = Dial(server.port());
  for (int spin = 0; spin < 500 && server.Stats().accept_errors < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const TcpServerStats starved = server.Stats();
  EXPECT_GE(starved.accept_errors, 1);
  EXPECT_EQ(starved.connections_accepted, 0);

  // Free the table: the pending connection is accepted on the next
  // level-triggered poll pass and the session serves normally.
  for (const int h : hoard) ::close(h);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  const std::string transcript = SendAndCollect(fd, "lambda 0\n");
  EXPECT_NE(transcript.find("\"lambda\""), std::string::npos) << transcript;
  EXPECT_EQ(server.Stats().connections_accepted, 1);
  server.Stop();
}

// ---------------------------------------------------------------------
// One owner per counter: the `metrics` verb exports the server's own
// atomics at scrape time, so it agrees with the `stats` verb.
// ---------------------------------------------------------------------

void SendAll(int fd, const std::string& payload) {
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
}

/// Reads from `fd` until `count` whole response lines have arrived,
/// leaving the connection open for the next exchange.
std::vector<std::string> ReadLines(int fd, std::size_t count) {
  std::string received;
  char chunk[4096];
  while (static_cast<std::size_t>(std::count(received.begin(), received.end(),
                                             '\n')) < count) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  return SplitLines(received);
}

/// Asserts that a `metrics` response carries, for every nucleus_tcp_*
/// counter and gauge, the value of the matching field of the `stats`
/// response's "server" object. The `metrics` line was admitted after the
/// `stats` response was written, so it adds exactly one admitted line.
void ExpectMetricsMatchServerStats(const std::string& stats,
                                   const std::string& metrics) {
  const std::size_t server = stats.find("\"server\": {");
  ASSERT_NE(server, std::string::npos) << stats;
  const std::pair<const char*, const char*> fields[] = {
      {"connections_accepted", "nucleus_tcp_connections_accepted_total"},
      {"connections_rejected", "nucleus_tcp_connections_rejected_total"},
      {"connections_drained", "nucleus_tcp_connections_drained_total"},
      {"accept_errors", "nucleus_tcp_accept_errors_total"},
      {"lines_admitted", "nucleus_tcp_lines_admitted_total"},
      {"lines_rejected", "nucleus_tcp_lines_rejected_total"},
      {"oversized_lines", "nucleus_tcp_oversized_lines_total"},
      {"connections_open", "nucleus_tcp_connections_open"},
      {"queue_depth", "nucleus_tcp_queue_depth"},
      {"max_queue_depth", "nucleus_tcp_max_queue_depth"},
  };
  for (const auto& [field, family] : fields) {
    std::int64_t expected =
        JsonIntAfter(stats, "\"" + std::string(field) + "\": ", server);
    if (std::string(field) == "lines_admitted") ++expected;
    EXPECT_EQ(JsonIntAfter(metrics, "\"" + std::string(family) + "\": {\"\": "),
              expected)
        << field;
  }
}

/// Restores the process-wide metrics kill switch on scope exit.
struct MetricsEnabledGuard {
  ~MetricsEnabledGuard() { obs::SetMetricsEnabled(true); }
};

// The counts must not depend on the kill switch: lines admitted and
// rejected while metrics are off still show up in the next scrape. A
// copy counted only while metrics are on would trail `stats` by them.
TEST(TcpServerMetrics, KillSwitchNeverLosesCounts) {
  MetricsEnabledGuard guard;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool armed = false;
  bool entered = false;
  bool released = false;
  SnapshotRegistry registry;
  const ServeSessionResolver registry_resolver =
      MakeRegistryResolver(registry);
  const ServeSessionResolver resolver =
      [&](const std::string& tenant) -> StatusOr<ServeSession> {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      if (armed && !released) {
        entered = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return released; });
      }
    }
    return registry_resolver(tenant);
  };

  obs::MetricsRegistry metrics;
  TcpServerOptions options;
  options.queue_high_water = 4;
  options.max_line_bytes = 1024;
  options.serve.metrics = &metrics;
  TcpServer server(resolver, &registry, options);
  ASSERT_TRUE(server.Start().ok());
  const int fd = Dial(server.port());

  SendAll(fd, "lambda 0\nlambda 1\n");
  ASSERT_EQ(ReadLines(fd, 2).size(), 2u);

  obs::SetMetricsEnabled(false);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    armed = true;
  }
  // Line 3 wedges the worker; of the next six, four fit under the high
  // water mark and two are rejected, and the oversized line after them
  // is rejected too.
  SendAll(fd, "lambda 2\n");
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return entered; });
  }
  std::string burst;
  for (int i = 0; i < 6; ++i) burst += "lambda " + std::to_string(i) + "\n";
  burst += std::string(2000, 'x') + "\n";
  SendAll(fd, burst);
  for (int spin = 0; spin < 500 && server.Stats().lines_rejected < 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
    gate_cv.notify_all();
  }
  ASSERT_EQ(ReadLines(fd, 8).size(), 8u);
  obs::SetMetricsEnabled(true);

  SendAll(fd, "stats\n");
  const std::vector<std::string> stats = ReadLines(fd, 1);
  SendAll(fd, "metrics\n");
  const std::vector<std::string> scraped = ReadLines(fd, 1);
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_EQ(scraped.size(), 1u);
  EXPECT_EQ(JsonIntAfter(stats[0], "\"lines_admitted\": "), 8);
  EXPECT_EQ(JsonIntAfter(stats[0], "\"lines_rejected\": "), 3);
  EXPECT_EQ(JsonIntAfter(stats[0], "\"oversized_lines\": "), 1);
  ExpectMetricsMatchServerStats(stats[0], scraped[0]);
  ::close(fd);
  server.Stop();
}

// Two live servers on one registry: each server's scrape reports its own
// counters, not a merge of both (and not whichever server wrote last).
TEST(TcpServerMetrics, SharedRegistryReportsEachServersOwnCounts) {
  SnapshotRegistry registry;
  obs::MetricsRegistry shared;
  TcpServerOptions options;
  options.max_line_bytes = 1024;
  options.serve.metrics = &shared;
  TcpServer first(MakeRegistryResolver(registry), &registry, options);
  TcpServer second(MakeRegistryResolver(registry), &registry, options);
  ASSERT_TRUE(first.Start().ok());
  ASSERT_TRUE(second.Start().ok());

  const int first_fd = Dial(first.port());
  const int second_fd = Dial(second.port());
  SendAll(first_fd, "lambda 0\nlambda 1\n");
  ASSERT_EQ(ReadLines(first_fd, 2).size(), 2u);
  SendAll(second_fd, "lambda 0\nlambda 1\nlambda 2\nlambda 3\nlambda 4\n" +
                         std::string(2000, 'x') + "\n");
  ASSERT_EQ(ReadLines(second_fd, 6).size(), 6u);

  for (const int fd : {first_fd, second_fd}) {
    SendAll(fd, "stats\n");
    const std::vector<std::string> stats = ReadLines(fd, 1);
    SendAll(fd, "metrics\n");
    const std::vector<std::string> scraped = ReadLines(fd, 1);
    ASSERT_EQ(stats.size(), 1u);
    ASSERT_EQ(scraped.size(), 1u);
    EXPECT_EQ(JsonIntAfter(stats[0], "\"lines_admitted\": "),
              fd == first_fd ? 3 : 6);
    ExpectMetricsMatchServerStats(stats[0], scraped[0]);
  }
  ::close(first_fd);
  ::close(second_fd);
  first.Stop();
  second.Stop();
}

}  // namespace
}  // namespace nucleus
