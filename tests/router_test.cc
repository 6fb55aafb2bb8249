// The tenant router tier: placement determinism (the hash constants are
// load-bearing — changing them reshuffles every deployment), per-tenant
// byte-identity of routed sessions against dedicated single-backend
// replays, health-check failover with structured fail-fast errors,
// dirty-tenant migration via the detach-persist protocol, bounded
// in-flight admission, and merged router-level observability. Suites are
// named Router* so the CI TSan job picks them up.
#include "nucleus/serve/router/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/obs/metrics.h"
#include "nucleus/serve/net/tcp_server.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

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

/// A read-only core snapshot every test tenant can share.
std::string SharedSnapshotPath() {
  static const std::string* path = [] {
    const Graph g = testing_util::PaperFigure2Graph();
    DecomposeOptions options;
    options.family = Family::kCore12;
    options.algorithm = Algorithm::kFnd;
    auto* p = new std::string(TempPath("router_shared.nucsnap"));
    EXPECT_TRUE(
        SaveSnapshotV2(MakeSnapshot(g, options, Decompose(g, options), true),
                     *p)
            .ok());
    return p;
  }();
  return *path;
}

/// One backend of the routed fixture: a registry-backed TCP server.
struct BackendProcess {
  SnapshotRegistry registry;
  TcpServer server;

  BackendProcess(int port = 0)
      : server(MakeRegistryResolver(registry), &registry, [port] {
          TcpServerOptions options;
          options.port = port;
          return options;
        }()) {
    EXPECT_TRUE(server.Start().ok());
  }
  int port() { return server.port(); }
  std::string address() {
    return "127.0.0.1:" + std::to_string(server.port());
  }
};

/// Two registry backends, a TenantRouter over them (no prober thread —
/// tests drive CheckBackendsNow explicitly unless asked otherwise), and
/// a front TcpServer speaking the router's handler.
struct RoutedFixture {
  std::unique_ptr<BackendProcess> backend_a;
  std::unique_ptr<BackendProcess> backend_b;
  obs::MetricsRegistry metrics;
  std::unique_ptr<TenantRouter> router;
  std::unique_ptr<TcpServer> front;

  explicit RoutedFixture(int health_interval_ms = 0) {
    backend_a = std::make_unique<BackendProcess>();
    backend_b = std::make_unique<BackendProcess>();
    TenantRouterOptions options;
    options.backends = {backend_a->address(), backend_b->address()};
    options.health_interval_ms = health_interval_ms;
    options.health_timeout_ms = 2000;
    options.metrics = &metrics;
    router = std::make_unique<TenantRouter>(std::move(options));
    EXPECT_TRUE(router->Start().ok());
    front = std::make_unique<TcpServer>(router->HandlerFactory(),
                                        TcpServerOptions{});
    router->set_server_stats_json(
        [this] { return front->StatsJson(); });
    EXPECT_TRUE(front->Start().ok());
  }

  ~RoutedFixture() {
    if (front != nullptr) front->Stop();
    if (router != nullptr) router->Stop();
  }

  std::string Session(const std::string& script) {
    return SendAndCollect(Dial(front->port()), script);
  }
};

// ---------------------------------------------------------------------
// Placement determinism. These constants are pinned on purpose: the
// placement hash is part of the deployment contract — every router
// given the same backend list must route every tenant identically,
// across processes, hosts and releases.
// ---------------------------------------------------------------------

TEST(RouterHash, TenantKeyIsPinnedFnv1a64) {
  EXPECT_EQ(RouterTenantKey(""), 14695981039346656037ULL);
  EXPECT_EQ(RouterTenantKey("alpha"), 9999721509958787115ULL);
  EXPECT_EQ(RouterTenantKey("beta"), 8513880941419438247ULL);
  EXPECT_EQ(RouterTenantKey("tenant-42"), 2973703394120846818ULL);
}

TEST(RouterHash, JumpConsistentHashIsPinned) {
  const std::uint64_t key = RouterTenantKey("tenant-42");
  EXPECT_EQ(JumpConsistentHash(key, 1), 0);
  EXPECT_EQ(JumpConsistentHash(key, 2), 0);
  EXPECT_EQ(JumpConsistentHash(key, 3), 2);
  EXPECT_EQ(JumpConsistentHash(key, 4), 3);
  EXPECT_EQ(JumpConsistentHash(RouterTenantKey("t0"), 2), 1);
  EXPECT_EQ(JumpConsistentHash(RouterTenantKey("t3"), 2), 0);
}

// The property the algorithm is named for: growing the backend list
// never moves a key between surviving buckets — a key either stays put
// or moves to the NEW bucket. This is what makes adding a shard cheap.
TEST(RouterHash, GrowingBucketsOnlyMovesKeysToTheNewBucket) {
  for (int buckets = 1; buckets < 8; ++buckets) {
    int moved = 0;
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key =
          RouterTenantKey("tenant" + std::to_string(i));
      const std::int32_t before = JumpConsistentHash(key, buckets);
      const std::int32_t after = JumpConsistentHash(key, buckets + 1);
      if (before != after) {
        EXPECT_EQ(after, buckets) << "key moved between OLD buckets";
        ++moved;
      }
    }
    // ~1/(buckets+1) of keys move; allow generous slack on 500 samples.
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, 500 * 2 / (buckets + 1) + 30);
  }
}

TEST(RouterDeterminism, TwoRoutersOverSameListAgreeOnEveryTenant) {
  BackendProcess a;
  BackendProcess b;
  const std::vector<std::string> backends = {a.address(), b.address()};
  TenantRouterOptions options1;
  options1.backends = backends;
  options1.health_interval_ms = 0;
  TenantRouterOptions options2 = options1;
  TenantRouter router1(std::move(options1));
  TenantRouter router2(std::move(options2));
  ASSERT_TRUE(router1.Start().ok());
  ASSERT_TRUE(router2.Start().ok());
  for (int i = 0; i < 64; ++i) {
    const std::string tenant = "tenant" + std::to_string(i);
    const int home = router1.BackendIndexFor(tenant);
    EXPECT_EQ(home, router2.BackendIndexFor(tenant));
    EXPECT_EQ(home, JumpConsistentHash(RouterTenantKey(tenant), 2));
  }
  router1.Stop();
  router2.Stop();
}

// A mid-list validation failure must not leave a partial backend table
// behind: a retried Start() would append duplicates onto it, silently
// reshuffling every tenant's placement.
TEST(RouterDeterminism, FailedStartLeavesNoPartialBackendList) {
  BackendProcess a;
  TenantRouterOptions options;
  options.backends = {a.address(), "not-an-address"};
  options.health_interval_ms = 0;
  TenantRouter router(std::move(options));
  EXPECT_FALSE(router.Start().ok());
  EXPECT_EQ(router.num_backends(), 0);
  EXPECT_FALSE(router.Start().ok());
  EXPECT_EQ(router.num_backends(), 0);
}

// ---------------------------------------------------------------------
// The serving contract: routed through the tier, a tenant's slice of
// successful responses is byte-identical to a dedicated session.
// ---------------------------------------------------------------------

/// The query mix one tenant sends (all valid: the byte-identity contract
/// covers successful lines).
std::vector<std::string> TenantQueries(const std::string& tenant) {
  std::vector<std::string> lines;
  for (int i = 0; i < 12; ++i) {
    lines.push_back(tenant + ":lambda " + std::to_string(i % 10));
    lines.push_back(tenant + ":top 3");
    lines.push_back(tenant + ":members " + std::to_string(i % 5));
    lines.push_back(tenant + ":nucleus " + std::to_string(i % 7) + " 2");
  }
  return lines;
}

/// What a dedicated single-backend session answers for these lines: a
/// fresh stdio registry session with just this tenant.
std::string DedicatedReplay(const std::string& tenant,
                            const std::vector<std::string>& lines) {
  TenantSpec spec;
  spec.name = tenant;
  spec.snapshot_path = SharedSnapshotPath();
  SnapshotRegistry registry;
  EXPECT_TRUE(registry.Attach(spec).ok());
  std::string script;
  for (const std::string& line : lines) {
    script += line;
    script += '\n';
  }
  std::istringstream in(script);
  std::ostringstream out;
  ServeRegistryRequests(registry, in, out, ServeOptions{});
  return out.str();
}

TEST(RouterServe, PerTenantSlicesMatchDedicatedReplay) {
  RoutedFixture fix;
  // t3/t6 hash to backend 0, t0/t1 to backend 1 — both shards serve.
  const std::vector<std::string> tenants = {"t3", "t0", "t6", "t1"};
  EXPECT_EQ(fix.router->BackendIndexFor("t3"), 0);
  EXPECT_EQ(fix.router->BackendIndexFor("t0"), 1);

  std::string script;
  std::vector<std::string> owner;  // owner[i] = tenant of request line i
  for (const std::string& tenant : tenants) {
    script += "attach " + tenant + " snapshot=" + SharedSnapshotPath() +
              "\n";
    owner.push_back(tenant);
  }
  // Interleave the four tenants' queries line by line.
  std::vector<std::vector<std::string>> queries;
  for (const std::string& tenant : tenants) {
    queries.push_back(TenantQueries(tenant));
  }
  for (std::size_t i = 0; i < queries[0].size(); ++i) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      script += queries[t][i] + "\n";
      owner.push_back(tenants[t]);
    }
  }

  const std::vector<std::string> responses =
      SplitLines(fix.Session(script));
  ASSERT_EQ(responses.size(), owner.size());

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    SCOPED_TRACE(tenants[t]);
    // The tenant's slice of the routed transcript (queries only — the
    // attach ack is admin, not part of the dedicated session).
    std::string slice;
    for (std::size_t i = tenants.size(); i < owner.size(); ++i) {
      if (owner[i] == tenants[t]) slice += responses[i] + "\n";
    }
    EXPECT_EQ(slice, DedicatedReplay(tenants[t], queries[t]));
    EXPECT_FALSE(slice.empty());
  }
}

// Concurrent client sessions at every point of the acceptance sweep
// (t in {1,2,4,8}): every transcript must still equal the dedicated
// replay byte for byte — pinning a tenant to one backend connection is
// what makes this hold under cross-tenant interleaving. At t=8 two
// sessions share a tenant, so identical query streams interleave on the
// same pinned backend connection.
TEST(RouterServe, ConcurrentSessionsEachMatchDedicatedReplay) {
  RoutedFixture fix;
  const std::vector<std::string> tenants = {"t3", "t0", "t6", "t1"};
  for (const std::string& tenant : tenants) {
    const std::string ack = fix.Session("attach " + tenant + " snapshot=" +
                                        SharedSnapshotPath() + "\n");
    ASSERT_NE(ack.find("\"ok\": true"), std::string::npos) << ack;
  }
  for (const std::size_t sessions : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(sessions);
    std::vector<std::string> transcripts(sessions);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < sessions; ++t) {
      clients.emplace_back([&, t] {
        std::string script;
        for (const std::string& line :
             TenantQueries(tenants[t % tenants.size()])) {
          script += line + "\n";
        }
        transcripts[t] = fix.Session(script);
      });
    }
    for (std::thread& c : clients) c.join();
    for (std::size_t t = 0; t < sessions; ++t) {
      const std::string& tenant = tenants[t % tenants.size()];
      SCOPED_TRACE(tenant);
      EXPECT_EQ(transcripts[t],
                DedicatedReplay(tenant, TenantQueries(tenant)));
    }
  }
}

// A backend's parse errors are renumbered into the FRONT session: the
// backend connection has served other traffic, so its own line counter
// is meaningless to this client.
TEST(RouterErrors, BackendErrorsCarryTheFrontLineNumber) {
  RoutedFixture fix;
  ASSERT_NE(fix.Session("attach t3 snapshot=" + SharedSnapshotPath() + "\n")
                .find("\"ok\": true"),
            std::string::npos);
  const std::vector<std::string> responses = SplitLines(fix.Session(
      "t3:lambda 0\nt3:lambda 1\nt3:frobnicate 9\nt3:lambda 2\n"));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_NE(responses[2].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[2].find("\"line\": 3"), std::string::npos)
      << responses[2];
  EXPECT_NE(responses[3].find("\"lambda\""), std::string::npos);
}

TEST(RouterErrors, UnroutedLinesAreAnsweredLocally) {
  RoutedFixture fix;
  const std::vector<std::string> responses =
      SplitLines(fix.Session("lambda 3\n"));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[0].find("<tenant>:<verb>"), std::string::npos);
  EXPECT_NE(responses[0].find("\"line\": 1"), std::string::npos);
}

// The shared parser defers attach validation to the backend, but the
// tenant name is the router's routing key: a bare `attach` must be
// answered with the backend's arity error, not read past the end of an
// empty argument list.
TEST(RouterErrors, BareAttachIsAStructuredErrorNotACrash) {
  RoutedFixture fix;
  const std::vector<std::string> responses =
      SplitLines(fix.Session("attach\nstats\n"));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find("\"error\""), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("'attach' expects"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("\"line\": 1"), std::string::npos);
  // The session survives to answer the next line.
  EXPECT_EQ(responses[1].rfind("{\"query\": \"stats\"", 0), 0u)
      << responses[1];
}

// ---------------------------------------------------------------------
// Failover: a dead backend fails fast for ITS tenants only, and is
// re-admitted when its health probe succeeds again.
// ---------------------------------------------------------------------

TEST(RouterFailover, DeadBackendFailsFastOnlyForItsTenants) {
  RoutedFixture fix;
  ASSERT_NE(fix.Session("attach t3 snapshot=" + SharedSnapshotPath() + "\n")
                .find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(fix.Session("attach t0 snapshot=" + SharedSnapshotPath() + "\n")
                .find("\"ok\": true"),
            std::string::npos);

  // Kill backend 1 (home of t0) and let one health pass notice.
  const int dead_port = fix.backend_b->port();
  fix.backend_b->server.Stop();
  fix.router->CheckBackendsNow();
  EXPECT_TRUE(fix.router->backend_up(0));
  EXPECT_FALSE(fix.router->backend_up(1));

  // t0 fails fast with a structured error; t3 is untouched.
  const std::vector<std::string> responses =
      SplitLines(fix.Session("t0:lambda 1\nt3:lambda 1\nt0:top 2\n"));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[0].find("down"), std::string::npos) << responses[0];
  EXPECT_NE(responses[0].find("\"line\": 1"), std::string::npos);
  EXPECT_NE(responses[1].find("\"lambda\""), std::string::npos);
  EXPECT_NE(responses[2].find("\"error\""), std::string::npos);
  EXPECT_NE(responses[2].find("\"line\": 3"), std::string::npos);
  EXPECT_GE(fix.metrics
                .GetCounter("nucleus_router_lines_rejected_total")
                ->Value(),
            2);

  // Re-admit: a fresh backend on the same port passes the next probe.
  // (Its registry is empty — the tenant must re-attach, as after any
  // backend restart.)
  BackendProcess revived(dead_port);
  ASSERT_EQ(revived.port(), dead_port);
  fix.router->CheckBackendsNow();
  EXPECT_TRUE(fix.router->backend_up(1));
  const std::string after = fix.Session(
      "attach t0 snapshot=" + SharedSnapshotPath() + "\nt0:lambda 1\n");
  EXPECT_NE(after.find("\"ok\": true"), std::string::npos) << after;
  EXPECT_NE(after.find("\"lambda\""), std::string::npos) << after;
  revived.server.Stop();
}

// A probe failure must also UNBLOCK waiters: a backend that stays
// connected but stops answering (SIGSTOPped, deadlocked) strands its
// forwarded-but-unanswered lines. Marking it down tears the pooled
// connections so each reader fails its in-flight slots; without the
// tear, front workers block in WaitSlot forever and the front server
// can never drain.
TEST(RouterFailover, ProbeFailureFailsInFlightLinesOnWedgedBackend) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)),
      0);
  ASSERT_EQ(::listen(listen_fd, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
      0);
  const int port = ntohs(addr.sin_port);

  // A hand-rolled backend: answers every line until `wedge` flips, then
  // swallows everything (probes included) while keeping its
  // connections open — the wedged-process failure mode.
  std::atomic<bool> stop{false};
  std::atomic<bool> wedge{false};
  std::thread fake([listen_fd, &stop, &wedge] {
    std::vector<std::thread> sessions;
    while (!stop.load(std::memory_order_acquire)) {
      pollfd accept_pfd = {listen_fd, POLLIN, 0};
      if (::poll(&accept_pfd, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      sessions.emplace_back([fd, &stop, &wedge] {
        std::string buffered;
        for (;;) {
          pollfd pfd = {fd, POLLIN, 0};
          const int r = ::poll(&pfd, 1, 20);
          if (r < 0 && errno != EINTR) break;
          if (r > 0) {
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n == 0 || (n < 0 && errno != EINTR)) break;
            if (n > 0) buffered.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = buffered.find('\n')) != std::string::npos) {
              buffered.erase(0, nl + 1);
              if (!wedge.load(std::memory_order_acquire)) {
                const std::string pong = "{\"query\": \"stats\"}\n";
                (void)!::send(fd, pong.data(), pong.size(), MSG_NOSIGNAL);
              }
            }
          }
          if (stop.load(std::memory_order_acquire)) break;
        }
        ::close(fd);
      });
    }
    for (std::thread& s : sessions) s.join();
    ::close(listen_fd);
  });

  obs::MetricsRegistry metrics;
  TenantRouterOptions options;
  options.backends = {"127.0.0.1:" + std::to_string(port)};
  options.health_interval_ms = 0;   // the test drives probes
  options.health_timeout_ms = 200;  // a wedged probe fails fast
  options.pool_size = 1;
  options.metrics = &metrics;
  TenantRouter router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(router.backend_up(0));
  TcpServer front(router.HandlerFactory(), TcpServerOptions{});
  ASSERT_TRUE(front.Start().ok());

  // Wedge the backend, then route one line: the backend is still marked
  // up, so the line is forwarded — and no answer will ever come back on
  // its own.
  wedge.store(true, std::memory_order_release);
  std::atomic<bool> answered{false};
  std::string response;
  std::thread client([&] {
    response = SendAndCollect(Dial(front.port()), "t0:lambda 1\n");
    answered.store(true, std::memory_order_release);
  });
  obs::Counter* forwarded =
      metrics.GetCounter("nucleus_router_lines_forwarded_total");
  for (int spin = 0; spin < 500 && forwarded->Value() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(forwarded->Value(), 1);
  EXPECT_FALSE(answered.load(std::memory_order_acquire));

  // The probe times out against the wedge, marks the backend down, and
  // tears its connections — failing the stranded line.
  router.CheckBackendsNow();
  client.join();  // hung forever before the tear-on-down fix
  EXPECT_FALSE(router.backend_up(0));
  const std::vector<std::string> lines = SplitLines(response);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"error\""), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"line\": 1"), std::string::npos) << lines[0];

  front.Stop();
  router.Stop();
  stop.store(true, std::memory_order_release);
  fake.join();
}

// ---------------------------------------------------------------------
// Migration: the detach-persist protocol moves a dirty live tenant with
// its applied updates intact.
// ---------------------------------------------------------------------

TEST(RouterMigrate, DirtyLiveTenantKeepsAppliedUpdates) {
  const Graph g = testing_util::PaperFigure2Graph();
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kDft;
  const std::string snapshot_path = TempPath("router_migrate.nucsnap");
  ASSERT_TRUE(
      SaveSnapshotV2(MakeSnapshot(g, options, Decompose(g, options), true),
                   snapshot_path)
          .ok());
  const std::string graph_path = TempPath("router_migrate_edges.txt");
  ASSERT_TRUE(WriteEdgeList(g, graph_path).ok());

  RoutedFixture fix;
  const std::string tenant = "t3";  // home: backend 0
  ASSERT_EQ(fix.router->BackendIndexFor(tenant), 0);
  const std::string target = fix.backend_b->address();

  const std::vector<std::string> responses = SplitLines(fix.Session(
      "attach " + tenant + " snapshot=" + snapshot_path + " graph=" +
      graph_path + "\n" +                       // 1: attach (live)
      tenant + ":update 0 4 +\n" +              // 2: dirty the tenant
      tenant + ":lambda 0\n" +                  // 3: answer pre-move
      "migrate " + tenant + " " + target + "\n" +  // 4: move it
      tenant + ":lambda 0\n"));                 // 5: answer post-move
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_NE(responses[0].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(responses[1].find("\"applied\": true"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[3].find("\"query\": \"migrate\""), std::string::npos)
      << responses[3];
  EXPECT_NE(responses[3].find("\"ok\": true"), std::string::npos);
  // Dirty detach persisted the pending delta and the latest graph.
  EXPECT_NE(responses[3].find("\"persisted\": 2"), std::string::npos)
      << responses[3];
  // The applied update survived the move: the answer AFTER migration is
  // byte-identical to the answer before it.
  EXPECT_EQ(responses[4], responses[2]);

  // The tenant is now resident on the target backend only.
  EXPECT_EQ(fix.router->BackendIndexFor(tenant), 1);
  EXPECT_TRUE(fix.backend_b->registry.Stats(tenant).ok());
  EXPECT_FALSE(fix.backend_a->registry.Stats(tenant).ok());
  EXPECT_EQ(
      fix.metrics.GetCounter("nucleus_router_migrations_total")->Value(),
      1);
}

TEST(RouterMigrate, UnknownTargetAndUnattachedTenantAreStructuredErrors) {
  RoutedFixture fix;
  const std::vector<std::string> responses = SplitLines(fix.Session(
      "migrate t3 127.0.0.1:1\n"
      "migrate t3 " +
      fix.backend_b->address() + "\n"));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find("unknown backend"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("no recorded attach spec"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("\"line\": 2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Admission: a backend that stops answering wedges only its in-flight
// window; lines past the cap are rejected structurally, not buffered.
// ---------------------------------------------------------------------

TEST(RouterAdmission, InFlightCapRejectsStructurally) {
  // A hand-rolled backend: answers `stats` probes (so the router admits
  // it) but sits on routed lines until the test flips `release` — which
  // it does only AFTER observing both rejections, proving lines past the
  // cap were rejected at admission rather than queued behind the wedge.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)),
      0);
  ASSERT_EQ(::listen(listen_fd, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
      0);
  const int port = ntohs(addr.sin_port);

  std::atomic<bool> stop{false};
  std::atomic<bool> release{false};
  std::thread fake([listen_fd, &stop, &release] {
    std::vector<std::thread> sessions;
    while (!stop.load(std::memory_order_acquire)) {
      pollfd accept_pfd = {listen_fd, POLLIN, 0};
      if (::poll(&accept_pfd, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      sessions.emplace_back([fd, &stop, &release] {
        std::string buffered;
        int held = 0;
        bool answered = false;
        for (;;) {
          pollfd pfd = {fd, POLLIN, 0};
          const int r = ::poll(&pfd, 1, 20);
          if (r < 0 && errno != EINTR) break;
          if (r > 0) {
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n == 0 || (n < 0 && errno != EINTR)) break;
            if (n > 0) buffered.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = buffered.find('\n')) != std::string::npos) {
              const std::string line = buffered.substr(0, nl);
              buffered.erase(0, nl + 1);
              if (line == "stats") {
                const std::string pong = "{\"query\": \"stats\"}\n";
                (void)!::send(fd, pong.data(), pong.size(), MSG_NOSIGNAL);
              } else {
                ++held;
              }
            }
          }
          if (!answered && held > 0 &&
              release.load(std::memory_order_acquire)) {
            const std::string late =
                "{\"query\": \"lambda\", \"u\": 0, \"lambda\": 0}\n";
            (void)!::send(fd, late.data(), late.size(), MSG_NOSIGNAL);
            answered = true;
          }
          if (stop.load(std::memory_order_acquire)) break;
        }
        ::close(fd);
      });
    }
    for (std::thread& s : sessions) s.join();
    ::close(listen_fd);
  });

  obs::MetricsRegistry metrics;
  TenantRouterOptions options;
  options.backends = {"127.0.0.1:" + std::to_string(port)};
  options.health_interval_ms = 0;
  options.pool_size = 1;
  options.max_inflight = 1;  // one unanswered line per connection
  options.metrics = &metrics;
  TenantRouter router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(router.backend_up(0));
  TcpServer front(router.HandlerFactory(), TcpServerOptions{});
  ASSERT_TRUE(front.Start().ok());

  // Line 1 fills the in-flight window; lines 2 and 3 must be rejected
  // immediately, while the session stays open (its response stream is
  // ordered, so nothing can be emitted before line 1's answer).
  const int fd = Dial(front.port());
  const std::string script = "t0:lambda 0\nt0:lambda 1\nt0:lambda 2\n";
  ASSERT_GT(::send(fd, script.data(), script.size(), MSG_NOSIGNAL), 0);
  obs::Counter* rejected =
      metrics.GetCounter("nucleus_router_lines_rejected_total");
  for (int spin = 0; spin < 500 && rejected->Value() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(rejected->Value(), 2);
  EXPECT_EQ(
      metrics.GetCounter("nucleus_router_lines_forwarded_total")->Value(),
      1);

  // Unwedge the backend; the full ordered transcript now drains.
  release.store(true, std::memory_order_release);
  const std::vector<std::string> responses =
      SplitLines(SendAndCollect(fd, ""));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"lambda\""), std::string::npos)
      << responses[0];
  for (int i = 1; i <= 2; ++i) {
    EXPECT_NE(responses[i].find("in-flight limit"), std::string::npos)
        << responses[i];
    EXPECT_NE(responses[i].find("\"line\": " + std::to_string(i + 1)),
              std::string::npos)
        << responses[i];
  }

  front.Stop();
  router.Stop();
  stop.store(true, std::memory_order_release);
  fake.join();
}

// ---------------------------------------------------------------------
// Merged observability.
// ---------------------------------------------------------------------

TEST(RouterAdmin, StatsMergesRouterFrontAndBackends) {
  RoutedFixture fix;
  ASSERT_NE(fix.Session("attach t3 snapshot=" + SharedSnapshotPath() + "\n")
                .find("\"ok\": true"),
            std::string::npos);
  const std::vector<std::string> responses =
      SplitLines(fix.Session("t3:lambda 0\nstats\n"));
  ASSERT_EQ(responses.size(), 2u);
  const std::string& stats = responses[1];
  EXPECT_EQ(stats.rfind("{\"query\": \"stats\"", 0), 0u) << stats;
  // Router counters, the front server's own gauges, and both backends'
  // verbatim stats objects in one response.
  EXPECT_NE(stats.find("\"router\": {\"backends\": 2"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"backends_up\": 2"), std::string::npos);
  EXPECT_NE(stats.find("\"lines_forwarded\""), std::string::npos);
  EXPECT_NE(stats.find("\"server\": {\"connections_accepted\""),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"backend\": \"" + fix.backend_a->address() + "\""),
            std::string::npos);
  EXPECT_NE(stats.find("\"backend\": \"" + fix.backend_b->address() + "\""),
            std::string::npos);
  EXPECT_NE(stats.find("\"registry\""), std::string::npos);
}

TEST(RouterAdmin, MetricsMergesRouterRegistryAndBackends) {
  RoutedFixture fix;
  const std::vector<std::string> responses =
      SplitLines(fix.Session("metrics\nmetrics text\n"));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find("nucleus_router_lines_forwarded_total"),
            std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("\"backends\": ["), std::string::npos);
  EXPECT_NE(responses[1].find("\"format\": \"text\""), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("# TYPE"), std::string::npos);
}

TEST(RouterAdmin, TenantsFansOutToEveryBackend) {
  RoutedFixture fix;
  ASSERT_NE(fix.Session("attach t3 snapshot=" + SharedSnapshotPath() + "\n")
                .find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(fix.Session("attach t0 snapshot=" + SharedSnapshotPath() + "\n")
                .find("\"ok\": true"),
            std::string::npos);
  const std::vector<std::string> responses =
      SplitLines(fix.Session("tenants\n"));
  ASSERT_EQ(responses.size(), 1u);
  // Each tenant appears exactly once, on its home backend's row.
  EXPECT_NE(responses[0].find("\"name\": \"t3\""), std::string::npos);
  EXPECT_NE(responses[0].find("\"name\": \"t0\""), std::string::npos);
  EXPECT_EQ(responses[0].find("\"name\": \"t3\""),
            responses[0].rfind("\"name\": \"t3\""));
}

// The router's own `shutdown` drains the FRONT tier only: the client
// gets its ack and EOF, while the backends keep serving direct traffic.
TEST(RouterAdmin, ShutdownDrainsFrontButLeavesBackendsUp) {
  RoutedFixture fix;
  const std::vector<std::string> responses =
      SplitLines(fix.Session("shutdown\nlambda 1\n"));
  ASSERT_EQ(responses.size(), 1u);  // post-shutdown lines are ignored
  EXPECT_EQ(responses[0], "{\"query\": \"shutdown\", \"ok\": true}");
  fix.front->Wait();
  // Backends still answer a direct session.
  const std::string direct = SendAndCollect(
      Dial(fix.backend_a->port()), "tenants\n");
  EXPECT_NE(direct.find("\"query\": \"tenants\""), std::string::npos)
      << direct;
}

}  // namespace
}  // namespace nucleus
