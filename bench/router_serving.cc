// Router serving bench: the cross-process sharding tier priced against
// the single TCP server it shards, over loopback, at 1-32 concurrent
// front connections.
//
// Topology under test: two backend TcpServers (each holding the tenants
// the placement hash assigns it), one TenantRouter front. The reference
// topology: ONE TcpServer holding every tenant. Same scripts, same
// wire protocol.
//
// Three questions, one per measurement:
//
//   * router_efficiency — wall time of one pipelined session against the
//     single direct server, divided by the wall time of the SAME script
//     through the router front (both best of 3 at C=1). The router adds
//     a forwarding hop (parse + route + pooled backend round trip), so
//     this sits below 1.0; it is the gated column — a batching or
//     in-flight regression drags it toward 0.
//   * pipelined q/s at C in {1,2,4,8,16,32} front connections — each
//     client fire-hoses its whole script at the router and reads the
//     transcript back. Every transcript is byte-compared against a
//     stdin/stdout replay of the same script on an identically-built
//     registry: sharding across processes adds placement and pooling,
//     never content. This is the per-tenant byte-identity contract,
//     measured rather than unit-tested.
//   * round-trip p99 at the same connection counts — one request in
//     flight per connection, pricing the per-line forwarding latency
//     (front wakeup + backend hop + FIFO rendezvous) instead of batching
//     throughput.
//
// Flags:
//   --quick       CI smoke mode: fewer connection counts ({1,4,32}) and
//                 fewer round trips
//   --json F      write {"bench": "router_serving", ...} for the
//                 perf-regression gate
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/table.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/serve/net/tcp_server.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/router/router.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/rng.h"
#include "nucleus/util/scratch.h"
#include "nucleus/util/timer.h"

namespace nucleus {
namespace {

struct Options {
  bool quick = false;
  std::string json_path;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::cerr << "usage: router_serving [--quick] [--json FILE]\n";
      std::exit(2);
    }
  }
  return options;
}

/// One tenant's request lines for one connection's script — identical
/// verb mix to bench/network_serving.cc so the two benches price the
/// same workload with and without the sharding tier in front.
std::string MakeBlock(Rng& rng, std::int64_t num_cliques,
                      std::int64_t num_nodes, Lambda max_lambda,
                      std::int64_t count, const std::string& prefix) {
  std::ostringstream block;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t roll = rng.UniformInt(0, 99);
    block << prefix;
    if (roll < 35) {
      block << "lambda " << rng.UniformInt(0, num_cliques - 1);
    } else if (roll < 60 && max_lambda >= 1) {
      block << "nucleus " << rng.UniformInt(0, num_cliques - 1) << " "
            << rng.UniformInt(1, max_lambda);
    } else if (roll < 90) {
      block << (rng.Bernoulli(0.5) ? "common " : "level ")
            << rng.UniformInt(0, num_cliques - 1) << " "
            << rng.UniformInt(0, num_cliques - 1);
    } else if (roll < 97) {
      block << "top " << rng.UniformInt(1, 10);
    } else {
      block << "members " << rng.UniformInt(0, num_nodes - 1);
    }
    block << "\n";
  }
  return block.str();
}

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    std::exit(1);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("connect");
    std::exit(1);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return;  // server closed; the reader will notice
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Fire-hose `script` down `fd` from a writer thread, half-close, read
/// the whole transcript back. Closes `fd`.
std::string PumpScript(int fd, const std::string& script) {
  std::thread writer([fd, &script] {
    SendAll(fd, script.data(), script.size());
    ::shutdown(fd, SHUT_WR);
  });
  std::string transcript;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    transcript.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  ::close(fd);
  return transcript;
}

/// Reads one '\n'-terminated line; `carry` holds bytes read past it.
std::string ReadLine(int fd, std::string& carry) {
  for (;;) {
    const std::size_t pos = carry.find('\n');
    if (pos != std::string::npos) {
      std::string line = carry.substr(0, pos + 1);
      carry.erase(0, pos + 1);
      return line;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::string();
    carry.append(buf, static_cast<std::size_t>(n));
  }
}

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(std::max<std::int64_t>(
      0, static_cast<std::int64_t>(
             std::ceil(p * static_cast<double>(samples.size()))) -
             1));
  return samples[std::min(rank, samples.size() - 1)];
}

struct Tenant {
  std::string name;
  std::string snapshot_path;
};

/// Best-of-`reps` pipelined run of scripts[0..conns) against `port`.
/// The last rep's transcripts are returned through `transcripts`.
double TimePipelined(int port, const std::vector<std::string>& scripts,
                     int conns, int reps,
                     std::vector<std::string>* transcripts) {
  transcripts->assign(static_cast<std::size_t>(conns), std::string());
  double best_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::thread> clients;
    Timer timer;
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back([&, c] {
        (*transcripts)[static_cast<std::size_t>(c)] =
            PumpScript(Dial(port), scripts[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : clients) t.join();
    const double seconds = timer.Seconds();
    best_seconds = rep == 0 ? seconds : std::min(best_seconds, seconds);
  }
  return best_seconds;
}

void Run(const Options& options) {
  const std::vector<int> conn_counts =
      options.quick ? std::vector<int>{1, 4, 32}
                    : std::vector<int>{1, 2, 4, 8, 16, 32};
  const int max_conns = conn_counts.back();
  // Quick mode trims connection counts and round trips, NOT script
  // length: the gated efficiency ratio needs enough lines per script to
  // amortize connection setup (same reasoning as bench/network_serving).
  const std::int64_t lines_per_conn = 2500;
  const std::int64_t pings_per_conn = options.quick ? 150 : 500;
  // The front handler forwards in batches of up to 256 lines per
  // connection; at 32 front connections all pinned tenants can stack
  // 32 x 256 lines on one pooled backend connection. The in-flight cap
  // must clear that, or correct admission rejects would poison the
  // byte-compare.
  const std::int64_t backend_inflight = 32768;

  std::vector<std::string> names = Table1DatasetNames();
  names.resize(2);
  std::cout << "Router serving: " << names.size()
            << " tenants sharded over 2 backend TCP servers behind one "
               "router (loopback), "
            << lines_per_conn << " pipelined lines + " << pings_per_conn
            << " round trips per front connection"
            << (options.quick ? " (quick mode)" : "") << "\n\n";

  std::vector<Tenant> tenants;
  std::vector<std::unique_ptr<ScratchFileRemover>> removers;
  std::vector<std::string> scripts(static_cast<std::size_t>(max_conns));
  {
    Rng rng(20260808);
    struct Built {
      std::int64_t num_cliques;
      std::int64_t num_nodes;
      Lambda max_lambda;
    };
    std::vector<Built> built;
    for (const std::string& name : names) {
      const DatasetSpec& spec = DatasetByName(name);
      const Graph g = spec.make();
      DecomposeOptions decompose_options;
      decompose_options.family = Family::kTruss23;
      decompose_options.algorithm = Algorithm::kFnd;
      SnapshotData snapshot =
          MakeSnapshot(g, decompose_options, Decompose(g, decompose_options),
                       /*with_index=*/true);
      Tenant tenant;
      tenant.name = spec.name;
      tenant.snapshot_path = UniqueScratchPath(
          "/tmp", "router_serving_" + spec.name, ".nucsnap");
      removers.push_back(
          std::make_unique<ScratchFileRemover>(tenant.snapshot_path));
      if (Status s = SaveSnapshotV2(snapshot, tenant.snapshot_path); !s.ok()) {
        std::cerr << "error: " << s.ToString() << "\n";
        std::exit(1);
      }
      built.push_back({snapshot.meta.num_cliques,
                       snapshot.hierarchy.NumNodes(),
                       snapshot.meta.max_lambda});
      tenants.push_back(std::move(tenant));
    }
    // One script per front connection slot; a run at C connections uses
    // scripts[0..C). Each script interleaves both tenants, so every
    // connection exercises both backends through the router.
    for (int c = 0; c < max_conns; ++c) {
      std::string script;
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        script += MakeBlock(rng, built[t].num_cliques, built[t].num_nodes,
                            built[t].max_lambda,
                            lines_per_conn /
                                static_cast<std::int64_t>(tenants.size()),
                            tenants[t].name + ":");
      }
      scripts[static_cast<std::size_t>(c)] = std::move(script);
    }
  }

  const auto attach = [&](SnapshotRegistry& registry, const Tenant& tenant) {
    TenantSpec spec;
    spec.name = tenant.name;
    spec.snapshot_path = tenant.snapshot_path;
    if (Status s = registry.Attach(spec); !s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      std::exit(1);
    }
  };

  ServeOptions serve_options;
  serve_options.parallel.num_threads = 1;

  // Reference transcripts: each script replayed over stdin/stdout on a
  // registry holding every tenant.
  SnapshotRegistry replay_registry;
  for (const Tenant& tenant : tenants) attach(replay_registry, tenant);
  std::vector<std::string> reference(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    std::istringstream in(scripts[i]);
    std::ostringstream out;
    ServeRegistryRequests(replay_registry, in, out, serve_options);
    reference[i] = out.str();
  }

  TcpServerOptions tcp_options;
  tcp_options.serve = serve_options;
  tcp_options.max_connections = max_conns + 8;
  // The front admission queue is shared across connections, and a routed
  // handler drains at backend round-trip speed, not local-serve speed —
  // size it for every fire-hosed script at once, or correct back-pressure
  // rejects would poison the byte-compare.
  tcp_options.queue_high_water = lines_per_conn * max_conns + 64;

  // The reference topology: ONE direct server holding every tenant. Its
  // best-of-3 C=1 time is the router_efficiency numerator.
  double direct_c1_seconds = 0.0;
  {
    SnapshotRegistry registry;
    for (const Tenant& tenant : tenants) attach(registry, tenant);
    TcpServer direct(MakeRegistryResolver(registry), &registry, tcp_options);
    if (Status s = direct.Start(); !s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      std::exit(1);
    }
    std::vector<std::string> transcripts;
    direct_c1_seconds =
        TimePipelined(direct.port(), scripts, 1, 3, &transcripts);
    if (transcripts[0] != reference[0]) {
      std::cerr << "error: direct TCP transcript diverged from stdio "
                   "replay\n";
      std::exit(1);
    }
    direct.Stop();
  }

  // The topology under test: two backends, each holding the tenants the
  // placement hash assigns it, and a router front.
  SnapshotRegistry registry_a;
  SnapshotRegistry registry_b;
  TcpServer backend_a(MakeRegistryResolver(registry_a), &registry_a,
                      tcp_options);
  TcpServer backend_b(MakeRegistryResolver(registry_b), &registry_b,
                      tcp_options);
  for (TcpServer* backend : {&backend_a, &backend_b}) {
    if (Status s = backend->Start(); !s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      std::exit(1);
    }
  }

  TenantRouterOptions router_options;
  router_options.backends = {
      "127.0.0.1:" + std::to_string(backend_a.port()),
      "127.0.0.1:" + std::to_string(backend_b.port())};
  router_options.max_inflight = backend_inflight;
  router_options.health_interval_ms = 0;  // loopback; nothing to probe
  TenantRouter router(router_options);
  if (Status s = router.Start(); !s.ok()) {
    std::cerr << "error: " << s.ToString() << "\n";
    std::exit(1);
  }
  for (const Tenant& tenant : tenants) {
    const int home = router.BackendIndexFor(tenant.name);
    attach(home == 0 ? registry_a : registry_b, tenant);
  }

  TcpServer front(router.HandlerFactory(), tcp_options);
  if (Status s = front.Start(); !s.ok()) {
    std::cerr << "error: " << s.ToString() << "\n";
    std::exit(1);
  }
  const int port = front.port();

  TablePrinter table({"conns", "requests", "q/s", "p99 ms", "transcripts"});
  std::vector<double> qps_by_count;
  std::vector<double> p99_by_count;
  double routed_c1_seconds = 0.0;
  for (const int conns : conn_counts) {
    // Pipelined throughput through the router; best of 3 at C=1 (the
    // gated ratio's denominator).
    std::vector<std::string> transcripts;
    const double best_seconds =
        TimePipelined(port, scripts, conns, conns == 1 ? 3 : 1, &transcripts);
    if (conns == 1) routed_c1_seconds = best_seconds;
    qps_by_count.push_back(
        static_cast<double>(lines_per_conn * conns) / best_seconds);
    for (int c = 0; c < conns; ++c) {
      if (transcripts[static_cast<std::size_t>(c)] !=
          reference[static_cast<std::size_t>(c)]) {
        std::cerr << "error: routed transcript diverged from stdio replay ("
                  << conns << " connections, connection " << c << ")\n";
        std::exit(1);
      }
    }

    // Round-trip latency through the router: one request in flight per
    // connection.
    std::vector<std::vector<double>> samples(
        static_cast<std::size_t>(conns));
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < conns; ++c) {
        clients.emplace_back([&, c] {
          const int fd = Dial(port);
          const std::string ping =
              tenants[static_cast<std::size_t>(c) % tenants.size()].name +
              ":lambda 0\n";
          std::string carry;
          auto& mine = samples[static_cast<std::size_t>(c)];
          mine.reserve(static_cast<std::size_t>(pings_per_conn));
          for (std::int64_t i = 0; i < pings_per_conn; ++i) {
            const auto start = std::chrono::steady_clock::now();
            SendAll(fd, ping.data(), ping.size());
            const std::string line = ReadLine(fd, carry);
            const auto stop = std::chrono::steady_clock::now();
            if (line.empty()) {
              std::cerr << "error: connection dropped mid round-trip\n";
              std::exit(1);
            }
            mine.push_back(
                std::chrono::duration<double, std::milli>(stop - start)
                    .count());
          }
          ::shutdown(fd, SHUT_WR);
          char buf[4096];
          while (::recv(fd, buf, sizeof(buf), 0) > 0) {
          }
          ::close(fd);
        });
      }
      for (std::thread& t : clients) t.join();
    }
    std::vector<double> all;
    for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    const double p99 = Percentile(all, 0.99);
    p99_by_count.push_back(p99);

    table.AddRow({FormatCount(conns), FormatCount(lines_per_conn * conns),
                  FormatCount(static_cast<std::int64_t>(qps_by_count.back())),
                  FormatDouble(p99, 3), "byte-identical"});
  }
  table.Print(std::cout);

  front.Stop();
  router.Stop();
  backend_a.Stop();
  backend_b.Stop();

  // The workload must have been admitted whole: a reject anywhere means
  // the caps above are mis-sized and the byte-compare only passed by
  // luck.
  const std::int64_t rejected = router.Stats().lines_rejected;
  if (rejected != 0) {
    std::cerr << "error: router rejected " << rejected
              << " line(s) the bench expected to admit\n";
    std::exit(1);
  }

  const double router_efficiency = direct_c1_seconds / routed_c1_seconds;
  std::cout << "\ndirect TCP (script 0, 1 connection): "
            << FormatSeconds(direct_c1_seconds)
            << "; same script through the router: "
            << FormatSeconds(routed_c1_seconds)
            << "\nrouter_efficiency (direct/routed, < 1.0 by the cost of "
               "the forwarding hop): "
            << FormatDouble(router_efficiency, 3)
            << "\nEvery routed transcript is byte-compared against its "
               "stdin/stdout replay;\na divergence fails the bench, not "
               "just the gate.\n";

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "error: cannot write " << options.json_path << "\n";
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"router_serving\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
    std::fprintf(f, "  \"lines_per_connection\": %lld,\n",
                 static_cast<long long>(lines_per_conn));
    std::fprintf(f, "  \"qps\": {");
    for (std::size_t i = 0; i < conn_counts.size(); ++i) {
      std::fprintf(f, "%s\"c%d\": %.0f", i == 0 ? "" : ", ",
                   conn_counts[i], qps_by_count[i]);
    }
    std::fprintf(f, "},\n  \"p99_ms\": {");
    for (std::size_t i = 0; i < conn_counts.size(); ++i) {
      std::fprintf(f, "%s\"c%d\": %.3f", i == 0 ? "" : ", ",
                   conn_counts[i], p99_by_count[i]);
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"results\": {\n");
    std::fprintf(f, "    \"route1\": {\"router_efficiency\": %.4f}\n",
                 router_efficiency);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::cout << "\nwrote " << options.json_path << "\n";
  }
}

}  // namespace
}  // namespace nucleus

int main(int argc, char** argv) {
  nucleus::Run(nucleus::ParseArgs(argc, argv));
  return 0;
}
