// Fault-injection and eviction-policy sweep for the multi-tenant
// SnapshotRegistry: one broken tenant among healthy ones must surface as
// a per-tenant Status (at attach or at lazy re-load) while every other
// tenant keeps serving, and an evict + re-load round trip must answer
// byte-identically to a never-evicted registry.
#include "nucleus/serve/snapshot_registry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/decomposition.h"
#include "nucleus/graph/edge_list_io.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/mutex.h"
#include "test_util.h"

namespace nucleus {
namespace {

using testing_util::TempPath;

/// Apply() requires the updater's apply mutex at compile time; tests
/// take it the same way concurrent production callers do.
StatusOr<LiveUpdater::Result> LockedApply(LiveUpdater& updater,
                                          std::span<const EdgeEdit> edits) {
  MutexLock lock(updater.apply_mutex());
  return updater.Apply(edits);
}

/// The detach-race test below invokes one Apply while the TEST BODY
/// already holds the apply mutex (to park a concurrent Detach on it), so
/// the helper cannot take the non-recursive lock itself. The test is the
/// lock discipline here; opt this one call out of the static analysis.
StatusOr<LiveUpdater::Result> ApplyUnchecked(
    LiveUpdater& updater,
    std::span<const EdgeEdit> edits) NO_THREAD_SAFETY_ANALYSIS {
  return updater.Apply(edits);
}

/// Decomposes `g` and writes a snapshot for it; returns the path.
std::string WriteSnapshotFile(const Graph& g, Family family,
                              Algorithm algorithm, const std::string& name) {
  DecomposeOptions options;
  options.family = family;
  options.algorithm = algorithm;
  DecompositionResult result = Decompose(g, options);
  const SnapshotData snapshot =
      MakeSnapshot(g, options, std::move(result), /*with_index=*/true);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveSnapshotV2(snapshot, path).ok());
  return path;
}

std::string WriteGraphFile(const Graph& g, const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteEdgeList(g, path).ok());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << bytes;
}

/// Three read-only tenants over distinct graphs, fresh files per test.
struct Fleet {
  TenantSpec a, b, c;
  Fleet() {
    a.name = "alpha";
    a.snapshot_path = WriteSnapshotFile(testing_util::PaperFigure2Graph(),
                                        Family::kCore12, Algorithm::kDft,
                                        "reg_alpha.nucsnap");
    b.name = "beta";
    b.snapshot_path =
        WriteSnapshotFile(Complete(6), Family::kTruss23, Algorithm::kFnd,
                          "reg_beta.nucsnap");
    c.name = "gamma";
    c.snapshot_path =
        WriteSnapshotFile(ErdosRenyiGnp(40, 0.15, 7), Family::kCore12,
                          Algorithm::kFnd, "reg_gamma.nucsnap");
  }
};

QueryEngine::Response RunLambda(SnapshotRegistry& registry,
                                const std::string& tenant, std::int64_t u) {
  StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire(tenant);
  EXPECT_TRUE(lease.ok()) << lease.status().ToString();
  QueryEngine::Query query;
  query.kind = QueryEngine::QueryKind::kLambda;
  query.a = u;
  return lease->engine().Run(query);
}

TEST(SnapshotRegistry, AttachAcquireAndServe) {
  Fleet fleet;
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  ASSERT_TRUE(registry.Attach(fleet.b).ok());
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"alpha", "beta"}));

  const QueryEngine::Response alpha = RunLambda(registry, "alpha", 0);
  ASSERT_TRUE(alpha.status.ok());
  EXPECT_EQ(alpha.lambda, 3);  // Figure 2: vertex 0 sits in a K4

  StatusOr<SnapshotRegistry::Lease> beta = registry.Acquire("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta->engine().meta().family, Family::kTruss23);
  EXPECT_EQ(beta->updater(), nullptr);  // no graph= : read-only

  EXPECT_GT(registry.ResidentBytes(), 0);
  const StatusOr<TenantStats> stats = registry.Stats("alpha");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->resident);
  EXPECT_FALSE(stats->live);
  EXPECT_EQ(stats->loads, 1);
  EXPECT_EQ(stats->hits, 1);
}

TEST(SnapshotRegistry, RejectsInvalidSpecsAndDuplicates) {
  Fleet fleet;
  SnapshotRegistry registry;
  TenantSpec bad = fleet.a;
  bad.name = "no spaces";
  EXPECT_FALSE(registry.Attach(bad).ok());
  bad.name = "with:colon";
  EXPECT_FALSE(registry.Attach(bad).ok());
  bad = fleet.a;
  bad.snapshot_path.clear();
  EXPECT_FALSE(registry.Attach(bad).ok());
  bad = fleet.a;
  bad.delta_paths = {"d1.nucdelta"};  // deltas without graph
  EXPECT_FALSE(registry.Attach(bad).ok());

  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  const Status duplicate = registry.Attach(fleet.a);
  EXPECT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.message().find("already attached"), std::string::npos);

  EXPECT_EQ(registry.Acquire("nobody").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Detach("nobody").code(), StatusCode::kNotFound);
}

// One broken tenant among healthy ones: every corruption mode surfaces as
// a Status naming the tenant at ATTACH, nothing is registered for it, and
// the healthy tenants attach and answer as if it never existed.
TEST(SnapshotRegistry, AttachFaultInjectionSweep) {
  Fleet fleet;
  const std::string good_bytes = ReadFile(fleet.b.snapshot_path);
  ASSERT_GT(good_bytes.size(), 100u);

  struct Corruption {
    const char* name;
    std::string bytes;
  };
  std::string flipped = good_bytes;
  flipped[good_bytes.size() / 2] ^= 0x5a;  // payload bit flip -> checksum
  const std::vector<Corruption> corruptions = {
      {"missing file", ""},  // sentinel: delete instead of write
      {"truncated header", good_bytes.substr(0, 16)},
      {"truncated payload", good_bytes.substr(0, good_bytes.size() - 9)},
      {"bad magic", "NOTASNAP" + good_bytes.substr(8)},
      {"checksum flip", flipped},
  };

  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.name);
    TenantSpec broken = fleet.b;
    broken.name = "broken";
    broken.snapshot_path = TempPath("reg_broken.nucsnap");
    if (corruption.bytes.empty()) {
      std::remove(broken.snapshot_path.c_str());
    } else {
      WriteFile(broken.snapshot_path, corruption.bytes);
    }

    SnapshotRegistry registry;
    ASSERT_TRUE(registry.Attach(fleet.a).ok());
    const Status status = registry.Attach(broken);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("tenant 'broken'"), std::string::npos)
        << status.ToString();
    ASSERT_TRUE(registry.Attach(fleet.c).ok());

    // The failed tenant was never registered; the healthy ones serve.
    EXPECT_EQ(registry.TenantNames(),
              (std::vector<std::string>{"alpha", "gamma"}));
    EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
    EXPECT_TRUE(RunLambda(registry, "gamma", 0).status.ok());
  }
}

// The two memory modes' verification contracts on one file with a flipped
// density-ranking byte: heap (owned) verifies every section at attach and
// refuses the tenant, naming the section; mmap attaches, keeps answering
// the queries that never read the ranking, and fails the first one that
// does.
TEST(SnapshotRegistry, FlippedSectionFailsHeapAttachAndFirstMmapTopQuery) {
  Fleet fleet;
  std::string bytes = ReadFile(fleet.b.snapshot_path);
  // Directory entry 10 (density_ranking) starts at 72 + 9 * 32; its
  // section offset is the entry's second 8-byte field.
  std::int64_t ranking_offset = 0;
  std::memcpy(&ranking_offset, bytes.data() + 72 + 9 * 32 + 8, 8);
  bytes[static_cast<std::size_t>(ranking_offset)] ^= 0x01;
  TenantSpec broken = fleet.b;
  broken.name = "broken";
  broken.snapshot_path = TempPath("reg_flipped_section.nucsnap");
  WriteFile(broken.snapshot_path, bytes);

  RegistryOptions heap_options;
  heap_options.memory_mode = SnapshotMemoryMode::kHeap;
  SnapshotRegistry heap_registry(heap_options);
  const Status attach = heap_registry.Attach(broken);
  ASSERT_FALSE(attach.ok());
  EXPECT_NE(attach.message().find("tenant 'broken'"), std::string::npos);
  EXPECT_NE(attach.message().find("density_ranking: checksum mismatch"),
            std::string::npos)
      << attach.ToString();
  EXPECT_TRUE(heap_registry.TenantNames().empty());

  RegistryOptions mmap_options;
  mmap_options.memory_mode = SnapshotMemoryMode::kMmap;
  SnapshotRegistry mmap_registry(mmap_options);
  ASSERT_TRUE(mmap_registry.Attach(broken).ok());
  EXPECT_TRUE(RunLambda(mmap_registry, "broken", 0).status.ok());
  StatusOr<SnapshotRegistry::Lease> lease = mmap_registry.Acquire("broken");
  ASSERT_TRUE(lease.ok());
  const QueryEngine::Response top =
      lease->engine().Run({QueryEngine::QueryKind::kTop, 3, 0});
  ASSERT_FALSE(top.status.ok());
  EXPECT_NE(top.status.message().find("density_ranking: checksum mismatch"),
            std::string::npos)
      << top.status.ToString();
  EXPECT_TRUE(RunLambda(mmap_registry, "broken", 1).status.ok());
  std::remove(broken.snapshot_path.c_str());
}

// A live tenant whose graph does not match its snapshot (fingerprint
// mismatch) is a pairing error at attach.
TEST(SnapshotRegistry, AttachRejectsFingerprintMismatch) {
  const Graph real = testing_util::PaperFigure2Graph();
  // Same vertex and edge counts as Figure 2, different content: the
  // bridge cycle closes through vertex 2 instead of 3, so only the
  // fingerprint can tell the graphs apart.
  GraphBuilder rewired_builder(real.NumVertices());
  real.ForEachEdge([&rewired_builder](VertexId u, VertexId v) {
    if (u == 3 && v == 9) return;
    rewired_builder.AddEdge(u, v);
  });
  rewired_builder.AddEdge(2, 9);
  const Graph rewired = rewired_builder.Build();
  ASSERT_EQ(rewired.NumVertices(), real.NumVertices());
  ASSERT_EQ(rewired.NumEdges(), real.NumEdges());

  TenantSpec live;
  live.name = "live";
  live.snapshot_path = WriteSnapshotFile(real, Family::kCore12,
                                         Algorithm::kDft,
                                         "reg_live.nucsnap");
  live.graph_path = WriteGraphFile(rewired, "reg_wrong_graph.txt");

  SnapshotRegistry registry;
  const Status status = registry.Attach(live);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tenant 'live'"), std::string::npos);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos)
      << status.ToString();

  // The correctly paired graph attaches fine and enables updates.
  live.graph_path = WriteGraphFile(real, "reg_right_graph.txt");
  ASSERT_TRUE(registry.Attach(live).ok());
  StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("live");
  ASSERT_TRUE(lease.ok());
  EXPECT_NE(lease->updater(), nullptr);
  const StatusOr<TenantStats> stats = registry.Stats("live");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->live);
}

// A tenant corrupted AFTER attach surfaces the fault at lazy re-load —
// per-Acquire, tenant still attached — and recovers once the file does,
// while the other tenant keeps serving throughout.
TEST(SnapshotRegistry, ReloadFaultIsPerTenantAndRecoverable) {
  Fleet fleet;
  RegistryOptions options;
  options.memory_budget_bytes = 1;  // nothing idle stays resident
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  ASSERT_TRUE(registry.Attach(fleet.b).ok());

  // Budget 1 byte: the eager attach load is immediately evicted again.
  StatusOr<TenantStats> stats = registry.Stats("alpha");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->resident);
  EXPECT_EQ(stats->evictions, 1);

  // Healthy lazy re-load on next acquire.
  EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
  stats = registry.Stats("alpha");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->loads, 2);

  // Corrupt alpha on disk; once the budget evicts its engine (acquiring
  // beta does that), the next re-load fails, names the tenant, and
  // leaves it attached. beta never notices.
  const std::string good_bytes = ReadFile(fleet.a.snapshot_path);
  WriteFile(fleet.a.snapshot_path, good_bytes.substr(0, 32));
  EXPECT_TRUE(RunLambda(registry, "beta", 0).status.ok());
  EXPECT_FALSE(registry.Stats("alpha")->resident);
  const StatusOr<SnapshotRegistry::Lease> broken =
      registry.Acquire("alpha");
  EXPECT_FALSE(broken.ok());
  EXPECT_NE(broken.status().message().find("tenant 'alpha'"),
            std::string::npos);
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(RunLambda(registry, "beta", 0).status.ok());

  // Restore the file: the tenant recovers without any re-attach.
  WriteFile(fleet.a.snapshot_path, good_bytes);
  EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
}

// Evict + lazy re-load must be answer-preserving: a routed session served
// under a budget small enough to force eviction on every tenant switch is
// byte-identical to the same session against an unbounded registry.
TEST(SnapshotRegistry, EvictionRoundTripIsByteIdentical) {
  Fleet fleet;
  std::string script;
  for (int round = 0; round < 3; ++round) {
    for (const char* tenant : {"alpha", "beta", "gamma"}) {
      for (int u = 0; u < 6; ++u) {
        script += std::string(tenant) + ":lambda " + std::to_string(u) + "\n";
        script += std::string(tenant) + ":common " + std::to_string(u) +
                  " " + std::to_string((u + 1) % 6) + "\n";
      }
      script += std::string(tenant) + ":top 3\n";
      script += std::string(tenant) + ":members 0\n";
    }
  }

  const auto serve = [&](std::int64_t budget_bytes, int threads,
                         std::int64_t* total_evictions) {
    RegistryOptions options;
    options.memory_budget_bytes = budget_bytes;
    SnapshotRegistry registry(options);
    EXPECT_TRUE(registry.Attach(fleet.a).ok());
    EXPECT_TRUE(registry.Attach(fleet.b).ok());
    EXPECT_TRUE(registry.Attach(fleet.c).ok());
    ServeOptions serve_options;
    serve_options.parallel.num_threads = threads;
    std::istringstream in(script);
    std::ostringstream out_stream;
    ServeRegistryRequests(registry, in, out_stream, serve_options);
    *total_evictions = 0;
    for (const char* tenant : {"alpha", "beta", "gamma"}) {
      *total_evictions += registry.Stats(tenant)->evictions;
    }
    return out_stream.str();
  };

  std::int64_t unbounded_evictions = 0;
  const std::string reference = serve(0, 1, &unbounded_evictions);
  EXPECT_EQ(unbounded_evictions, 0);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    std::int64_t tight_evictions = 0;
    EXPECT_EQ(serve(1, threads, &tight_evictions), reference);
    EXPECT_GE(tight_evictions, 3);  // every tenant cycled at least once
  }
}

// Pinned engines are never evicted: the budget is best-effort while a
// batch is in flight, and the overshoot is reclaimed as soon as the
// pins drop — an idle registry does not sit over budget waiting for a
// next request.
TEST(SnapshotRegistry, PinnedEnginesSurviveBudgetPressure) {
  Fleet fleet;
  RegistryOptions options;
  options.memory_budget_bytes = 1;
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  ASSERT_TRUE(registry.Attach(fleet.b).ok());

  {
    StatusOr<SnapshotRegistry::Lease> alpha = registry.Acquire("alpha");
    ASSERT_TRUE(alpha.ok());
    StatusOr<SnapshotRegistry::Lease> beta = registry.Acquire("beta");
    ASSERT_TRUE(beta.ok());
    // Both over budget, both pinned: both stay resident.
    EXPECT_TRUE(registry.Stats("alpha")->resident);
    EXPECT_TRUE(registry.Stats("beta")->resident);
    EXPECT_GT(registry.ResidentBytes(), options.memory_budget_bytes);
    EXPECT_EQ(registry.Stats("alpha")->pins, 1);

    // The pinned engine keeps answering.
    QueryEngine::Query query;
    query.kind = QueryEngine::QueryKind::kLambda;
    query.a = 0;
    EXPECT_TRUE(alpha->engine().Run(query).status.ok());
  }

  // Pins dropped: the releasing leases themselves re-enforce the budget,
  // with no further request needed.
  EXPECT_FALSE(registry.Stats("alpha")->resident);
  EXPECT_FALSE(registry.Stats("beta")->resident);
  EXPECT_LE(registry.ResidentBytes(), options.memory_budget_bytes);
  // And both lazily re-load on their next hit.
  EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
  EXPECT_TRUE(RunLambda(registry, "beta", 0).status.ok());
}

// Detach while a lease is out: the registry forgets the tenant at once,
// but the leased state stays alive and answering until released.
TEST(SnapshotRegistry, DetachWhileLeasedKeepsStateAlive) {
  Fleet fleet;
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("alpha");
  ASSERT_TRUE(lease.ok());

  ASSERT_TRUE(registry.Detach("alpha").ok());
  EXPECT_TRUE(registry.TenantNames().empty());
  EXPECT_EQ(registry.ResidentBytes(), 0);
  EXPECT_EQ(registry.Acquire("alpha").status().code(),
            StatusCode::kNotFound);

  QueryEngine::Query query;
  query.kind = QueryEngine::QueryKind::kLambda;
  query.a = 0;
  const QueryEngine::Response response = lease->engine().Run(query);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.lambda, 3);
}

// A tenant with applied-but-unpersisted updates is dirty and never
// evicted: dropping it would silently roll the served state back to disk.
TEST(SnapshotRegistry, DirtyTenantsAreNeverEvicted) {
  const Graph g = testing_util::PaperFigure2Graph();
  TenantSpec live;
  live.name = "live";
  live.snapshot_path = WriteSnapshotFile(g, Family::kCore12,
                                         Algorithm::kDft,
                                         "reg_dirty.nucsnap");
  live.graph_path = WriteGraphFile(g, "reg_dirty_graph.txt");
  Fleet fleet;

  RegistryOptions options;
  options.memory_budget_bytes = 1;
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(live).ok());

  {
    StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("live");
    ASSERT_TRUE(lease.ok());
    ASSERT_NE(lease->updater(), nullptr);
    // Apply a real edit (bridge edge 3-8 exists in Figure 2) and publish.
    EdgeEdit edit;
    edit.u = 3;
    edit.v = 8;
    edit.op = EdgeEditOp::kRemove;
    StatusOr<LiveUpdater::Result> result =
        LockedApply(*lease->updater(),
                    std::span<const EdgeEdit>(&edit, 1));
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->changed);
    ASSERT_TRUE(
        lease->engine().ApplyUpdate(std::move(result->snapshot)).ok());
    lease->MarkUpdated();
  }

  // The 1-byte budget already cycled the tenant once BEFORE it was dirty
  // (attach loads eagerly, then evicts the idle engine); that eviction
  // count must not advance now that unpersisted updates exist.
  const std::int64_t evictions_while_clean =
      registry.Stats("live")->evictions;

  // Budget pressure from another tenant: the dirty engine must survive.
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
  const StatusOr<TenantStats> stats = registry.Stats("live");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->dirty);
  EXPECT_TRUE(stats->resident);
  EXPECT_EQ(stats->evictions, evictions_while_clean);
  EXPECT_EQ(stats->updates, 1);

  // And it serves the POST-update answer (vertex 8 fell out of the
  // 2-core cycle when the bridge edge left).
  const QueryEngine::Response after = RunLambda(registry, "live", 8);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.lambda, 1);
}

// The member cache is observable per tenant, and its counters survive
// eviction (the registry accumulates a retiring engine's stats).
TEST(SnapshotRegistry, PerTenantCacheStatsSurviveEviction) {
  Fleet fleet;
  RegistryOptions options;
  options.memory_budget_bytes = 1;
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  ASSERT_TRUE(registry.Attach(fleet.b).ok());

  {
    StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("alpha");
    ASSERT_TRUE(lease.ok());
    QueryEngine::Query query;
    query.kind = QueryEngine::QueryKind::kMembers;
    query.a = 0;
    ASSERT_TRUE(lease->engine().Run(query).status.ok());  // miss
    ASSERT_TRUE(lease->engine().Run(query).status.ok());  // hit
    const StatusOr<TenantStats> resident = registry.Stats("alpha");
    ASSERT_TRUE(resident.ok());
    EXPECT_EQ(resident->cache.misses, 1);
    EXPECT_EQ(resident->cache.hits, 1);
    EXPECT_EQ(resident->cache.entries, 1);
  }
  // beta's dimension is untouched.
  EXPECT_EQ(registry.Stats("beta")->cache.hits, 0);
  EXPECT_EQ(registry.Stats("beta")->cache.misses, 0);

  // Evict alpha (acquire beta under the 1-byte budget), then check the
  // retired counters are still attributed to alpha; the entries gauge
  // drops with the engine.
  EXPECT_TRUE(RunLambda(registry, "beta", 0).status.ok());
  const StatusOr<TenantStats> retired = registry.Stats("alpha");
  ASSERT_TRUE(retired.ok());
  EXPECT_FALSE(retired->resident);
  EXPECT_EQ(retired->cache.misses, 1);
  EXPECT_EQ(retired->cache.hits, 1);
  EXPECT_EQ(retired->cache.entries, 0);
}

// Concurrency: acquires, queries, budget-driven evictions and
// attach/detach churn race from several threads. Every successful
// acquire must answer correctly off a pinned engine; failures may only
// be the expected per-tenant NotFound (detached at that instant). Run
// under TSan in CI.
TEST(SnapshotRegistry, ConcurrentAcquireEvictDetachChurn) {
  Fleet fleet;
  RegistryOptions options;
  // Roughly one engine's worth: acquires from different threads keep
  // evicting each other's idle engines while churn detaches/attaches.
  options.memory_budget_bytes = 6000;
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  ASSERT_TRUE(registry.Attach(fleet.b).ok());
  ASSERT_TRUE(registry.Attach(fleet.c).ok());

  std::atomic<std::int64_t> answered{0};
  const auto worker = [&](const std::string& name, Lambda expected) {
    for (int i = 0; i < 50; ++i) {
      StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire(name);
      if (!lease.ok()) {
        // Only the churn tenant may vanish mid-run.
        EXPECT_EQ(lease.status().code(), StatusCode::kNotFound);
        EXPECT_EQ(name, "gamma");
        continue;
      }
      QueryEngine::Query query;
      query.kind = QueryEngine::QueryKind::kLambda;
      query.a = 0;
      const QueryEngine::Response response = lease->engine().Run(query);
      ASSERT_TRUE(response.status.ok());
      if (expected >= 0) {
        EXPECT_EQ(response.lambda, expected);
      }
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(worker, "alpha", 3);   // Figure 2: K4 member
  threads.emplace_back(worker, "alpha", 3);
  threads.emplace_back(worker, "beta", -1);   // truss ids: just validity
  threads.emplace_back(worker, "gamma", -1);
  std::thread churn([&] {
    for (int i = 0; i < 25; ++i) {
      EXPECT_TRUE(registry.Detach("gamma").ok());
      EXPECT_TRUE(registry.Attach(fleet.c).ok());
    }
  });
  for (std::thread& t : threads) t.join();
  churn.join();
  EXPECT_GT(answered.load(), 0);
  // The registry settles into a consistent state: all three attached,
  // accounting non-negative and every tenant still acquirable.
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_GE(registry.ResidentBytes(), 0);
  for (const char* name : {"alpha", "beta", "gamma"}) {
    EXPECT_TRUE(RunLambda(registry, name, 0).status.ok());
  }
}

// Manifest surface: the strict-parsing discipline of the CLI and serve
// protocol applies to the tenant file too.
TEST(RegistryManifest, ParsesTenantsAndResolvesRelativePaths) {
  const StatusOr<RegistryManifest> manifest = ParseManifest(
      "# two tenants\n"
      "\n"
      "tenant web snapshot=web.nucsnap\n"
      "tenant social snapshot=/abs/social.nucsnap "
      "deltas=d1.nucdelta,/abs/d2.nucdelta graph=social.txt\n",
      "/base");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->tenants.size(), 2u);
  EXPECT_EQ(manifest->tenants[0].name, "web");
  EXPECT_EQ(manifest->tenants[0].snapshot_path, "/base/web.nucsnap");
  EXPECT_TRUE(manifest->tenants[0].graph_path.empty());
  EXPECT_EQ(manifest->tenants[1].snapshot_path, "/abs/social.nucsnap");
  ASSERT_EQ(manifest->tenants[1].delta_paths.size(), 2u);
  EXPECT_EQ(manifest->tenants[1].delta_paths[0], "/base/d1.nucdelta");
  EXPECT_EQ(manifest->tenants[1].delta_paths[1], "/abs/d2.nucdelta");
  EXPECT_EQ(manifest->tenants[1].graph_path, "/base/social.txt");
}

TEST(RegistryManifest, RejectsEveryMalformedShapeWithItsLineNumber) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"server web snapshot=a\n", "expected 'tenant"},
      {"tenant web\n", "snapshot=<path>"},
      {"tenant web snapshot=a extra\n", "key=value"},
      {"tenant web snapshot=a snapshot=b\n", "duplicate key"},
      {"tenant web snapshot=a unknown=b\n", "unknown key"},
      {"tenant web snapshot=\n", "empty value"},
      {"tenant web snapshot=a deltas=d1,,d2 graph=g\n", "deltas="},
      {"tenant web snapshot=a deltas=d1\n", "requires graph="},
      {"tenant we:b snapshot=a\n", "invalid tenant name"},
      {"tenant web snapshot=a\ntenant web snapshot=b\n", "declared twice"},
  };
  for (const auto& [text, expected] : cases) {
    SCOPED_TRACE(text);
    const StatusOr<RegistryManifest> manifest = ParseManifest(text);
    ASSERT_FALSE(manifest.ok());
    EXPECT_NE(manifest.status().message().find("manifest line"),
              std::string::npos)
        << manifest.status().ToString();
    EXPECT_NE(manifest.status().message().find(expected), std::string::npos)
        << manifest.status().ToString();
  }
}

TEST(RegistryManifest, AttachManifestLoadsEveryTenant) {
  Fleet fleet;
  const StatusOr<RegistryManifest> manifest = ParseManifest(
      "tenant alpha snapshot=" + fleet.a.snapshot_path + "\n" +
      "tenant beta snapshot=" + fleet.b.snapshot_path + "\n");
  ASSERT_TRUE(manifest.ok());
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.AttachManifest(*manifest).ok());
  EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
  EXPECT_TRUE(RunLambda(registry, "beta", 0).status.ok());
}

// Detaching a dirty live tenant persists its state instead of dropping
// it: the pending delta records land next to the snapshot, the current
// graph next to the graph file, and re-attaching from the reported paths
// serves the post-update answers. (Losing the updates would make this
// round trip answer the PRE-update state.)
TEST(SnapshotRegistry, DirtyDetachPersistsAndRoundTrips) {
  const Graph g = testing_util::PaperFigure2Graph();
  TenantSpec live;
  live.name = "live";
  live.snapshot_path = WriteSnapshotFile(g, Family::kCore12, Algorithm::kDft,
                                         "detach_live.nucsnap");
  live.graph_path = WriteGraphFile(g, "detach_live_graph.txt");
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(live).ok());

  {
    StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("live");
    ASSERT_TRUE(lease.ok());
    ASSERT_NE(lease->updater(), nullptr);
    EdgeEdit edit;
    edit.u = 3;
    edit.v = 8;
    edit.op = EdgeEditOp::kRemove;
    StatusOr<LiveUpdater::Result> result =
        LockedApply(*lease->updater(),
                    std::span<const EdgeEdit>(&edit, 1));
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->changed);
    ASSERT_TRUE(
        lease->engine().ApplyUpdate(std::move(result->snapshot)).ok());
    lease->MarkUpdated(result->delta);
  }
  ASSERT_TRUE(registry.Stats("live")->dirty);

  // The post-update ground truth, per vertex.
  std::vector<Lambda> expected;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const QueryEngine::Response response = RunLambda(registry, "live", u);
    ASSERT_TRUE(response.status.ok());
    expected.push_back(response.lambda);
  }
  // The edit really changed the answer: vertex 8 left the bridge cycle.
  EXPECT_EQ(expected[8], 1);

  std::vector<std::string> persisted;
  ASSERT_TRUE(registry.Detach("live", /*force=*/false, &persisted).ok());
  EXPECT_TRUE(registry.TenantNames().empty());
  ASSERT_EQ(persisted.size(), 2u);  // one delta batch + the graph

  // Re-attach from exactly what Detach reported.
  TenantSpec reloaded = live;
  for (const std::string& path : persisted) {
    if (path.size() >= 9 &&
        path.compare(path.size() - 9, 9, ".nucdelta") == 0) {
      reloaded.delta_paths.push_back(path);
    } else {
      reloaded.graph_path = path;
    }
  }
  ASSERT_EQ(reloaded.delta_paths.size(), 1u);
  ASSERT_NE(reloaded.graph_path, live.graph_path);
  ASSERT_TRUE(registry.Attach(reloaded).ok());
  EXPECT_FALSE(registry.Stats("live")->dirty);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const QueryEngine::Response response = RunLambda(registry, "live", u);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.lambda, expected[u]) << "vertex " << u;
  }
}

// A dirty tenant whose updates were never recorded as delta batches (the
// zero-argument MarkUpdated) cannot be persisted: the detach REFUSES and
// leaves the tenant attached and serving, until `force` discards the
// state deliberately — at which point its cache counters fold into the
// registry summary instead of vanishing.
TEST(SnapshotRegistry, DirtyDetachWithoutRecordedDeltaRefusesUnlessForced) {
  const Graph g = testing_util::PaperFigure2Graph();
  TenantSpec live;
  live.name = "live";
  live.snapshot_path = WriteSnapshotFile(g, Family::kCore12, Algorithm::kDft,
                                         "detach_refuse.nucsnap");
  live.graph_path = WriteGraphFile(g, "detach_refuse_graph.txt");
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(live).ok());

  {
    StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("live");
    ASSERT_TRUE(lease.ok());
    EdgeEdit edit;
    edit.u = 3;
    edit.v = 8;
    edit.op = EdgeEditOp::kRemove;
    StatusOr<LiveUpdater::Result> result =
        LockedApply(*lease->updater(),
                    std::span<const EdgeEdit>(&edit, 1));
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(
        lease->engine().ApplyUpdate(std::move(result->snapshot)).ok());
    lease->MarkUpdated();  // dirty, but no record to persist

    // Cache traffic that must survive the eventual detach.
    QueryEngine::Query query;
    query.kind = QueryEngine::QueryKind::kMembers;
    query.a = 0;
    ASSERT_TRUE(lease->engine().Run(query).status.ok());  // miss
    ASSERT_TRUE(lease->engine().Run(query).status.ok());  // hit
  }

  const Status refused = registry.Detach("live");
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("force"), std::string::npos)
      << refused.ToString();
  // Still attached, still dirty, still serving the post-update answer.
  EXPECT_EQ(registry.TenantNames(), (std::vector<std::string>{"live"}));
  EXPECT_TRUE(registry.Stats("live")->dirty);
  const QueryEngine::Response after = RunLambda(registry, "live", 8);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.lambda, 1);

  ASSERT_TRUE(registry.Detach("live", /*force=*/true).ok());
  EXPECT_TRUE(registry.TenantNames().empty());
  const RegistrySummary summary = registry.Summary();
  EXPECT_EQ(summary.detaches, 1);
  EXPECT_EQ(summary.detached_cache.hits, 1);
  EXPECT_EQ(summary.detached_cache.misses, 1);
}

// A dirty detach racing an in-flight update loses nothing: the persist
// takes the updater's apply mutex, so it blocks behind an update that is
// mid-apply and then writes that update's delta too. Pre-fix the persist
// copied the pending queue, did its IO, and clear()ed the queue — a
// delta recorded in that window was dropped unwritten with dirty=false.
TEST(RegistryConcurrentLoad, DetachPersistIncludesUpdateLandingMidDetach) {
  const Graph g = testing_util::PaperFigure2Graph();
  TenantSpec live;
  live.name = "live";
  live.snapshot_path = WriteSnapshotFile(g, Family::kCore12, Algorithm::kDft,
                                         "detach_race.nucsnap");
  live.graph_path = WriteGraphFile(g, "detach_race_graph.txt");
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(live).ok());

  std::vector<std::string> persisted;
  Status detach_status;
  {
    StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("live");
    ASSERT_TRUE(lease.ok());
    ASSERT_NE(lease->updater(), nullptr);
    const auto apply = [&](VertexId u, VertexId v) {
      EdgeEdit edit;
      edit.u = u;
      edit.v = v;
      edit.op = EdgeEditOp::kRemove;
      StatusOr<LiveUpdater::Result> result =
          ApplyUnchecked(*lease->updater(),
                         std::span<const EdgeEdit>(&edit, 1));
      ASSERT_TRUE(result.ok());
      ASSERT_TRUE(result->changed);
      ASSERT_TRUE(
          lease->engine().ApplyUpdate(std::move(result->snapshot)).ok());
      lease->MarkUpdated(result->delta);
    };
    apply(3, 8);  // dirty: the detach below must take the persist path
    ASSERT_TRUE(registry.Stats("live")->dirty);

    // Hold the apply mutex the way the serve loop's update path does,
    // detach from another thread, and record a second update while the
    // detach is (post-fix) parked on that mutex.
    MutexLock apply_lock(lease->updater()->apply_mutex());
    std::thread detacher([&] {
      detach_status = registry.Detach("live", /*force=*/false, &persisted);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    apply(4, 9);
    apply_lock.Unlock();
    detacher.join();
  }
  ASSERT_TRUE(detach_status.ok()) << detach_status.ToString();
  EXPECT_TRUE(registry.TenantNames().empty());
  ASSERT_EQ(persisted.size(), 3u);  // BOTH delta batches + the graph

  TenantSpec reloaded = live;
  reloaded.delta_paths.clear();
  for (const std::string& path : persisted) {
    if (path.size() >= 9 &&
        path.compare(path.size() - 9, 9, ".nucdelta") == 0) {
      reloaded.delta_paths.push_back(path);
    } else {
      reloaded.graph_path = path;
    }
  }
  ASSERT_EQ(reloaded.delta_paths.size(), 2u);
  ASSERT_TRUE(registry.Attach(reloaded).ok());
  // Both removals survived the round trip: the bridge cycle is gone, so
  // vertices 8 and 9 each keep a single edge.
  EXPECT_EQ(RunLambda(registry, "live", 8).lambda, 1);
  EXPECT_EQ(RunLambda(registry, "live", 9).lambda, 1);
  EXPECT_EQ(RunLambda(registry, "live", 0).lambda, 3);
}

// AttachManifest is atomic: a failure on the Nth tenant rolls back the
// tenants the call already attached (leaving earlier, independently
// attached tenants alone) and names the failing tenant.
TEST(RegistryManifest, AttachManifestRollsBackOnLaterFailure) {
  Fleet fleet;
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.Attach(fleet.c).ok());  // pre-existing tenant

  const StatusOr<RegistryManifest> manifest = ParseManifest(
      "tenant alpha snapshot=" + fleet.a.snapshot_path + "\n" +
      "tenant beta snapshot=" + fleet.b.snapshot_path + "\n" +
      "tenant broken snapshot=/nonexistent/broken.nucsnap\n");
  ASSERT_TRUE(manifest.ok());
  const Status status = registry.AttachManifest(*manifest);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tenant 'broken'"), std::string::npos)
      << status.ToString();

  // alpha and beta were rolled back; gamma was never touched.
  EXPECT_EQ(registry.TenantNames(), (std::vector<std::string>{"gamma"}));
  EXPECT_TRUE(RunLambda(registry, "gamma", 0).status.ok());

  // The registry is not poisoned: the same tenants attach cleanly once
  // the manifest is fixed.
  const StatusOr<RegistryManifest> fixed = ParseManifest(
      "tenant alpha snapshot=" + fleet.a.snapshot_path + "\n" +
      "tenant beta snapshot=" + fleet.b.snapshot_path + "\n");
  ASSERT_TRUE(fixed.ok());
  ASSERT_TRUE(registry.AttachManifest(*fixed).ok());
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

/// Gate used by the RegistryConcurrentLoad tests: lets a load_hook block
/// one tenant's lazy re-load until the test releases it.
struct LoadGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool armed = false;
  bool entered = false;
  bool released = false;
  std::int64_t lazy_loads = 0;

  void Arm() {
    std::lock_guard<std::mutex> lock(mutex);
    armed = true;
  }
  /// The hook body: counts + blocks while armed.
  void Enter(const std::string& /*tenant*/) {
    std::unique_lock<std::mutex> lock(mutex);
    if (!armed) return;
    ++lazy_loads;
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

// One tenant's slow lazy re-load must not head-of-line-block the
// registry: while alpha's load is held open, other tenants acquire and
// answer, and the admin plane (names, stats) stays responsive. Against a
// registry that loads under its global mutex, every one of those calls
// deadlocks behind the held load.
TEST(RegistryConcurrentLoad, SlowReloadDoesNotBlockOtherTenants) {
  Fleet fleet;
  LoadGate gate;
  RegistryOptions options;
  options.memory_budget_bytes = 1;  // every idle engine evicts: next
                                    // Acquire is a lazy re-load
  options.load_hook = [&gate](const std::string& tenant) {
    if (tenant == "alpha") gate.Enter(tenant);
  };
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  ASSERT_TRUE(registry.Attach(fleet.b).ok());
  gate.Arm();

  std::thread loader([&registry] {
    const QueryEngine::Response response = RunLambda(registry, "alpha", 0);
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.lambda, 3);
  });
  gate.AwaitEntered();

  // alpha is mid-load and holding NO lock: beta serves, admin calls run.
  EXPECT_TRUE(RunLambda(registry, "beta", 0).status.ok());
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  const StatusOr<TenantStats> stats = registry.Stats("alpha");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->resident);

  gate.Release();
  loader.join();
}

// Concurrent Acquires of the same evicted tenant coalesce onto ONE
// in-flight load: the disk is read once, every caller gets a lease.
TEST(RegistryConcurrentLoad, ConcurrentAcquiresCoalesceOntoOneLoad) {
  Fleet fleet;
  LoadGate gate;
  RegistryOptions options;
  options.memory_budget_bytes = 1;
  options.load_hook = [&gate](const std::string& tenant) {
    gate.Enter(tenant);
  };
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  gate.Arm();

  constexpr int kThreads = 4;
  std::atomic<int> successes{0};
  // Leases release only after every thread holds one: under the 1-byte
  // budget an early release would evict the engine again and the next
  // Acquire would be a fresh (correct, but uncoalesced) re-load.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int holding = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      StatusOr<SnapshotRegistry::Lease> lease = registry.Acquire("alpha");
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      QueryEngine::Query query;
      query.kind = QueryEngine::QueryKind::kLambda;
      query.a = 0;
      const QueryEngine::Response response = lease->engine().Run(query);
      ASSERT_TRUE(response.status.ok());
      EXPECT_EQ(response.lambda, 3);
      successes.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lock(barrier_mutex);
      ++holding;
      barrier_cv.notify_all();
      barrier_cv.wait(lock, [&] { return holding == kThreads; });
    });
  }
  gate.AwaitEntered();
  // Give the remaining Acquires time to coalesce onto the held load (if
  // one arrives after the install instead, it is a resident hit — either
  // way the load below stays single).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Release();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(successes.load(), kThreads);
  std::lock_guard<std::mutex> lock(gate.mutex);
  EXPECT_EQ(gate.lazy_loads, 1);
}

// A failing coalesced load reports the failure to EVERY waiting Acquire
// individually, and the tenant stays attached and retryable — the next
// Acquire after the file recovers succeeds.
TEST(RegistryConcurrentLoad, ReloadFailureIsPerAcquireAndRetryable) {
  Fleet fleet;
  LoadGate gate;
  RegistryOptions options;
  options.memory_budget_bytes = 1;
  options.load_hook = [&gate](const std::string& tenant) {
    gate.Enter(tenant);
  };
  SnapshotRegistry registry(options);
  ASSERT_TRUE(registry.Attach(fleet.a).ok());
  const std::string good_bytes = ReadFile(fleet.a.snapshot_path);
  WriteFile(fleet.a.snapshot_path, good_bytes.substr(0, 32));
  gate.Arm();

  constexpr int kThreads = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      const StatusOr<SnapshotRegistry::Lease> lease =
          registry.Acquire("alpha");
      ASSERT_FALSE(lease.ok());
      EXPECT_NE(lease.status().message().find("tenant 'alpha'"),
                std::string::npos)
          << lease.status().ToString();
      failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  gate.AwaitEntered();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Release();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), kThreads);

  // Still attached; recovers in place.
  EXPECT_EQ(registry.TenantNames(), (std::vector<std::string>{"alpha"}));
  WriteFile(fleet.a.snapshot_path, good_bytes);
  EXPECT_TRUE(RunLambda(registry, "alpha", 0).status.ok());
}

TEST(SnapshotRegistry, EstimateResidentBytesScalesWithContent) {
  const Graph small = Complete(4);
  const Graph large = ErdosRenyiGnp(200, 0.1, 3);
  DecomposeOptions options;
  options.family = Family::kCore12;
  options.algorithm = Algorithm::kDft;
  const SnapshotData small_snapshot = MakeSnapshot(
      small, options, Decompose(small, options), /*with_index=*/true);
  const SnapshotData large_snapshot = MakeSnapshot(
      large, options, Decompose(large, options), /*with_index=*/true);
  EXPECT_GT(EstimateResidentBytes(small_snapshot), 0);
  EXPECT_GT(EstimateResidentBytes(large_snapshot),
            EstimateResidentBytes(small_snapshot));
}

}  // namespace
}  // namespace nucleus
