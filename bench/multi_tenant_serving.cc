// Multi-tenant serving bench: routed throughput across several tenants in
// one registry process, priced against dedicated single-tenant sessions,
// and measured under eviction pressure.
//
// Three questions, one per measurement:
//
//   * routed_efficiency — total wall time of serving each tenant's
//     workload through its own dedicated engine, divided by the wall time
//     of one routed registry session serving the same interleaved
//     workload (all engines resident). ~1.0 means the registry's routing,
//     per-batch leasing and per-tenant sub-batching cost nothing
//     measurable; this is the gated column (a routing-layer regression
//     drags it toward 0).
//   * q/s at t in {1,2,4,8} with everything resident — the multi-tenant
//     analogue of bench/query_serving's throughput sweep, transcripts
//     byte-compared across thread counts (a divergence fails the bench).
//   * q/s under EVICTION PRESSURE — the same workload with a byte budget
//     sized to hold roughly one tenant, so every tenant block forces an
//     evict + lazy re-load cycle; transcripts must stay byte-identical to
//     the resident run (answer preservation under eviction is asserted,
//     not assumed). The resident/evicted ratio prices a reload.
//
// Flags:
//   --quick       CI smoke mode: smaller workload (Table 1 proxies either
//                 way — three tenants is the point, not dataset count)
//   --json F      write {"bench": "multi_tenant_serving", ...} for the
//                 perf-regression gate
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/table.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/serve/request_loop.h"
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
      std::cerr << "usage: multi_tenant_serving [--quick] [--json FILE]\n";
      std::exit(2);
    }
  }
  return options;
}

/// One tenant's request lines for one rotation block, as protocol text —
/// the bench measures the full serving surface (parse + route + batch +
/// JSON), not just QueryEngine::RunBatch.
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

struct Tenant {
  std::string name;
  std::string snapshot_path;
  std::int64_t bytes = 0;
  std::vector<std::string> blocks;  // one per round, unrouted lines
};

void Run(const Options& options) {
  const std::int64_t rounds = 4;
  const std::int64_t block_size = options.quick ? 1500 : 6000;
  const std::vector<std::string> names = Table1DatasetNames();

  std::cout << "Multi-tenant serving: " << names.size()
            << " tenants in one registry, " << rounds << " rotation rounds x "
            << block_size << " requests per tenant"
            << (options.quick ? " (quick mode)" : "") << "\n\n";

  // Build each tenant: decompose, snapshot to scratch, per-round blocks.
  std::vector<Tenant> tenants;
  std::vector<std::unique_ptr<ScratchFileRemover>> removers;
  std::int64_t max_tenant_bytes = 0;
  Rng rng(20260728);
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
    tenant.bytes = EstimateResidentBytes(snapshot);
    max_tenant_bytes = std::max(max_tenant_bytes, tenant.bytes);
    tenant.snapshot_path = UniqueScratchPath(
        "/tmp", "multi_tenant_" + spec.name, ".nucsnap");
    removers.push_back(
        std::make_unique<ScratchFileRemover>(tenant.snapshot_path));
    if (Status s = SaveSnapshotV2(snapshot, tenant.snapshot_path); !s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      std::exit(1);
    }
    for (std::int64_t round = 0; round < rounds; ++round) {
      tenant.blocks.push_back(MakeBlock(
          rng, snapshot.meta.num_cliques, snapshot.hierarchy.NumNodes(),
          snapshot.meta.max_lambda, block_size, ""));
    }
    tenants.push_back(std::move(tenant));
  }

  // The routed script: tenants rotate block by block, so a tight budget
  // must cycle every engine once per round.
  std::string routed_script;
  for (std::int64_t round = 0; round < rounds; ++round) {
    for (const Tenant& tenant : tenants) {
      std::istringstream lines(tenant.blocks[round]);
      for (std::string line; std::getline(lines, line);) {
        routed_script += tenant.name + ":" + line + "\n";
      }
    }
  }
  const std::int64_t total_requests =
      rounds * block_size * static_cast<std::int64_t>(tenants.size());

  const auto attach_all = [&](SnapshotRegistry& registry) {
    for (const Tenant& tenant : tenants) {
      TenantSpec spec;
      spec.name = tenant.name;
      spec.snapshot_path = tenant.snapshot_path;
      if (Status s = registry.Attach(spec); !s.ok()) {
        std::cerr << "error: " << s.ToString() << "\n";
        std::exit(1);
      }
    }
  };

  // Dedicated baseline: each tenant served alone, summed. Same thread
  // count (1) as the gated routed pass so the ratio isolates routing.
  double direct_seconds = 0.0;
  for (const Tenant& tenant : tenants) {
    StatusOr<SnapshotData> snapshot = LoadSnapshot(tenant.snapshot_path);
    if (!snapshot.ok()) {
      std::cerr << "error: " << snapshot.status().ToString() << "\n";
      std::exit(1);
    }
    const std::unique_ptr<QueryEngine> engine =
        QueryEngine::FromSnapshotData(std::move(*snapshot));
    std::string script;
    for (const std::string& block : tenant.blocks) script += block;
    ServeOptions serve_options;
    serve_options.parallel.num_threads = 1;
    std::istringstream in(script);
    std::ostringstream out;
    Timer timer;
    ServeRequests(*engine, in, out, serve_options);
    direct_seconds += timer.Seconds();
  }

  // Routed passes: resident (unlimited budget) and eviction pressure
  // (budget holds ~1.5 tenants), each at 1-8 threads with transcripts
  // byte-compared across every run — eviction must be answer-preserving.
  struct Mode {
    const char* label;
    std::int64_t budget;
  };
  // Pressure budget: the largest tenant plus half the smallest — every
  // tenant fits alone, no pair containing the largest does, so each
  // rotation round forces evict + re-load cycles.
  std::int64_t min_tenant_bytes = max_tenant_bytes;
  for (const Tenant& tenant : tenants) {
    min_tenant_bytes = std::min(min_tenant_bytes, tenant.bytes);
  }
  const std::vector<Mode> modes = {
      {"resident", 0},
      {"evicting", max_tenant_bytes + min_tenant_bytes / 2},
  };
  TablePrinter table({"mode", "budget MB", "q/s t1", "q/s t2", "q/s t4",
                      "q/s t8", "evictions"});
  double routed_t1_seconds = 0.0;
  std::string reference_transcript;
  for (const Mode& mode : modes) {
    std::vector<std::string> row{
        mode.label,
        FormatDouble(static_cast<double>(mode.budget) / (1 << 20), 2)};
    std::int64_t evictions = 0;
    for (const int threads : {1, 2, 4, 8}) {
      RegistryOptions registry_options;
      registry_options.memory_budget_bytes = mode.budget;
      SnapshotRegistry registry(registry_options);
      attach_all(registry);
      ServeOptions serve_options;
      serve_options.parallel.num_threads = threads;
      std::istringstream in(routed_script);
      std::ostringstream out;
      Timer timer;
      ServeRegistryRequests(registry, in, out, serve_options);
      const double seconds = timer.Seconds();
      if (mode.budget == 0 && threads == 1) routed_t1_seconds = seconds;
      if (reference_transcript.empty()) {
        reference_transcript = out.str();
      } else if (out.str() != reference_transcript) {
        std::cerr << "error: transcripts diverged (mode " << mode.label
                  << ", " << threads << " threads)\n";
        std::exit(1);
      }
      evictions = 0;
      for (const Tenant& tenant : tenants) {
        evictions += registry.Stats(tenant.name)->evictions;
      }
      row.push_back(FormatCount(static_cast<std::int64_t>(
          static_cast<double>(total_requests) / seconds)));
    }
    if (mode.budget > 0 &&
        evictions < static_cast<std::int64_t>(tenants.size())) {
      std::cerr << "error: eviction pressure not reached (" << evictions
                << " evictions)\n";
      std::exit(1);
    }
    row.push_back(FormatCount(evictions));
    table.AddRow(row);
  }
  table.Print(std::cout);

  const double routed_efficiency = direct_seconds / routed_t1_seconds;
  std::cout << "\ndirect (3 dedicated sessions, t1): "
            << FormatSeconds(direct_seconds)
            << "; routed resident t1: " << FormatSeconds(routed_t1_seconds)
            << "\nrouted_efficiency (direct/routed, ~1.0 when routing is "
               "free): " << FormatDouble(routed_efficiency, 3)
            << "\nTranscripts are byte-compared across modes and thread "
               "counts;\neviction + lazy re-load must be answer-preserving "
               "or the bench fails.\n";

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "error: cannot write " << options.json_path << "\n";
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"multi_tenant_serving\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
    std::fprintf(f, "  \"requests\": %lld,\n",
                 static_cast<long long>(total_requests));
    std::fprintf(f, "  \"results\": {\n");
    std::fprintf(f,
                 "    \"multi3\": {\"routed_efficiency\": %.4f}\n",
                 routed_efficiency);
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
