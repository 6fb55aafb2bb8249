// Serving bench: cold snapshot load vs full re-decomposition, batched
// query throughput at 1-8 threads, and the beyond-RAM story: one v2 file
// held owned (read + verified up front) vs mapped (zero-copy, verified
// lazily) — cold start and resident footprint.
//
// The paper's economics are "build once, query forever"; this bench prices
// both halves of that claim for the serving stack this repo adds on top:
//
//   * load speedup  — wall time of Decompose (FND, hierarchy + index-ready)
//     over wall time of LoadSnapshot on the same data. This is the factor a
//     restart of a serving process gains from the .nucsnap store; the CI
//     gate (tools/check_bench_regression.py) tracks it per dataset and the
//     acceptance bar is >= 10x.
//   * queries/sec   — a deterministic mixed workload (point lookups,
//     common-nucleus, top-k, member materialization) through
//     QueryEngine::RunBatch over the shared ThreadPool at 1, 2, 4 and 8
//     threads, with a cross-thread-count checksum proving answers are
//     schedule-invariant.
//   * mmap cold start / resident — time-to-first-answer and heap bytes of
//     a mapped engine vs an owned engine over the same v2 file. The mapped
//     path parses a 400-byte header and serves lambdas straight from the
//     page cache, so its cold start prices the header + one lazily
//     verified section instead of reading and verifying the whole file;
//     mapped resident bytes must stay below the snapshot file size. Both
//     engines answer the whole workload at every thread count and every
//     answer is checksum-compared — an owned/mapped divergence fails the
//     bench.
//
// Flags:
//   --quick       CI smoke mode: Table 1 datasets only, smaller workload
//   --json F      write {"bench": "query_serving", "results": {...}} for
//                 the perf-regression gate
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/table.h"
#include "nucleus/core/decomposition.h"
#include "nucleus/serve/query_engine.h"
#include "nucleus/store/snapshot.h"
#include "nucleus/store/snapshot_source.h"
#include "nucleus/store/snapshot_v2.h"
#include "nucleus/util/file_util.h"
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
      std::cerr << "usage: query_serving [--quick] [--json FILE]\n";
      std::exit(2);
    }
  }
  return options;
}

std::vector<QueryEngine::Query> MakeWorkload(const QueryEngine& engine,
                                             std::int64_t count) {
  Rng rng(4242);
  const std::int64_t num_cliques = engine.NumCliques();
  const std::int64_t num_nodes = engine.NumNodes();
  const Lambda max_lambda = engine.meta().max_lambda;
  std::vector<QueryEngine::Query> workload;
  workload.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    QueryEngine::Query query;
    // Mostly point lookups, a sliver of heavy queries — a serving mix.
    const std::int64_t roll = rng.UniformInt(0, 99);
    if (roll < 30) {
      query.kind = QueryEngine::QueryKind::kLambda;
      query.a = rng.UniformInt(0, num_cliques - 1);
    } else if (roll < 60 && max_lambda >= 1) {
      query.kind = QueryEngine::QueryKind::kNucleus;
      query.a = rng.UniformInt(0, num_cliques - 1);
      query.b = rng.UniformInt(1, max_lambda);
    } else if (roll < 90) {
      query.kind = rng.Bernoulli(0.5) ? QueryEngine::QueryKind::kCommon
                                      : QueryEngine::QueryKind::kLevel;
      query.a = rng.UniformInt(0, num_cliques - 1);
      query.b = rng.UniformInt(0, num_cliques - 1);
    } else if (roll < 97) {
      query.kind = QueryEngine::QueryKind::kTop;
      query.a = rng.UniformInt(1, 10);
    } else {
      query.kind = QueryEngine::QueryKind::kMembers;
      query.a = rng.UniformInt(0, num_nodes - 1);
    }
    workload.push_back(query);
  }
  return workload;
}

/// Mixes EVERY answer byte into the checksum — member lists and top-k
/// entries included — so a heap/mmap comparison is a real equivalence
/// check, not a size check.
std::uint64_t ChecksumResponses(
    const std::vector<QueryEngine::Response>& responses) {
  std::uint64_t checksum = 1469598103934665603ULL;
  const auto mix = [&checksum](std::int64_t v) {
    checksum ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL +
                (checksum << 6) + (checksum >> 2);
  };
  for (const auto& response : responses) {
    mix(response.status.ok() ? 1 : 0);
    mix(response.lambda);
    mix(response.found ? response.nucleus.node : -7);
    mix(response.nucleus.k);
    mix(response.nucleus.size);
    for (const auto& entry : response.top) {
      mix(entry.node);
      mix(entry.k);
      mix(entry.size);
    }
    if (response.members != nullptr) {
      mix(static_cast<std::int64_t>(response.members->size()));
      for (const CliqueId c : *response.members) mix(c);
    }
  }
  return checksum;
}

double FileMegabytes(const std::string& path) {
  if (FilePtr f{std::fopen(path.c_str(), "rb")}; f != nullptr) {
    if (auto size = FileSize(f.get(), path); size.ok()) {
      return static_cast<double>(*size) / (1024.0 * 1024.0);
    }
  }
  return 0.0;
}

/// Opens `path` through `mode` and answers one lambda query, returning
/// the engine; `*seconds` gets the wall time from cold file to first
/// answer — for mmap, a 400-byte header parse plus one lazily verified
/// section instead of the whole file.
std::unique_ptr<QueryEngine> ColdStart(const std::string& path,
                                       SnapshotMemoryMode mode,
                                       double* seconds) {
  Timer timer;
  StatusOr<std::shared_ptr<const SnapshotSource>> source =
      OpenSnapshotSource(path, mode);
  if (!source.ok()) {
    std::cerr << "error: " << source.status().ToString() << "\n";
    std::exit(1);
  }
  std::unique_ptr<QueryEngine> engine =
      QueryEngine::FromSource(std::move(*source));
  const QueryEngine::Response first =
      engine->Run({QueryEngine::QueryKind::kLambda, 0, 0});
  *seconds = timer.Seconds();
  if (!first.status.ok()) {
    std::cerr << "error: cold first answer failed: "
              << first.status.ToString() << "\n";
    std::exit(1);
  }
  return engine;
}

void Run(const Options& options) {
  const std::int64_t workload_size = options.quick ? 20000 : 100000;
  std::cout << "Query serving: cold snapshot load vs re-decomposition,\n"
            << "batched (2,3) community queries over the shared ThreadPool,\n"
            << "and owned vs mapped cold start + resident footprint\n"
            << "(workload " << workload_size << " mixed queries"
            << (options.quick ? ", quick mode" : "") << ")\n\n";
  TablePrinter table({"graph", "decompose", "load", "load spdup", "snap MB",
                      "cold own", "cold mm", "cold spdup", "res own MB",
                      "res mm MB", "q/s t1", "q/s t2", "q/s t4", "q/s t8"});

  struct JsonRow {
    std::string name;
    double load_speedup;
    double cold_start_speedup;
    double resident_savings;
  };
  std::vector<JsonRow> json_rows;
  std::vector<std::string> names;
  if (options.quick) {
    names = Table1DatasetNames();
  } else {
    for (const DatasetSpec& spec : PaperDatasets()) names.push_back(spec.name);
  }

  for (const std::string& name : names) {
    const DatasetSpec& spec = DatasetByName(name);
    const Graph g = spec.make();

    // Rebuild cost: everything a query process would have to redo without
    // the store — decomposition, hierarchy, jump tables.
    DecomposeOptions decompose_options;
    decompose_options.family = Family::kTruss23;
    decompose_options.algorithm = Algorithm::kFnd;
    Timer build_timer;
    const SnapshotData snapshot =
        MakeSnapshot(g, decompose_options, Decompose(g, decompose_options),
                     /*with_index=*/true);
    const double build_seconds = build_timer.Seconds();

    const std::string path =
        UniqueScratchPath("/tmp", "query_serving_" + spec.name, ".nucsnap");
    ScratchFileRemover remover(path);
    if (Status s = SaveSnapshotV2(snapshot, path); !s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      std::exit(1);
    }

    double load_seconds = 0.0;
    {
      Timer load_timer;
      StatusOr<SnapshotData> loaded = LoadSnapshot(path);
      load_seconds = load_timer.Seconds();
      if (!loaded.ok()) {
        std::cerr << "error: " << loaded.status().ToString() << "\n";
        std::exit(1);
      }
    }
    const double load_speedup = build_seconds / load_seconds;

    const double snap_mb = FileMegabytes(path);

    // Cold start to first answer, both memory modes over the same file.
    double heap_cold = 0.0;
    double mmap_cold = 0.0;
    const std::unique_ptr<QueryEngine> heap_engine =
        ColdStart(path, SnapshotMemoryMode::kHeap, &heap_cold);
    const std::unique_ptr<QueryEngine> mmap_engine =
        ColdStart(path, SnapshotMemoryMode::kMmap, &mmap_cold);
    const double cold_speedup = heap_cold / mmap_cold;

    const auto workload = MakeWorkload(*heap_engine, workload_size);

    std::vector<std::string> row{spec.paper_name,
                                 FormatSeconds(build_seconds),
                                 FormatSeconds(load_seconds),
                                 FormatSpeedup(load_speedup),
                                 FormatDouble(snap_mb, 2),
                                 FormatSeconds(heap_cold),
                                 FormatSeconds(mmap_cold),
                                 FormatSpeedup(cold_speedup)};
    std::uint64_t reference_checksum = 0;
    std::vector<std::string> qps_cells;
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      Timer query_timer;
      const auto responses = heap_engine->RunBatch(workload, pool);
      const double seconds = query_timer.Seconds();
      const std::uint64_t checksum = ChecksumResponses(responses);
      if (threads == 1) {
        reference_checksum = checksum;
      } else if (checksum != reference_checksum) {
        std::cerr << "error: answers diverged at " << threads
                  << " threads on " << spec.name << "\n";
        std::exit(1);
      }
      // The mmap engine must agree byte for byte at every thread count.
      const std::uint64_t mmap_checksum =
          ChecksumResponses(mmap_engine->RunBatch(workload, pool));
      if (mmap_checksum != reference_checksum) {
        std::cerr << "error: owned and mapped answers diverged at " << threads
                  << " threads on " << spec.name << "\n";
        std::exit(1);
      }
      qps_cells.push_back(FormatCount(static_cast<std::int64_t>(
          static_cast<double>(workload.size()) / seconds)));
    }

    // Resident footprint AFTER the full workload, so the mmap side is
    // charged for every member materialization its cache kept.
    const std::int64_t heap_resident =
        heap_engine->HeapBytes() + heap_engine->CacheStats().bytes;
    const std::int64_t mmap_resident =
        mmap_engine->HeapBytes() + mmap_engine->CacheStats().bytes;
    const double resident_savings =
        static_cast<double>(heap_resident) /
        static_cast<double>(mmap_resident > 0 ? mmap_resident : 1);
    if (static_cast<double>(mmap_resident) > snap_mb * 1024.0 * 1024.0) {
      std::cerr << "error: mmap resident bytes (" << mmap_resident
                << ") exceed the snapshot file size on " << spec.name
                << "\n";
      std::exit(1);
    }
    row.push_back(
        FormatDouble(static_cast<double>(heap_resident) / (1024.0 * 1024.0),
                     2));
    row.push_back(
        FormatDouble(static_cast<double>(mmap_resident) / (1024.0 * 1024.0),
                     2));
    for (std::string& cell : qps_cells) row.push_back(std::move(cell));
    table.AddRow(row);
    json_rows.push_back(
        {spec.paper_name, load_speedup, cold_speedup, resident_savings});
  }

  table.Print(std::cout);
  std::cout << "\nAnswers are checksummed across thread counts AND across"
            << "\nmemory modes (owned vs mapped); a divergence fails the"
            << "\nbench. Load speedup is the restart win of the .nucsnap"
            << "\nstore (acceptance bar: >= 10x); cold spdup is the further"
            << "\nwin of mapped time-to-first-answer over reading and"
            << "\nverifying the whole file, with mapped resident bytes"
            << "\nbelow the snapshot file size.\n";

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "error: cannot write " << options.json_path << "\n";
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"bench\": \"query_serving\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
    std::fprintf(f, "  \"workload\": %lld,\n",
                 static_cast<long long>(workload_size));
    std::fprintf(f, "  \"results\": {\n");
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      std::fprintf(f,
                   "    \"%s\": {\"load_speedup\": %.4f, "
                   "\"mmap_cold_start_speedup\": %.4f, "
                   "\"mmap_resident_savings\": %.4f}%s\n",
                   json_rows[i].name.c_str(), json_rows[i].load_speedup,
                   json_rows[i].cold_start_speedup,
                   json_rows[i].resident_savings,
                   i + 1 < json_rows.size() ? "," : "");
    }
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
