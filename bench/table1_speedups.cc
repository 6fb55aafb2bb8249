// Reproduces Table 1: headline speedups of the best algorithm per
// decomposition over Naive / Hypo / TCP on the Stanford3, twitter-hb and
// uk-2005 proxies.
//
//   k-core: best = LCPS; columns Naive, Hypo.
//   k-truss (2,3): best = FND; columns Naive, TCP (construction), Hypo.
//   (3,4): best = FND; column Naive.
//
// Flags:
//   --threads N   run the best algorithms with N threads (0 = all hardware
//                 threads; baselines stay serial, so the columns measure
//                 the combined algorithm + threading speedup)
//   --quick       CI smoke mode: smaller Naive budget
//   --json F      write the speedup matrix to F in the BENCH_baseline.json
//                 "runs" entry schema (consumed by
//                 tools/check_bench_regression.py)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "nucleus/bench/datasets.h"
#include "nucleus/bench/runner.h"
#include "nucleus/bench/table.h"
#include "nucleus/cliques/edge_index.h"
#include "nucleus/core/peeling.h"
#include "nucleus/core/tcp_index.h"
#include "nucleus/util/timer.h"

namespace nucleus {
namespace {

double TcpConstructionSeconds(const Graph& g) {
  // Peeling + TCP index construction, as timed in the paper (query-ready
  // state, before any traversal).
  Timer timer;
  const EdgeIndex edges = EdgeIndex::Build(g);
  const PeelResult peel = Peel(EdgeSpace(g, edges));
  (void)TcpIndex::Build(g, edges, peel.lambda);
  return timer.Seconds();
}

struct Options {
  bool quick = false;
  int threads = 1;
  std::string json_path;
};

// Speedup cells per dataset, keyed by the BENCH_baseline.json column names.
using SpeedupRow = std::map<std::string, double>;

void WriteJson(const Options& options, double naive_budget_seconds,
               const std::vector<std::pair<std::string, SpeedupRow>>& rows) {
  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "error: cannot write " << options.json_path << "\n";
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"table1_speedups\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
  std::fprintf(f, "  \"threads\": %d,\n", options.threads);
  std::fprintf(f, "  \"naive_budget_seconds\": %.1f,\n",
               naive_budget_seconds);
  std::fprintf(f, "  \"results\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    \"%s\": {", rows[i].first.c_str());
    std::size_t j = 0;
    for (const auto& [column, value] : rows[i].second) {
      std::fprintf(f, "%s\"%s\": %.4f", j++ == 0 ? "" : ", ",
                   column.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::cout << "\nwrote " << options.json_path << "\n";
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const std::string value = argv[++i];
      char* rest = nullptr;
      const long threads = std::strtol(value.c_str(), &rest, 10);
      if (value.empty() || rest == nullptr || *rest != '\0' || threads < 0 ||
          threads > 4096) {
        std::cerr << "error: --threads expects a count in [0, 4096], got '"
                  << value << "'\n";
        std::exit(2);
      }
      options.threads = static_cast<int>(threads);
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::cerr << "usage: table1_speedups [--quick] [--threads N] "
                   "[--json FILE]\n";
      std::exit(2);
    }
  }
  return options;
}

void Run(const Options& options) {
  const double naive_budget_seconds = options.quick ? 10.0 : 30.0;
  const ParallelConfig parallel = ParallelConfig::WithThreads(options.threads);

  std::cout << "Table 1: speedups of our best algorithms per decomposition\n"
            << "(paper Table 1; synthetic proxies, see "
               "src/nucleus/bench/datasets.h)\n"
            << "(*) = lower bound: Naive stopped after "
            << naive_budget_seconds << "s, as the paper stars its 2-day "
            << "timeouts\n"
            << "best-algorithm threads: " << parallel.ResolvedThreads()
            << (options.quick ? ", quick mode" : "") << "\n\n";
  TablePrinter table({"graph", "core:Naive", "core:Hypo", "truss:Naive",
                      "truss:TCP", "truss:Hypo", "(3,4):Naive"});
  std::vector<std::pair<std::string, SpeedupRow>> json_rows;
  for (const std::string& name : Table1DatasetNames()) {
    const DatasetSpec& spec = DatasetByName(name);
    const Graph g = spec.make();

    const double core_best =
        RunTotalSeconds(g, Family::kCore12, Algorithm::kLcps, parallel);
    const NaiveBenchRun core_naive =
        RunNaiveBudgeted(g, Family::kCore12, naive_budget_seconds);
    const double core_hypo =
        RunTotalSeconds(g, Family::kCore12, Algorithm::kHypo);

    const double truss_best =
        RunTotalSeconds(g, Family::kTruss23, Algorithm::kFnd, parallel);
    const NaiveBenchRun truss_naive =
        RunNaiveBudgeted(g, Family::kTruss23, naive_budget_seconds);
    const double truss_hypo =
        RunTotalSeconds(g, Family::kTruss23, Algorithm::kHypo);
    const double truss_tcp = TcpConstructionSeconds(g);

    const double n34_best =
        RunTotalSeconds(g, Family::kNucleus34, Algorithm::kFnd, parallel);
    const NaiveBenchRun n34_naive =
        RunNaiveBudgeted(g, Family::kNucleus34, naive_budget_seconds);

    auto naive_cell = [](const NaiveBenchRun& run, double best) {
      return FormatSpeedup(run.total_seconds / best) +
             (run.completed ? "" : "*");
    };
    table.AddRow({spec.paper_name, naive_cell(core_naive, core_best),
                  FormatSpeedup(core_hypo / core_best),
                  naive_cell(truss_naive, truss_best),
                  FormatSpeedup(truss_tcp / truss_best),
                  FormatSpeedup(truss_hypo / truss_best),
                  naive_cell(n34_naive, n34_best)});
    json_rows.emplace_back(
        spec.paper_name,
        SpeedupRow{{"core:Naive", core_naive.total_seconds / core_best},
                   {"core:Hypo", core_hypo / core_best},
                   {"truss:Naive", truss_naive.total_seconds / truss_best},
                   {"truss:TCP", truss_tcp / truss_best},
                   {"truss:Hypo", truss_hypo / truss_best},
                   {"34:Naive", n34_naive.total_seconds / n34_best}});
  }
  table.Print(std::cout);
  std::cout << "\nPaper values for reference (real graphs, Xeon E5-2698):\n"
            << "  Stanford3 : core 25.50x/1.10x  truss 12.58x/3.41x/1.48x  "
               "(3,4) 1321.89x*\n"
            << "  twitter-hb: core 27.89x/1.33x  truss 16.24x/3.27x/1.78x  "
               "(3,4) 38.96x*\n"
            << "  uk-2005   : core 58.02x/1.68x  truss 90.50x/11.07x/1.24x  "
               "(3,4) 1.98x*\n";
  if (!options.json_path.empty()) {
    WriteJson(options, naive_budget_seconds, json_rows);
  }
}

}  // namespace
}  // namespace nucleus

int main(int argc, char** argv) {
  nucleus::Run(nucleus::ParseArgs(argc, argv));
  return 0;
}
