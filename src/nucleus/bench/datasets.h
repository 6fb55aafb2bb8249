// Deterministic synthetic stand-ins for the nine evaluation graphs of the
// paper (Table 3). The real graphs (SNAP / Network Repository / UF) are not
// available offline; each proxy reproduces the structural regime that
// drives the paper's runtime behaviour — |E|/|V|, |triangle|/|E| and
// |K4|/|triangle| — at a laptop scale where even the Naive baseline
// finishes. Each spec's `regime` names what its proxy preserves, and
// `bench/table3_datasets` prints the measured statistics of every proxy.
#ifndef NUCLEUS_BENCH_DATASETS_H_
#define NUCLEUS_BENCH_DATASETS_H_

#include <functional>
#include <string>
#include <vector>

#include "nucleus/graph/graph.h"

namespace nucleus {

struct DatasetSpec {
  std::string name;        // e.g. "stanford3-syn"
  std::string paper_name;  // e.g. "Stanford3"
  std::string regime;      // one-line description of the structural regime
  std::function<Graph()> make;
};

/// The nine proxies, in the paper's Table 3 row order.
const std::vector<DatasetSpec>& PaperDatasets();

/// Spec by name; aborts if unknown.
const DatasetSpec& DatasetByName(const std::string& name);

/// The three graphs of the paper's headline Table 1
/// (Stanford3, twitter-hb, uk-2005).
std::vector<std::string> Table1DatasetNames();

}  // namespace nucleus

#endif  // NUCLEUS_BENCH_DATASETS_H_
