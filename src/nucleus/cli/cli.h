// Command-line front end, exposed as a library function so the test suite
// can drive it without spawning processes. The `nucleus_cli` binary in
// tools/ forwards argv here.
//
// Subcommands:
//   decompose --input <edges.txt> [--family core|truss|34]
//             [--algorithm fnd|dft|lcps|naive] [--threads N]
//             [--out-json F] [--out-dot F]
//             [--lambda F]         write per-K_r lambda values to F
//             --threads: 1 = serial (default), 0 = all hardware threads,
//             N > 1 = wave-parallel (2,3)/(3,4) peel + parallel FND
//             hierarchy
//   stats     --input <edges.txt>  structural statistics
//   generate  --type <name> --out <edges.txt> [--n N] [--param P] [--seed S]
//             types: er, ba, rmat, ws, planted, caveman
//   convert   --input F --out G     edge list <-> binary CSR (.nucgraph)
//   semi-external --input <g.nucgraph> [--family core|truss] [--temp DIR]
//             disk-resident decomposition with IO ledger
//   query     --input <edges.txt> --u A --v B
//             smallest common k-core of two vertices (HierarchyIndex)
#ifndef NUCLEUS_CLI_CLI_H_
#define NUCLEUS_CLI_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace nucleus {

/// Runs the CLI with `args` (excluding the program name); writes normal
/// output to `out` and diagnostics to `err`. Returns a process exit code.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace nucleus

#endif  // NUCLEUS_CLI_CLI_H_
