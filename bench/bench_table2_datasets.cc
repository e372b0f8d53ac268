// Table 2: summary of the graphs used in the evaluation — here, the
// synthetic stand-ins (plus the embedded real karate club). The paper's
// original sizes are listed next to each stand-in (see DESIGN.md §3 for
// the substitution rationale).

#include <cstdio>

#include "qsc/eval/suites.h"
#include "qsc/util/table.h"

namespace {

void AddRows(qsc::TablePrinter& table,
             const std::vector<qsc::eval::NamedGraph>& datasets,
             const char* block) {
  for (const auto& d : datasets) {
    table.AddRow({block, d.name, d.paper_name,
                  qsc::FormatCount(d.graph.num_nodes()),
                  qsc::FormatCount(d.graph.num_edges()),
                  d.real ? "R" : "S",
                  d.graph.undirected() ? "undirected" : "directed"});
  }
}

}  // namespace

int main() {
  std::printf("=== Table 2: graphs used for evaluation (stand-ins) ===\n\n");
  qsc::TablePrinter table({"block", "name", "paper dataset", "vertices",
                           "edges", "real/sim", "kind"});
  AddRows(table, qsc::eval::GeneralGraphSuite(), "general");
  AddRows(table, qsc::eval::CentralityGraphSuite(), "centrality");
  for (const auto& d : qsc::eval::FlowSuite()) {
    table.AddRow({"max-flow", d.name, d.paper_name,
                  qsc::FormatCount(d.instance.graph.num_nodes()),
                  qsc::FormatCount(d.instance.graph.num_arcs()), "S",
                  "flow network"});
  }
  table.Print(stdout);
  std::printf("\nall stand-ins are synthetic (S) except the embedded "
              "karate club (R);\nsizes are scaled to single-core exact "
              "baselines (paper originals in DESIGN.md).\n");
  return 0;
}
