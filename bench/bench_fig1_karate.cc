// Figure 1: coloring Zachary's karate club. The stable coloring needs 27
// colors; a quasi-stable coloring with q = 3 gets by with ~6, isolating
// the club leaders {1, 34} in a small color.

#include <cstdio>

#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/graph/datasets.h"
#include "qsc/util/table.h"

int main() {
  std::printf("=== Figure 1: stable vs quasi-stable coloring of the "
              "karate club ===\n");
  std::printf("paper: stable needs 27 colors; q=3 quasi-stable needs 6\n\n");
  const qsc::Graph g = qsc::KarateClub();

  const qsc::Partition stable = qsc::StableColoring(g);
  std::printf("(a) stable coloring: %d colors on %d nodes (%.0f%%)\n",
              stable.num_colors(), g.num_nodes(),
              100.0 * stable.num_colors() / g.num_nodes());

  qsc::TablePrinter table({"max colors", "measured q", "mean q",
                           "leader color size"});
  for (qsc::ColorId k : {4, 5, 6, 7, 8}) {
    qsc::RothkoOptions options;
    options.max_colors = k;
    const qsc::Partition p = qsc::RothkoColoring(g, options);
    const qsc::QErrorStats stats = qsc::ComputeQError(g, p);
    const int64_t leader_color =
        p.ColorSize(p.ColorOf(33));  // node "34", the strongest leader
    table.AddRow({std::to_string(k), qsc::FormatDouble(stats.max_q, 1),
                  qsc::FormatDouble(stats.mean_q, 2),
                  std::to_string(leader_color)});
  }
  std::printf("\n(b) quasi-stable colorings:\n");
  table.Print(stdout);

  qsc::RothkoOptions q3;
  q3.max_colors = 64;
  q3.q_tolerance = 3.0;
  const qsc::Partition p3 = qsc::RothkoColoring(g, q3);
  std::printf("\nsmallest coloring with q <= 3 found by Rothko: %d colors "
              "(paper: 6)\n",
              p3.num_colors());
  return 0;
}
