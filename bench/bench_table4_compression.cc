// Table 4: runtime and compression of quasi-stable coloring vs stable
// coloring on the general datasets. For each dataset: the stable coloring
// (q = 0) and Rothko runs targeting max q in {64, 32, 16, 8}; reports the
// measured max q, mean q, color count, compression ratio and runtime.
//
// Shape targets: stable coloring compresses ~1.3-1.4:1; q = 8..64 buys one
// to four orders of magnitude better ratios; mean q is far below max q.

#include <cstdio>

#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/eval/suites.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

int main() {
  std::printf("=== Table 4: compression, quasi-stable vs stable coloring "
              "===\n\n");
  qsc::TablePrinter table({"dataset", "target", "max q", "mean q", "colors",
                           "compression", "time"});
  for (const auto& dataset : qsc::eval::GeneralGraphSuite()) {
    if (dataset.name == "karate") continue;  // covered by Figure 1
    const qsc::Graph& g = dataset.graph;

    qsc::WallTimer timer;
    const qsc::Partition stable = qsc::StableColoring(g);
    const double stable_seconds = timer.ElapsedSeconds();
    table.AddRow({dataset.name, "stable (q=0)", "0", "0",
                  qsc::FormatCount(stable.num_colors()),
                  qsc::FormatRatio(stable.CompressionRatio()),
                  qsc::FormatSeconds(stable_seconds)});

    for (double q : {64.0, 32.0, 16.0, 8.0}) {
      qsc::RothkoOptions options;
      options.max_colors = g.num_nodes();
      options.q_tolerance = q;
      options.split_mean = qsc::RothkoOptions::SplitMean::kGeometric;
      timer.Reset();
      const qsc::Partition p = qsc::RothkoColoring(g, options);
      const double seconds = timer.ElapsedSeconds();
      const qsc::QErrorStats stats = qsc::ComputeQError(g, p);
      char target[16];
      std::snprintf(target, sizeof(target), "q = %.0f", q);
      table.AddRow({dataset.name, target,
                    qsc::FormatDouble(stats.max_q, 2),
                    qsc::FormatDouble(stats.mean_q, 2),
                    qsc::FormatCount(p.num_colors()),
                    qsc::FormatRatio(p.CompressionRatio()),
                    qsc::FormatSeconds(seconds)});
    }
  }
  table.Print(stdout);
  std::printf("\npaper shape: stable coloring yields ~1.3:1; q-stable "
              "colorings reach\n10x-10000x with mean q << max q.\n");
  return 0;
}
