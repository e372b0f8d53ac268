// Table 5: characteristics of the compressed constraint matrices. For
// each LP stand-in and color budget {5-ish, 50, 100}: reduced rows/cols/
// nonzeros, compression ratio (original nnz / reduced nnz) and the
// relative error of the reduced optimum.
//
// Shape targets: compression 10^2-10^6; large error at ~5 colors shrinking
// to ~1.0-1.5 by 50-100 colors (supportcase10's tiny-budget blowup is
// expected).

#include <cmath>
#include <cstdio>

#include "qsc/eval/suites.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"

int main() {
  std::printf("=== Table 5: compressed linear program characteristics "
              "===\n\n");
  qsc::TablePrinter table({"dataset", "colors", "rows", "cols", "nonzeros",
                           "compression", "rel.error"});
  for (const auto& dataset : qsc::eval::LpSuite()) {
    const qsc::IpmResult exact = qsc::SolveInteriorPoint(dataset.lp);
    for (qsc::ColorId colors : {6, 50, 100}) {
      qsc::LpReduceOptions options;
      options.max_colors = colors;
      const qsc::ReducedLp reduced = qsc::ReduceLp(dataset.lp, options);
      const qsc::LpResult red = qsc::SolveSimplex(reduced.lp);
      const double rel =
          red.status == qsc::LpStatus::kOptimal
              ? qsc::RelativeError(exact.objective, red.objective)
              : std::numeric_limits<double>::infinity();
      const double compression =
          static_cast<double>(dataset.lp.NumNonzeros()) /
          std::max<int64_t>(1, reduced.lp.NumNonzeros());
      table.AddRow({dataset.name, std::to_string(colors),
                    qsc::FormatCount(reduced.lp.num_rows),
                    qsc::FormatCount(reduced.lp.num_cols),
                    qsc::FormatCount(reduced.lp.NumNonzeros()),
                    qsc::FormatRatio(compression),
                    std::isinf(rel) ? "inf" : qsc::FormatDouble(rel, 2)});
    }
  }
  table.Print(stdout);
  return 0;
}
