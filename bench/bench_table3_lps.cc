// Table 3: summary of the linear programs used for evaluation (stand-ins),
// with the exact interior-point solve time standing in for the paper's
// "Sol. time" column.

#include <cstdio>

#include "qsc/eval/suites.h"
#include "qsc/lp/interior_point.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

int main() {
  std::printf("=== Table 3: linear programs used for evaluation "
              "(stand-ins) ===\n\n");
  qsc::TablePrinter table({"name", "paper dataset", "rows", "cols",
                           "nonzeros", "sol. time"});
  for (const auto& d : qsc::eval::LpSuite()) {
    qsc::WallTimer timer;
    const qsc::IpmResult exact = qsc::SolveInteriorPoint(d.lp);
    const double seconds = timer.ElapsedSeconds();
    table.AddRow({d.name, d.paper_name, qsc::FormatCount(d.lp.num_rows),
                  qsc::FormatCount(d.lp.num_cols),
                  qsc::FormatCount(d.lp.NumNonzeros()),
                  exact.status == qsc::LpStatus::kOptimal
                      ? qsc::FormatSeconds(seconds)
                      : "x"});
  }
  table.Print(stdout);
  return 0;
}
