// Figure 8: accuracy as a function of the number of colors, for all three
// task types. One representative dataset per task, swept over color
// budgets; the paper's claims are a diminishing-returns curve and
// convergence within ~150 colors (max-flow/centrality roughly monotone,
// LP non-monotone).

#include <cstdio>
#include <memory>

#include "qsc/api/compressor.h"
#include "qsc/centrality/brandes.h"
#include "qsc/eval/suites.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"

namespace {

constexpr qsc::ColorId kBudgets[] = {5, 10, 20, 40, 80, 150};

// Each budget is a cold query on a fresh session. Borrows the caller-owned
// graph for it (aliasing shared_ptr: the session dies before the graph).
std::shared_ptr<const qsc::Graph> Borrow(const qsc::Graph& g) {
  return std::shared_ptr<const qsc::Graph>(std::shared_ptr<const qsc::Graph>(),
                                           &g);
}

}  // namespace

int main() {
  std::printf("=== Figure 8: accuracy vs number of colors ===\n\n");

  // (a) max-flow.
  {
    const auto datasets = qsc::eval::FlowSuite();
    const auto& ds = datasets[2];  // venus0-sim
    const double exact = qsc::MaxFlowPushRelabel(
        ds.instance.graph, ds.instance.source, ds.instance.sink);
    qsc::TablePrinter table({"colors", "rel.err"});
    for (qsc::ColorId colors : kBudgets) {
      qsc::QueryOptions query;
      query.max_colors = colors;
      qsc::Compressor session(Borrow(ds.instance.graph));
      const auto approx =
          session.MaxFlow(ds.instance.source, ds.instance.sink, query);
      QSC_CHECK_OK(approx);
      table.AddRow({std::to_string(colors),
                    qsc::FormatDouble(
                        qsc::RelativeError(exact, approx->upper_bound), 3)});
    }
    std::printf("(a) max-flow on %s (ideal 1.0):\n", ds.name.c_str());
    table.Print(stdout);
  }

  // (b) linear optimization.
  {
    const auto datasets = qsc::eval::LpSuite();
    const auto& ds = datasets[0];  // qap15-sim
    const qsc::IpmResult exact = qsc::SolveInteriorPoint(ds.lp);
    qsc::TablePrinter table({"colors", "rel.err"});
    for (qsc::ColorId colors : kBudgets) {
      qsc::LpReduceOptions options;
      options.max_colors = colors;
      const qsc::ReducedLp reduced = qsc::ReduceLp(ds.lp, options);
      const qsc::LpResult red = qsc::SolveSimplex(reduced.lp);
      table.AddRow(
          {std::to_string(colors),
           qsc::FormatDouble(
               qsc::RelativeError(exact.objective, red.objective), 3)});
    }
    std::printf("\n(b) linear optimization on %s (ideal 1.0, may be "
                "non-monotone):\n",
                ds.name.c_str());
    table.Print(stdout);
  }

  // (c) centrality.
  {
    const auto datasets = qsc::eval::CentralityGraphSuite();
    const auto& ds = datasets[0];  // astroph-sim
    const std::vector<double> exact = qsc::BetweennessExact(ds.graph);
    qsc::TablePrinter table({"colors", "spearman"});
    for (qsc::ColorId colors : kBudgets) {
      qsc::QueryOptions query;
      query.max_colors = colors;
      qsc::Compressor session(Borrow(ds.graph));
      const auto approx = session.Centrality(query);
      QSC_CHECK_OK(approx);
      table.AddRow({std::to_string(colors),
                    qsc::FormatDouble(
                        qsc::SpearmanCorrelation(approx->scores, exact), 3)});
    }
    std::printf("\n(c) centrality on %s (ideal 1.0):\n", ds.name.c_str());
    table.Print(stdout);
  }
  return 0;
}
