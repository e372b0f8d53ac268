// Ablations for the two design choices the paper motivates in Sec 5.2:
//
//  (A) split threshold: arithmetic vs geometric mean. On scale-free
//      graphs, arithmetic splits are badly unbalanced (the paper's
//      Barabási–Albert 1:216 example); geometric splits should need fewer
//      colors for the same q and produce better-balanced colors.
//
//  (B) witness weighting C_ij = |P_i|^alpha |P_j|^beta. The paper
//      prescribes alpha=beta=0 for max-flow, alpha=1 beta=0 for LPs and
//      alpha=beta=1 for centrality; each task is run with all three
//      settings at a fixed color budget.

#include <cstdio>
#include <memory>

#include "qsc/api/compressor.h"
#include "qsc/centrality/brandes.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/eval/suites.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/generators.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/random.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"

namespace {

// Borrows a caller-owned graph for a one-query session (aliasing
// shared_ptr: the session dies before the graph).
std::shared_ptr<const qsc::Graph> Borrow(const qsc::Graph& g) {
  return std::shared_ptr<const qsc::Graph>(std::shared_ptr<const qsc::Graph>(),
                                           &g);
}

int64_t LargestColor(const qsc::Partition& p) {
  int64_t largest = 0;
  for (int64_t s : p.ColorSizes()) largest = std::max(largest, s);
  return largest;
}

}  // namespace

int main() {
  std::printf("=== Ablation A: arithmetic vs geometric split threshold "
              "(Sec 5.2) ===\n\n");
  {
    qsc::Rng rng(71);
    const qsc::Graph g = qsc::BarabasiAlbert(20000, 3, rng);
    qsc::TablePrinter table({"split", "target q", "colors",
                             "largest color", "max q"});
    for (const auto split : {qsc::RothkoOptions::SplitMean::kArithmetic,
                             qsc::RothkoOptions::SplitMean::kGeometric}) {
      for (double q : {32.0, 16.0, 8.0}) {
        qsc::RothkoOptions options;
        options.max_colors = g.num_nodes();
        options.q_tolerance = q;
        options.split_mean = split;
        const qsc::Partition p = qsc::RothkoColoring(g, options);
        table.AddRow(
            {split == qsc::RothkoOptions::SplitMean::kArithmetic
                 ? "arithmetic"
                 : "geometric",
             qsc::FormatDouble(q, 0), qsc::FormatCount(p.num_colors()),
             qsc::FormatCount(LargestColor(p)),
             qsc::FormatDouble(qsc::ComputeQError(g, p).max_q, 1)});
      }
    }
    table.Print(stdout);
  }

  std::printf("\n=== Ablation B: witness weighting alpha/beta per task "
              "===\n\n");
  struct Weighting {
    const char* name;
    double alpha;
    double beta;
  };
  static constexpr Weighting kWeightings[] = {
      {"a=0 b=0", 0.0, 0.0}, {"a=1 b=0", 1.0, 0.0}, {"a=1 b=1", 1.0, 1.0}};

  {
    qsc::TablePrinter table({"task", "paper choice", "weighting",
                             "accuracy"});
    // Max-flow (paper: a=0 b=0), accuracy = relative error, lower better.
    const auto flow = qsc::eval::FlowSuite()[2];
    const double exact_flow = qsc::MaxFlowPushRelabel(
        flow.instance.graph, flow.instance.source, flow.instance.sink);
    for (const Weighting& w : kWeightings) {
      qsc::QueryOptions query;
      query.max_colors = 20;
      query.alpha = w.alpha;
      query.beta = w.beta;
      qsc::Compressor session(Borrow(flow.instance.graph));
      const auto approx =
          session.MaxFlow(flow.instance.source, flow.instance.sink, query);
      QSC_CHECK_OK(approx);
      table.AddRow({"max-flow (rel.err)", "a=0 b=0", w.name,
                    qsc::FormatDouble(
                        qsc::RelativeError(exact_flow, approx->upper_bound),
                        3)});
    }

    // LP (paper: a=1 b=0).
    const auto lp = qsc::eval::LpSuite()[0];
    const qsc::IpmResult exact_lp = qsc::SolveInteriorPoint(lp.lp);
    for (const Weighting& w : kWeightings) {
      qsc::LpReduceOptions options;
      options.max_colors = 40;
      options.alpha = w.alpha;
      options.beta = w.beta;
      const qsc::ReducedLp reduced = qsc::ReduceLp(lp.lp, options);
      const qsc::LpResult red = qsc::SolveSimplex(reduced.lp);
      table.AddRow(
          {"LP (rel.err)", "a=1 b=0", w.name,
           red.status == qsc::LpStatus::kOptimal
               ? qsc::FormatDouble(
                     qsc::RelativeError(exact_lp.objective, red.objective),
                     3)
               : "x"});
    }

    // Centrality (paper: a=1 b=1), accuracy = Spearman, higher better.
    const auto graph_ds = qsc::eval::CentralityGraphSuite()[0];
    const auto exact_scores = qsc::BetweennessExact(graph_ds.graph);
    for (const Weighting& w : kWeightings) {
      qsc::QueryOptions query;
      query.max_colors = 50;
      query.alpha = w.alpha;
      query.beta = w.beta;
      qsc::Compressor session(Borrow(graph_ds.graph));
      const auto approx = session.Centrality(query);
      QSC_CHECK_OK(approx);
      table.AddRow({"centrality (rho)", "a=1 b=1", w.name,
                    qsc::FormatDouble(qsc::SpearmanCorrelation(
                                          approx->scores, exact_scores),
                                      3)});
    }
    table.Print(stdout);
  }
  return 0;
}
