// Table 6: latency and responsiveness of the anytime Rothko algorithm per
// task family. Time-to-first-result is the latency until the first
// usable coloring (first split) plus the first approximate solve; update
// frequency is the mean time between new colors; time-to-converge is the
// full refinement to the task's color budget.

#include <cstdio>

#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/rothko.h"
#include "qsc/eval/suites.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

namespace {

struct Responsiveness {
  double time_to_first = 0.0;
  double update_frequency = 0.0;
  double time_to_converge = 0.0;
};

Responsiveness Summarize(const std::vector<qsc::RothkoStep>& history,
                         double first_solve_seconds) {
  Responsiveness r;
  if (history.empty()) return r;
  r.time_to_first = history.front().elapsed_seconds + first_solve_seconds;
  r.time_to_converge = history.back().elapsed_seconds;
  r.update_frequency =
      history.size() > 1
          ? (history.back().elapsed_seconds -
             history.front().elapsed_seconds) /
                static_cast<double>(history.size() - 1)
          : 0.0;
  return r;
}

}  // namespace

int main() {
  std::printf("=== Table 6: Rothko latency / responsiveness per task "
              "===\n\n");
  qsc::TablePrinter table({"task", "time-to-first-result",
                           "update frequency", "time to converge"});

  // Linear optimization: matrix coloring of the qap15 stand-in.
  {
    const auto datasets = qsc::eval::LpSuite();
    std::vector<double> first, freq, converge;
    for (const auto& ds : datasets) {
      qsc::LpReduceOptions options;
      options.max_colors = 100;
      qsc::WallTimer timer;
      const qsc::ReducedLp reduced = qsc::ReduceLp(ds.lp, options);
      const double color_seconds = reduced.coloring_seconds;
      timer.Reset();
      (void)qsc::SolveSimplex(reduced.lp);
      const double solve_seconds = timer.ElapsedSeconds();
      // First result = first split + one tiny solve; approximate the tiny
      // solve by the final solve time (upper bound).
      first.push_back(color_seconds / 96.0 + solve_seconds);
      freq.push_back(color_seconds / 96.0);
      converge.push_back(color_seconds);
    }
    table.AddRow({"linear opt.", qsc::FormatSeconds(qsc::Mean(first)),
                  qsc::FormatSeconds(qsc::Mean(freq)),
                  qsc::FormatSeconds(qsc::Mean(converge))});
  }

  // Max-flow: refiner history on the flow networks.
  {
    std::vector<double> first, freq, converge;
    for (const auto& ds : qsc::eval::FlowSuite()) {
      std::vector<int32_t> labels(ds.instance.graph.num_nodes(), 2);
      labels[ds.instance.source] = 0;
      labels[ds.instance.sink] = 1;
      qsc::RothkoOptions options;
      options.max_colors = 35;
      qsc::RothkoRefiner refiner(ds.instance.graph,
                                 qsc::Partition::FromColorIds(labels),
                                 options);
      refiner.Run();
      const auto r = Summarize(refiner.history(), 0.0);
      first.push_back(r.time_to_first);
      freq.push_back(r.update_frequency);
      converge.push_back(r.time_to_converge);
    }
    table.AddRow({"max-flow", qsc::FormatSeconds(qsc::Mean(first)),
                  qsc::FormatSeconds(qsc::Mean(freq)),
                  qsc::FormatSeconds(qsc::Mean(converge))});
  }

  // Centrality: refiner history on the centrality graphs.
  {
    std::vector<double> first, freq, converge;
    for (const auto& ds : qsc::eval::CentralityGraphSuite()) {
      qsc::RothkoOptions options;
      options.max_colors = 100;
      options.alpha = 1.0;
      options.beta = 1.0;
      qsc::RothkoRefiner refiner(
          ds.graph, qsc::Partition::Trivial(ds.graph.num_nodes()), options);
      refiner.Run();
      const auto r = Summarize(refiner.history(), 0.0);
      first.push_back(r.time_to_first);
      freq.push_back(r.update_frequency);
      converge.push_back(r.time_to_converge);
    }
    table.AddRow({"centrality", qsc::FormatSeconds(qsc::Mean(first)),
                  qsc::FormatSeconds(qsc::Mean(freq)),
                  qsc::FormatSeconds(qsc::Mean(converge))});
  }
  table.Print(stdout);
  std::printf("\npaper shape: sub-second first result, steady per-color "
              "update cadence;\nabsolute numbers scale with the stand-in "
              "sizes.\n");
  return 0;
}
