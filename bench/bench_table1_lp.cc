// Table 1 (bottom): runtime to reach a target relative error for linear
// optimization — ours (anytime coloring + reduced simplex) vs the
// early-stopped interior-point baseline vs the exact interior-point solve.
//
// The early-stopping baseline runs the IPM until its certified relative
// duality gap reaches the target (the recommended practice [33]); ours
// refines the matrix coloring in checkpoints, solving the growing reduced
// LP until the achieved error (vs the exact optimum) meets the target.

#include <cstdio>

#include "qsc/api/compressor.h"
#include "qsc/eval/suites.h"
#include "qsc/lp/interior_point.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

namespace {

constexpr double kTargets[] = {3.0, 2.0, 1.5};

std::vector<double> OursTimes(const qsc::LpProblem& lp, double exact_obj) {
  std::vector<double> times(std::size(kTargets), -1.0);
  double cumulative = 0.0;
  // Anytime co-routine: the session keeps the LP's coloring between
  // budgets, so each checkpoint continues the last one's refinement.
  qsc::Compressor session;
  qsc::QueryOptions query;
  for (qsc::ColorId colors : {8, 15, 25, 40, 60, 100, 150}) {
    query.max_colors = colors;
    qsc::WallTimer timer;
    const qsc::StatusOr<qsc::LpQueryResult> result = session.SolveLp(lp, query);
    cumulative += timer.ElapsedSeconds();
    QSC_CHECK_OK(result);
    const qsc::LpResult& red = result->solution;
    if (red.status != qsc::LpStatus::kOptimal) continue;
    const double rel = qsc::RelativeError(exact_obj, red.objective);
    for (size_t t = 0; t < std::size(kTargets); ++t) {
      if (times[t] < 0 && rel <= kTargets[t]) times[t] = cumulative;
    }
    if (times.back() >= 0) break;
  }
  return times;
}

std::vector<double> EarlyStopTimes(const qsc::LpProblem& lp) {
  std::vector<double> times(std::size(kTargets), -1.0);
  for (size_t t = 0; t < std::size(kTargets); ++t) {
    qsc::IpmOptions options;
    options.early_stop_rel_gap = kTargets[t];
    qsc::WallTimer timer;
    const qsc::IpmResult result = qsc::SolveInteriorPoint(lp, options);
    if (result.status == qsc::LpStatus::kOptimal) {
      times[t] = timer.ElapsedSeconds();
    }
  }
  return times;
}

std::string FormatOrTimeout(double seconds) {
  return seconds < 0 ? "x" : qsc::FormatSeconds(seconds);
}

}  // namespace

int main() {
  std::printf("=== Table 1 (bottom): linear optimization — ours vs "
              "early-stopping IPM vs exact ===\n");
  std::printf("units: runtime to certify the target relative error; 'x' = "
              "not reached\n\n");
  qsc::TablePrinter table({"dataset", "ours 3.0", "prior 3.0", "ours 2.0",
                           "prior 2.0", "ours 1.5", "prior 1.5", "exact"});
  for (const auto& dataset : qsc::eval::LpSuite()) {
    qsc::WallTimer timer;
    const qsc::IpmResult exact = qsc::SolveInteriorPoint(dataset.lp);
    const double exact_seconds = timer.ElapsedSeconds();
    const auto ours = OursTimes(dataset.lp, exact.objective);
    const auto prior = EarlyStopTimes(dataset.lp);
    table.AddRow({dataset.name, FormatOrTimeout(ours[0]),
                  FormatOrTimeout(prior[0]), FormatOrTimeout(ours[1]),
                  FormatOrTimeout(prior[1]), FormatOrTimeout(ours[2]),
                  FormatOrTimeout(prior[2]),
                  qsc::FormatSeconds(exact_seconds)});
  }
  table.Print(stdout);
  std::printf("\npaper shape: q-stable coloring beats the early-stopping "
              "baseline by ~100x\non average (the IPM must run most of its "
              "iterations before its gap\ncertificate reaches loose "
              "targets).\n");
  return 0;
}
