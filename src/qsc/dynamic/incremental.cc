#include "qsc/dynamic/incremental.h"

#include "qsc/coloring/backend.h"

namespace qsc {
namespace dynamic {

std::unique_ptr<RothkoRefiner> TryRepair(const std::string& backend,
                                         const GraphView& g,
                                         const Partition& current,
                                         const ColoringParams& params,
                                         const RepairOptions& options,
                                         RepairOutcome* outcome) {
  *outcome = RepairOutcome();
  const double tolerance = params.q_tolerance;
  // q_tolerance == 0 specs always fall back.
  if (tolerance <= 0.0) return nullptr;

  // Continue from the pre-edit partition on the mutated graph and re-split
  // until the spec's tolerance certificate is restored or the budget says
  // the batch was too disruptive.
  std::unique_ptr<RothkoRefiner> repaired =
      MakeRefiner(backend, g, current, params);
  bool converged = false;
  int64_t splits = 0;
  while (repaired->CurrentMaxError() > tolerance) {
    if (splits >= options.max_repair_splits) break;
    const ColorId before = repaired->partition().num_colors();
    if (!repaired->Step(/*color_cap=*/0)) {
      // Converged by the refiner's own rule; with no splittable color
      // left the error cannot be above a positive tolerance, but guard
      // against a rule that disagrees.
      converged = true;
      break;
    }
    splits += repaired->partition().num_colors() - before;
  }
  if (repaired->CurrentMaxError() > tolerance && !converged) {
    return nullptr;  // fallback: the repair work is discarded
  }
  outcome->repaired = true;
  outcome->splits = splits;
  // Error at or under tolerance means any further Step would refuse to
  // split; record convergence so cache budget loops skip it.
  outcome->converged = true;
  return repaired;
}

}  // namespace dynamic
}  // namespace qsc
