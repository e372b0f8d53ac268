// The `lp-rounding` compression backend: witness splits posed as a small
// assignment LP solved by the in-tree simplex, then rounded (the Limbo
// LPColoring recipe — relax the combinatorial choice, solve the LP,
// round the fractional solution). It is a split rule on Rothko's engine
// (rothko.h), which finds the worst witness and keeps the step monotone.
//
// For the worst witness the rule groups members by witness weight
// (quantile-merged to <= kMaxGroups groups), then solves
//
//     maximize  sum_g (w_g - mid) * x_g
//     s.t.      0 <= x_g <= count_g            (fractional membership)
//               1 <= sum_g x_g <= N - 1        (both sides non-empty)
//
// where mid is the weight midrange (lo+hi)/2. The LP pushes every group
// above the midrange fully into the new color and every group below fully
// out; the coupling row forces a boundary group fractional exactly when a
// pure midrange threshold would leave one side empty. Rounding keeps a
// group iff x_g >= count_g / 2. The cut is therefore a *midrange*
// threshold — genuinely different from rothko's mean split and bucket's
// median-rank split — with LP-certified non-degeneracy.
//
// Determinism: groups are built from sorted distinct weights, the LP is a
// fixed function of the witness, and SolveSimplex is deterministic, so
// the split sequence is a pure function of (graph, partition, params).
// If the solver ever fails to return an optimum (it cannot on this
// bounded feasible family, but the rule does not rely on that), the
// rule falls back to the plain midrange threshold. Witnesses rank by
// SplitRule::Ranking::kScan.

#ifndef QSC_COLORING_LP_ROUNDING_H_
#define QSC_COLORING_LP_ROUNDING_H_

#include <memory>

#include "qsc/coloring/rothko.h"

namespace qsc {

std::unique_ptr<SplitRule> MakeLpRoundingRule();

}  // namespace qsc

#endif  // QSC_COLORING_LP_ROUNDING_H_
