// The coloring parameters shared by every compression backend.
//
// Historically these knobs were duplicated across RothkoOptions,
// LpReduceOptions, and QueryOptions; MakeRefiner (backend.h) needs one
// canonical struct that every backend consumes, so they live here and
// the per-algorithm option structs derive from it (the structs stay thin
// aliases — every existing call site that assigns `options.alpha = ...`
// compiles unchanged).

#ifndef QSC_COLORING_PARAMS_H_
#define QSC_COLORING_PARAMS_H_

namespace qsc {

// Split-threshold rule for witness splits (paper Sec 5.2). Named
// RothkoOptions::SplitMean at most call sites via the nested alias in
// rothko.h; semantics are backend-agnostic — any kernel that thresholds
// witness weights may honor it.
enum class SplitMean {
  kArithmetic,  // threshold = mean degree (Algorithm 1 line 10)
  kGeometric,   // mean in log-space: exp(mean(log(1+d)))-1; requires
                // non-negative degrees, better balanced on scale-free
                // graphs (paper Sec 5.2). Falls back to arithmetic when a
                // negative degree is present.
};

// Everything that parameterizes a coloring kernel besides the graph, the
// initial partition, and the color budget (the budget is owned by the
// caller's refinement loop — see RothkoRefiner::RefineTo).
struct ColoringParams {
  // Witness weighting C_ij = |P_i|^alpha * |P_j|^beta (paper Sec 5.2:
  // alpha=beta=0 for max-flow, alpha=1 beta=0 for LPs, alpha=beta=1 for
  // centrality). Backends without a witness-weighting notion may ignore
  // them, but ignoring them must be deterministic and documented.
  double alpha = 0.0;
  double beta = 0.0;

  // Stop refining once the maximum (unweighted) q-error drops to or below
  // this bound (epsilon in Algorithm 1). 0 refines all the way to a
  // stable coloring if the budget permits.
  double q_tolerance = 0.0;

  SplitMean split_mean = SplitMean::kArithmetic;
};

}  // namespace qsc

#endif  // QSC_COLORING_PARAMS_H_
