// LP dimensionality reduction via quasi-stable coloring (paper Sec 4.1).
//
// The LP is encoded as the weighted bipartite graph of its extended matrix
//   A_ext = [ A  b ]
//           [ c^T . ]
// whose rows and columns are colored by Rothko with two constraints: row
// and column nodes never share a color, and the objective row / rhs column
// are pinned to singleton colors. The reduced LP follows Eq. (6)
// (sqrt-normalized) or the Grohe et al. [16] variant; Theorem 2 bounds
// |OPT - OPT_reduced| by q * Delta.

#ifndef QSC_LP_REDUCE_H_
#define QSC_LP_REDUCE_H_

#include <string>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"

namespace qsc {

enum class LpReduction {
  kSqrtNormalized,  // Eq. (6): A^(r,s) = A(P_r,Q_s)/sqrt(|P_r||Q_s|)
  kGrohe,           // [16]:    A^(r,s) = A(P_r,Q_s)/|Q_s|, b^ = b(P_r)
};

// The shared coloring knobs (alpha, beta, q_tolerance, split_mean, pool)
// come from ColoringParams; the constructor flips alpha to the paper's LP
// default (alpha=1, beta=0). The pool never changes the reduction.
struct LpReduceOptions : ColoringParams {
  LpReduceOptions() { alpha = 1.0; }

  // Total number of colors for the bipartite matrix graph, including the
  // two pinned singletons (objective row, rhs column). Must be >= 4.
  ColorId max_colors = 40;
  LpReduction variant = LpReduction::kSqrtNormalized;

  // Coloring backend for the matrix graph (coloring/backend.h); "" means
  // kDefaultColoringBackend. Must canonicalize to a backend name —
  // qsc::Compressor::SolveLp validates; ReduceLp aborts on malformed or
  // unknown names.
  std::string backend;
};

struct ReducedLp {
  LpProblem lp;  // the reduced LP
  // Color of each original row / column, as indices into the reduced LP
  // (0..reduced.num_rows-1 / 0..reduced.num_cols-1).
  std::vector<int32_t> row_color;
  std::vector<int32_t> col_color;
  std::vector<int64_t> row_color_size;
  std::vector<int64_t> col_color_size;
  LpReduction variant = LpReduction::kSqrtNormalized;
  double max_q = 0.0;  // q-error of the coloring on the matrix graph
  double coloring_seconds = 0.0;
};

// One-shot reduction: colors the matrix graph to options.max_colors
// colors from scratch and extracts the reduced LP. Aborts on an invalid LP
// or budget; qsc::Compressor::SolveLp is the validated, cached path (one
// anytime refinement per LP, resumed across budgets) and returns the same
// bits.
ReducedLp ReduceLp(const LpProblem& lp, const LpReduceOptions& options);

// The extended-matrix bipartite graph of an LP and its initial partition,
// the two inputs of every matrix coloring. Node layout: rows 0..m-1, the
// objective row m, columns m+1..m+n, the rhs column m+n+1. `initial` has
// the four colors {rows} {objective row} {columns} {rhs column} (fewer
// when m or n is 0).
struct LpMatrixGraph {
  Graph graph;
  Partition initial;
};

LpMatrixGraph BuildLpMatrixGraph(const LpProblem& lp);

// Extracts the reduced LP of Eq. (6) (or the Grohe variant) from a
// refinement of the matrix graph's initial partition. Leaves max_q and
// coloring_seconds at 0 for the caller to fill.
ReducedLp ExtractReducedLp(const LpProblem& lp,
                           const Partition& matrix_coloring,
                           LpReduction variant);

// Lifts a reduced solution x^ back to the original variable space
// (x_j = x^_s / sqrt(|Q_s|) for Eq. (6), x_j = x^_s / |Q_s| for Grohe).
// The lifted point reproduces the reduced objective value but is not
// necessarily feasible for the original LP (Theorem 2 bounds the value,
// not the point).
std::vector<double> LiftSolution(const ReducedLp& reduced,
                                 const std::vector<double>& reduced_x);

}  // namespace qsc

#endif  // QSC_LP_REDUCE_H_
