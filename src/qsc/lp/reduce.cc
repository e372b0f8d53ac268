#include "qsc/lp/reduce.h"

#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qsc/graph/graph.h"
#include "qsc/util/timer.h"

namespace qsc {

LpMatrixGraph BuildLpMatrixGraph(const LpProblem& lp) {
  const int32_t m = lp.num_rows;
  const int32_t n = lp.num_cols;
  const NodeId obj_row = m;
  const NodeId col_base = m + 1;
  const NodeId rhs_col = m + 1 + n;
  std::vector<EdgeTriple> arcs;
  arcs.reserve(lp.entries.size() + m + n);
  for (const LpEntry& e : lp.entries) {
    arcs.push_back({e.row, col_base + e.col, e.value});
  }
  for (int32_t i = 0; i < m; ++i) {
    if (lp.b[i] != 0.0) arcs.push_back({i, rhs_col, lp.b[i]});
  }
  for (int32_t j = 0; j < n; ++j) {
    if (lp.c[j] != 0.0) arcs.push_back({obj_row, col_base + j, lp.c[j]});
  }
  LpMatrixGraph out;
  out.graph = Graph::FromEdges(rhs_col + 1, arcs, /*undirected=*/false);

  // Initial colors: {rows}, {objective row}, {columns}, {rhs column}.
  std::vector<int32_t> labels(rhs_col + 1);
  for (int32_t i = 0; i < m; ++i) labels[i] = 0;
  labels[obj_row] = 1;
  for (int32_t j = 0; j < n; ++j) labels[col_base + j] = 2;
  labels[rhs_col] = 3;
  out.initial = Partition::FromColorIds(labels);
  return out;
}

ReducedLp ExtractReducedLp(const LpProblem& lp, const Partition& p,
                           LpReduction variant) {
  const int32_t m = lp.num_rows;
  const int32_t n = lp.num_cols;
  const NodeId col_base = m + 1;
  ReducedLp out;
  out.variant = variant;

  // Densify color ids separately for rows and columns, excluding the
  // pinned objective/rhs singletons.
  const ColorId obj_color = p.ColorOf(m);
  const ColorId rhs_color = p.ColorOf(m + 1 + n);
  std::unordered_map<ColorId, int32_t> row_id, col_id;
  out.row_color.resize(m);
  out.col_color.resize(n);
  for (int32_t i = 0; i < m; ++i) {
    const ColorId c = p.ColorOf(i);
    QSC_CHECK_NE(c, obj_color);
    QSC_CHECK_NE(c, rhs_color);
    auto [it, inserted] =
        row_id.try_emplace(c, static_cast<int32_t>(row_id.size()));
    out.row_color[i] = it->second;
  }
  for (int32_t j = 0; j < n; ++j) {
    const ColorId c = p.ColorOf(col_base + j);
    QSC_CHECK_NE(c, obj_color);
    QSC_CHECK_NE(c, rhs_color);
    auto [it, inserted] =
        col_id.try_emplace(c, static_cast<int32_t>(col_id.size()));
    out.col_color[j] = it->second;
  }
  const int32_t k = static_cast<int32_t>(row_id.size());
  const int32_t l = static_cast<int32_t>(col_id.size());
  out.row_color_size.assign(k, 0);
  out.col_color_size.assign(l, 0);
  for (int32_t i = 0; i < m; ++i) ++out.row_color_size[out.row_color[i]];
  for (int32_t j = 0; j < n; ++j) ++out.col_color_size[out.col_color[j]];

  // Block sums A(P_r, Q_s), b(P_r), c(Q_s).
  std::unordered_map<int64_t, double> block;
  block.reserve(lp.entries.size() / 2 + 1);
  for (const LpEntry& e : lp.entries) {
    const int64_t key = static_cast<int64_t>(out.row_color[e.row]) * l +
                        out.col_color[e.col];
    block[key] += e.value;
  }
  std::vector<double> b_sum(k, 0.0), c_sum(l, 0.0);
  for (int32_t i = 0; i < m; ++i) b_sum[out.row_color[i]] += lp.b[i];
  for (int32_t j = 0; j < n; ++j) c_sum[out.col_color[j]] += lp.c[j];

  out.lp.num_rows = k;
  out.lp.num_cols = l;
  out.lp.entries.reserve(block.size());
  for (const auto& [key, sum] : block) {
    const int32_t r = static_cast<int32_t>(key / l);
    const int32_t s = static_cast<int32_t>(key % l);
    const double pr = static_cast<double>(out.row_color_size[r]);
    const double qs = static_cast<double>(out.col_color_size[s]);
    const double value = variant == LpReduction::kSqrtNormalized
                             ? sum / std::sqrt(pr * qs)
                             : sum / qs;
    if (value != 0.0) out.lp.entries.push_back({r, s, value});
  }
  out.lp.b.resize(k);
  out.lp.c.resize(l);
  for (int32_t r = 0; r < k; ++r) {
    const double pr = static_cast<double>(out.row_color_size[r]);
    out.lp.b[r] = variant == LpReduction::kSqrtNormalized
                      ? b_sum[r] / std::sqrt(pr)
                      : b_sum[r];
  }
  for (int32_t s = 0; s < l; ++s) {
    const double qs = static_cast<double>(out.col_color_size[s]);
    out.lp.c[s] = variant == LpReduction::kSqrtNormalized
                      ? c_sum[s] / std::sqrt(qs)
                      : c_sum[s] / qs;
  }
  CanonicalizeLp(out.lp);
  return out;
}

ReducedLp ReduceLp(const LpProblem& lp, const LpReduceOptions& options) {
  QSC_CHECK_OK(ValidateLp(lp));
  QSC_CHECK_GE(options.max_colors, 4);
  LpMatrixGraph mg = BuildLpMatrixGraph(lp);
  WallTimer timer;
  // CanonicalBackendName aborts on malformed names and MakeRefiner on
  // unknown ones (see LpReduceOptions::backend).
  const std::unique_ptr<RothkoRefiner> refiner = MakeRefiner(
      CanonicalBackendName(options.backend).value(), mg.graph,
      std::move(mg.initial), static_cast<const ColoringParams&>(options));
  refiner->RefineTo(options.max_colors);
  const double coloring_seconds = timer.ElapsedSeconds();
  ReducedLp out = ExtractReducedLp(lp, refiner->partition(), options.variant);
  out.max_q = refiner->CurrentMaxError();
  out.coloring_seconds = coloring_seconds;
  return out;
}

int64_t ReducedLp::MemoryBytes() const {
  const auto bytes = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  return static_cast<int64_t>(sizeof(ReducedLp)) + bytes(lp.entries) +
         bytes(lp.b) + bytes(lp.c) + bytes(row_color) + bytes(col_color) +
         bytes(row_color_size) + bytes(col_color_size);
}

std::vector<double> LiftSolution(const ReducedLp& reduced,
                                 const std::vector<double>& reduced_x) {
  QSC_CHECK_EQ(static_cast<int32_t>(reduced_x.size()), reduced.lp.num_cols);
  std::vector<double> x(reduced.col_color.size());
  for (size_t j = 0; j < x.size(); ++j) {
    const int32_t s = reduced.col_color[j];
    const double qs = static_cast<double>(reduced.col_color_size[s]);
    x[j] = reduced.variant == LpReduction::kSqrtNormalized
               ? reduced_x[s] / std::sqrt(qs)
               : reduced_x[s] / qs;
  }
  return x;
}

}  // namespace qsc
