#include "qsc/centrality/color_pivot.h"

#include <algorithm>

#include "qsc/centrality/brandes.h"
#include "qsc/parallel/parallel_for.h"
#include "qsc/util/random.h"

namespace qsc {

std::vector<double> ColorPivotScores(const GraphView& g, const Partition& coloring,
                                     int32_t pivots_per_color, uint64_t seed,
                                     ThreadPool* pool) {
  QSC_CHECK_EQ(g.num_nodes(), coloring.num_nodes());
  QSC_CHECK_GE(pivots_per_color, 1);

  // Pivot sampling consumes one RNG stream and stays sequential: the
  // sampled pivots are identical for every pool size.
  struct Pivot {
    NodeId node;
    double scale;
  };
  Rng rng(seed);
  std::vector<Pivot> pivots;
  for (ColorId c = 0; c < coloring.num_colors(); ++c) {
    const std::vector<NodeId>& members = coloring.Members(c);
    const int32_t count = std::min<int32_t>(
        pivots_per_color, static_cast<int32_t>(members.size()));
    // Each pivot stands for |P_c| / count sources.
    const double scale =
        static_cast<double>(members.size()) / static_cast<double>(count);
    for (int64_t idx : rng.SampleWithoutReplacement(members.size(), count)) {
      pivots.push_back({members[idx], scale});
    }
  }

  std::vector<double> scores(g.num_nodes(), 0.0);
  if (pool == nullptr || pool->num_threads() <= 1 || pivots.size() <= 1) {
    BrandesWorkspace workspace(g);
    for (const Pivot& pivot : pivots) {
      workspace.AccumulateDependencies(pivot.node, pivot.scale, scores);
    }
    return scores;
  }

  // One Brandes pass per pivot, scored concurrently; contributions merge
  // strictly in pivot order. A pass writes each node's score at most once
  // (scores[w] += scale * delta_w) and every contribution is
  // non-negative, so accumulating a pass into a zeroed buffer and folding
  // the buffers in pivot order reproduces the sequential accumulation bit
  // for bit. At most ~pool-width contribution buffers are live at once
  // (each is released as soon as it commits).
  std::vector<std::vector<double>> contributions(pivots.size());
  ParallelOrderedFor(
      pool, static_cast<int64_t>(pivots.size()),
      [&](int64_t i) {
        contributions[i].assign(g.num_nodes(), 0.0);
        BrandesWorkspace workspace(g);
        workspace.AccumulateDependencies(pivots[i].node, pivots[i].scale,
                                         contributions[i]);
      },
      [&](int64_t i) {
        const std::vector<double>& contribution = contributions[i];
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          scores[v] += contribution[v];
        }
        contributions[i] = {};  // release before later pivots finish
      });
  return scores;
}

}  // namespace qsc
