// Coloring-based betweenness approximation (the paper's method, Sec 4.3 /
// 6.1): compute a quasi-stable coloring (alpha = beta = 1), assume nodes of
// one color contribute interchangeably as shortest-path sources, and run
// one Brandes dependency pass per color from a sampled pivot, weighting the
// pass by the color's size. With k colors the cost is k BFS passes instead
// of n — the paper's "compute (9) once per color" estimator.

#ifndef QSC_CENTRALITY_COLOR_PIVOT_H_
#define QSC_CENTRALITY_COLOR_PIVOT_H_

#include <cstdint>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/graph/graph_view.h"

namespace qsc {

class ThreadPool;

// The estimator core: one size-weighted Brandes pass per sampled pivot
// over a caller-supplied coloring (qsc::Compressor::Centrality passes the
// session's cached coloring). With a pool the pivot passes run
// concurrently and their contributions merge strictly in pivot order;
// each pass writes every node's score once, so the result is
// bit-identical to the sequential loop for any pool size.
std::vector<double> ColorPivotScores(const GraphView& g, const Partition& coloring,
                                     int32_t pivots_per_color, uint64_t seed,
                                     ThreadPool* pool = nullptr);

}  // namespace qsc

#endif  // QSC_CENTRALITY_COLOR_PIVOT_H_
