// Test-only reference copy of the scan-based driver that `lp-rounding` and
// `bucket` ran on before they became split rules on Rothko's incremental
// engine: after every split it rescans the whole graph for the worst
// witness (ScanWitnessPairs), ranks candidates by size-weighted spread
// with the tie order (direction, split color, other color), peels the
// kernel's subset, clamps degenerate subsets to the max-weight member, and
// repeats inside one Step() until the maximum q-error recovers. The two
// kernels' split choices are frozen here too. The production backends
// must reproduce this driver's split sequence bit-for-bit —
// coloring_split_rule_equivalence_test.cc compares them over the 56-graph
// property corpus. Do not "improve" this file; it is the frozen oracle.

#ifndef QSC_TESTS_SPLIT_RULE_REFERENCE_H_
#define QSC_TESTS_SPLIT_RULE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/witness_spread.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/check.h"

namespace qsc {
namespace reference {

class ScanSplitReference {
 public:
  enum class Kernel { kLpRounding, kBucket };

  ScanSplitReference(const Graph& g, Partition initial,
                     const ColoringParams& params, Kernel kernel)
      : graph_(&g),
        params_(params),
        partition_(std::move(initial)),
        kernel_(kernel) {
    QSC_CHECK_EQ(g.num_nodes(), partition_.num_nodes());
    if (kernel_ == Kernel::kBucket) {
      total_degree_.reserve(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        total_degree_.push_back(g.OutWeight(v) + g.InWeight(v));
      }
    }
    EnsureScanned();
  }

  bool Step(ColorId color_cap = 0) {
    EnsureScanned();
    if (!has_witness_ || current_error_ <= params_.q_tolerance) return false;
    const double pre_error = current_error_;
    QSC_CHECK(SplitOnce());
    EnsureScanned();
    while (has_witness_ && current_error_ > params_.q_tolerance &&
           current_error_ > pre_error &&
           (color_cap <= 0 || partition_.num_colors() < color_cap)) {
      QSC_CHECK(SplitOnce());
      EnsureScanned();
    }
    return true;
  }

  const Partition& partition() const { return partition_; }
  double CurrentMaxError() const { return current_error_; }

 private:
  struct Witness {
    ColorId split_color = -1;
    ColorId other_color = -1;
    bool out_direction = true;
    double spread = 0.0;
    std::vector<double> weights;
  };

  bool FindWorstWitness(Witness* out) {
    const Graph& g = *graph_;
    const Partition& p = partition_;
    double max_error = 0.0;
    bool found = false;
    double best_score = 0.0;
    int best_pass = 0;
    ColorId best_color = -1;
    ColorId best_target = -1;
    const auto visit = [&](int pass, ColorId c, int64_t size, ColorId target,
                           const WitnessStats& s) {
      const double spread = s.Spread(size);
      max_error = std::max(max_error, spread);
      if (spread <= 0.0 || size < 2) return true;
      const double size_c = static_cast<double>(size);
      const double size_t_ = static_cast<double>(p.ColorSize(target));
      const double weight =
          pass == 0 ? std::pow(size_c, params_.alpha) *
                          std::pow(size_t_, params_.beta)
                    : std::pow(size_t_, params_.alpha) *
                          std::pow(size_c, params_.beta);
      const double score = weight * spread;
      const bool better =
          !found || score > best_score ||
          (score == best_score &&
           (pass < best_pass ||
            (pass == best_pass &&
             (c < best_color || (c == best_color && target < best_target)))));
      if (better) {
        found = true;
        best_score = score;
        best_pass = pass;
        best_color = c;
        best_target = target;
      }
      return true;
    };
    ScanWitnessPairs(g, p, visit);
    current_error_ = max_error;
    if (!found) return false;

    out->split_color = best_color;
    out->other_color = best_target;
    out->out_direction = best_pass == 0;
    out->weights.clear();
    double hi = 0.0, lo = 0.0;
    bool first = true;
    for (NodeId v : p.Members(best_color)) {
      double w = 0.0;
      const auto neighbors =
          best_pass == 0 ? g.OutNeighbors(v) : g.InNeighbors(v);
      for (const NeighborEntry& e : neighbors) {
        if (p.ColorOf(e.node) == best_target) w += e.weight;
      }
      out->weights.push_back(w);
      hi = first ? w : std::max(hi, w);
      lo = first ? w : std::min(lo, w);
      first = false;
    }
    out->spread = hi - lo;
    return true;
  }

  void EnsureScanned() {
    if (scanned_) return;
    has_witness_ = FindWorstWitness(&witness_);
    scanned_ = true;
  }

  bool SplitOnce() {
    EnsureScanned();
    if (!has_witness_) return false;
    const std::vector<NodeId>& members =
        partition_.Members(witness_.split_color);
    std::vector<NodeId> subset = kernel_ == Kernel::kLpRounding
                                     ? LpRoundingChooseSplit(witness_)
                                     : BucketChooseSplit(witness_);
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
    if (subset.empty() || subset.size() >= members.size()) {
      size_t best = 0;
      for (size_t i = 1; i < witness_.weights.size(); ++i) {
        if (witness_.weights[i] > witness_.weights[best] ||
            (witness_.weights[i] == witness_.weights[best] &&
             members[i] < members[best])) {
          best = i;
        }
      }
      subset.assign(1, members[best]);
    }
    partition_.SplitColor(witness_.split_color, subset);
    scanned_ = false;
    return true;
  }

  std::vector<NodeId> LpRoundingChooseSplit(const Witness& witness) const {
    constexpr int kMaxGroups = 256;
    const std::vector<NodeId>& members =
        partition_.Members(witness.split_color);
    const std::vector<double>& weights = witness.weights;
    const int64_t n = static_cast<int64_t>(members.size());
    QSC_CHECK_EQ(n, static_cast<int64_t>(weights.size()));

    std::vector<double> distinct = weights;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    const int64_t num_distinct = static_cast<int64_t>(distinct.size());
    const int64_t num_groups = std::min<int64_t>(num_distinct, kMaxGroups);
    auto group_of_weight = [&](double w) -> int64_t {
      const int64_t rank =
          std::lower_bound(distinct.begin(), distinct.end(), w) -
          distinct.begin();
      return rank * num_groups / num_distinct;
    };

    std::vector<int64_t> count(num_groups, 0);
    std::vector<double> sum(num_groups, 0.0);
    std::vector<int64_t> member_group(n);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t g = group_of_weight(weights[i]);
      member_group[i] = g;
      ++count[g];
      sum[g] += weights[i];
    }
    const double mid = (distinct.front() + distinct.back()) / 2.0;

    LpProblem lp;
    lp.num_cols = static_cast<int32_t>(num_groups);
    lp.num_rows = static_cast<int32_t>(num_groups) + 2;
    for (int32_t g = 0; g < lp.num_cols; ++g) {
      lp.c.push_back(sum[g] / static_cast<double>(count[g]) - mid);
      lp.entries.push_back({g, g, 1.0});
      lp.entries.push_back({lp.num_cols, g, 1.0});
      lp.entries.push_back({lp.num_cols + 1, g, -1.0});
      lp.b.push_back(static_cast<double>(count[g]));
    }
    lp.b.push_back(static_cast<double>(n - 1));
    lp.b.push_back(-1.0);

    const LpResult result = SolveSimplex(lp);

    std::vector<char> keep(num_groups, 0);
    if (result.status == LpStatus::kOptimal) {
      for (int64_t g = 0; g < num_groups; ++g) {
        keep[g] = result.x[g] + 1e-9 >= static_cast<double>(count[g]) / 2.0;
      }
    } else {
      for (int64_t g = 0; g < num_groups; ++g) {
        keep[g] = sum[g] / static_cast<double>(count[g]) > mid;
      }
    }

    int64_t kept = 0;
    for (int64_t g = 0; g < num_groups; ++g) kept += keep[g] ? count[g] : 0;
    if (kept == 0) keep[num_groups - 1] = 1;
    if (kept == n) keep[0] = 0;

    std::vector<NodeId> subset;
    for (int64_t i = 0; i < n; ++i) {
      if (keep[member_group[i]]) subset.push_back(members[i]);
    }
    return subset;
  }

  std::vector<NodeId> BucketChooseSplit(const Witness& witness) const {
    std::vector<NodeId> ranked = partition_.Members(witness.split_color);
    std::sort(ranked.begin(), ranked.end(), [this](NodeId a, NodeId b) {
      if (total_degree_[a] != total_degree_[b]) {
        return total_degree_[a] < total_degree_[b];
      }
      return a < b;
    });
    return std::vector<NodeId>(ranked.begin() + ranked.size() / 2,
                               ranked.end());
  }

  const Graph* graph_;
  ColoringParams params_;
  Partition partition_;
  Kernel kernel_;
  std::vector<double> total_degree_;
  double current_error_ = 0.0;
  bool scanned_ = false;
  bool has_witness_ = false;
  Witness witness_;
};

}  // namespace reference
}  // namespace qsc

#endif  // QSC_TESTS_SPLIT_RULE_REFERENCE_H_
