#include "qsc/coloring/lp_rounding.h"

#include <algorithm>
#include <vector>

#include "qsc/lp/model.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/check.h"

namespace qsc {
namespace {

// Cap on LP columns per split; larger witness colors are quantile-merged.
constexpr int64_t kMaxGroups = 256;

class LpRoundingRule final : public SplitRule {
 public:
  Ranking ranking() const override { return Ranking::kScan; }

  void ChooseEject(const SplitWitness& witness,
                   std::vector<NodeId>* eject) override {
    const std::vector<NodeId>& members = witness.members;
    const std::vector<double>& weights = witness.weights;
    const int64_t n = static_cast<int64_t>(members.size());
    QSC_CHECK_EQ(n, static_cast<int64_t>(weights.size()));

    // Distinct witness weights, ascending; quantile-merge to <= kMaxGroups.
    std::vector<double> distinct = weights;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    const int64_t num_distinct = static_cast<int64_t>(distinct.size());
    const int64_t num_groups = std::min(num_distinct, kMaxGroups);
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

    // maximize sum_g (w_g - mid) x_g  s.t.  x_g <= count_g,
    // sum x_g <= N-1, -sum x_g <= -1, x >= 0.
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
      // Unreachable on this bounded feasible family; deterministic anyway.
      for (int64_t g = 0; g < num_groups; ++g) {
        keep[g] = sum[g] / static_cast<double>(count[g]) > mid;
      }
    }

    // The coupling rows make the fractional solution non-degenerate, but
    // rounding can still collapse a side; clamp by toggling a boundary
    // group (num_groups >= 2 whenever the spread is positive).
    int64_t kept = 0;
    for (int64_t g = 0; g < num_groups; ++g) kept += keep[g] ? count[g] : 0;
    if (kept == 0) keep[num_groups - 1] = 1;
    if (kept == n) keep[0] = 0;

    for (int64_t i = 0; i < n; ++i) {
      if (keep[member_group[i]]) eject->push_back(members[i]);
    }
  }

  int64_t MemoryBytes() const override { return sizeof(*this); }
};

}  // namespace

std::unique_ptr<SplitRule> MakeLpRoundingRule() {
  return std::make_unique<LpRoundingRule>();
}

}  // namespace qsc
