#include "qsc/coloring/split_refiner.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "qsc/coloring/witness_spread.h"
#include "qsc/util/check.h"

namespace qsc {

WitnessSplitRefiner::WitnessSplitRefiner(const GraphView& g, Partition initial,
                                         const ColoringParams& params)
    : graph_(g), params_(params), partition_(std::move(initial)) {
  QSC_CHECK_EQ(g.num_nodes(), partition_.num_nodes());
  // CurrentMaxError() must describe the initial partition before the first
  // Step() (the backend contract); the scan is cached for that Step.
  EnsureScanned();
}

bool WitnessSplitRefiner::FindWorstWitness(Witness* out) {
  const GraphView& g = graph_;
  const Partition& p = partition_;

  // Phase A: scan every (color, direction) for per-target spreads. The
  // best candidate is selected by size-weighted score with a total
  // tie-break, so the unordered_map iteration order cannot influence the
  // result.
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
    // Definition-1 pair weighting C_ij = |P_i|^alpha * |P_j|^beta with i
    // the source color: in the out direction c is the source; in the in
    // direction the witness target is the source and c (the color being
    // split) is the pair's j.
    const double size_c = static_cast<double>(size);
    const double size_t_ = static_cast<double>(p.ColorSize(target));
    const double weight =
        pass == 0
            ? std::pow(size_c, params_.alpha) * std::pow(size_t_, params_.beta)
            : std::pow(size_t_, params_.alpha) * std::pow(size_c, params_.beta);
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

  // Phase B: materialize the winning witness's member weights, aligned
  // with Members(best_color).
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

void WitnessSplitRefiner::EnsureScanned() {
  if (scanned_) return;
  has_witness_ = FindWorstWitness(&witness_);
  scanned_ = true;
}

bool WitnessSplitRefiner::SplitOnce(ColorId color_cap) {
  (void)color_cap;
  EnsureScanned();
  if (!has_witness_) return false;

  const std::vector<NodeId>& members = partition_.Members(witness_.split_color);
  std::vector<NodeId> subset = ChooseSplit(witness_);
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  if (subset.empty() || subset.size() >= members.size()) {
    // Degenerate kernel answer: peel the single max-weight member (lowest
    // node id among ties) so progress is always made.
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

bool WitnessSplitRefiner::Step(ColorId color_cap) {
  EnsureScanned();
  if (!has_witness_ || current_error_ <= params_.q_tolerance) return false;
  const double pre_error = current_error_;

  // At least one split, then keep splitting the running worst witness
  // until the maximum q-error recovers to its pre-step value (exactly the
  // RothkoRefiner monotone-recovery loop), the tolerance is met, or the
  // cap truncates the continuation.
  QSC_CHECK(SplitOnce(color_cap));
  EnsureScanned();
  while (has_witness_ && current_error_ > params_.q_tolerance &&
         current_error_ > pre_error &&
         (color_cap <= 0 || partition_.num_colors() < color_cap)) {
    QSC_CHECK(SplitOnce(color_cap));
    EnsureScanned();
  }
  return true;
}

int64_t WitnessSplitRefiner::MemoryBytes() const {
  return static_cast<int64_t>(sizeof(*this)) + partition_.MemoryBytes() +
         static_cast<int64_t>(witness_.weights.capacity() * sizeof(double));
}

}  // namespace qsc
