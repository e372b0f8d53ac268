#include "qsc/coloring/rothko.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "qsc/coloring/flat_rows.h"
#include "qsc/coloring/witness_spread.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

// Degree-row slots reserved for a hub; its row moves once it holds more
// colors (see BuildDegreeRows).
constexpr int64_t kHubRowCapacity = 1024;

// Algorithm 1 lines 10-13: eject the members above the witness mean.
class MeanCutRule final : public SplitRule {
 public:
  explicit MeanCutRule(SplitMean mean) : mean_(mean) {}

  Ranking ranking() const override { return Ranking::kRothko; }

  void ChooseEject(const SplitWitness& w,
                   std::vector<NodeId>* eject) override {
    const std::vector<double>& values = w.weights;
    const size_t size = values.size();
    // The arithmetic sum is order-sensitive: a sequential fold in member
    // order, as the reference implementation accumulates it.
    double threshold;
    if (mean_ == SplitMean::kGeometric && w.lo >= 0.0) {
      double log_sum = 0.0;
      for (double v : values) log_sum += std::log1p(v);
      threshold = std::expm1(log_sum / static_cast<double>(size));
    } else {
      double sum = 0.0;
      for (double v : values) sum += v;
      threshold = sum / static_cast<double>(size);
    }
    const size_t first = eject->size();
    for (size_t i = 0; i < size; ++i) {
      if (values[i] > threshold) eject->push_back(w.members[i]);
    }
    const size_t ejected = eject->size() - first;
    if (ejected == 0 || ejected == size) {
      // Floating-point edge case (threshold rounded onto an extreme):
      // split strictly above the minimum instead.
      eject->resize(first);
      for (size_t i = 0; i < size; ++i) {
        if (values[i] > w.lo) eject->push_back(w.members[i]);
      }
    }
  }

  int64_t MemoryBytes() const override { return sizeof(*this); }

 private:
  SplitMean mean_;
};

}  // namespace

class RothkoRefiner::Impl {
 public:
  Impl(const GraphView& g, Partition initial, RothkoOptions options,
       std::unique_ptr<SplitRule> rule)
      : graph_(g),
        options_(options),
        partition_(std::move(initial)),
        directed_(!g.undirected()),
        rule_(std::move(rule)),
        // Under kScan every size weight must follow the color sizes, so a
        // split re-scores all pairs toward the split color, not only those
        // whose aggregates moved (unneeded when both exponents are 0).
        refresh_size_weights_(rule_->ranking() == SplitRule::Ranking::kScan &&
                              (options.alpha != 0.0 || options.beta != 0.0)),
        weighted_heap_(HeapLess{rule_->ranking()}),
        raw_heap_(HeapLess{rule_->ranking()}) {
    QSC_CHECK_EQ(g.num_nodes(), partition_.num_nodes());
    BuildDegreeRows();
    out_agg_.resize(partition_.num_colors());
    if (directed_) in_agg_.resize(partition_.num_colors());
    GrowScratch();
    for (ColorId c = 0; c < partition_.num_colors(); ++c) {
      RebuildSourceAggregates(c);
      if (directed_) RebuildTargetInAggregates(c);
    }
  }

  bool Step(ColorId color_cap) {
    HeapEntry raw_top;
    if (!PeekValid(raw_heap_, &raw_top)) return false;
    if (raw_top.priority <= options_.q_tolerance) return false;

    // Monotone step (see header): split, then keep splitting while the max
    // q-error sits strictly above its pre-step value. Terminates because
    // refinement reaches a stable coloring (error 0) in at most n-1 splits.
    const double pre_step_error = raw_top.priority;
    for (;;) {
      HeapEntry witness;
      QSC_CHECK(PeekValid(weighted_heap_, &witness));
      ApplySplit(witness);
      if (color_cap > 0 && partition_.num_colors() >= color_cap) break;
      if (!PeekValid(raw_heap_, &raw_top)) break;
      if (raw_top.priority <= pre_step_error) break;
    }
    return true;
  }

  bool RefineTo(ColorId budget) {
    while (partition_.num_colors() < budget) {
      if (!Step(budget)) return false;
    }
    return true;
  }

  void Run() { RefineTo(options_.max_colors); }

  const Partition& partition() const { return partition_; }

  double CurrentMaxError() const {
    HeapEntry top;
    if (!PeekValid(raw_heap_, &top)) return 0.0;
    return top.priority;
  }

  const std::vector<RothkoStep>& history() const { return history_; }

  int64_t MemoryBytes() const {
    int64_t bytes = static_cast<int64_t>(sizeof(Impl));
    bytes += partition_.MemoryBytes();
    bytes += out_deg_.MemoryBytes() + in_deg_.MemoryBytes();
    bytes += static_cast<int64_t>(out_agg_.capacity() * sizeof(AggRow));
    for (const AggRow& row : out_agg_) {
      bytes += static_cast<int64_t>(row.capacity() * sizeof(AggEntry));
    }
    bytes += static_cast<int64_t>(in_agg_.capacity() * sizeof(AggRow));
    for (const AggRow& row : in_agg_) {
      bytes += static_cast<int64_t>(row.capacity() * sizeof(AggEntry));
    }
    bytes += static_cast<int64_t>(
        (weighted_heap_.size() + raw_heap_.size()) * sizeof(HeapEntry));
    bytes += agg_scratch_.MemoryBytes() + out_affected_.MemoryBytes() +
             in_affected_.MemoryBytes();
    bytes += static_cast<int64_t>(
        sorted_keys_.capacity() * sizeof(ColorId) +
        split_values_.capacity() * sizeof(double) +
        eject_.capacity() * sizeof(NodeId) +
        affected_scratch_.capacity() * sizeof(ColorId) +
        history_.capacity() * sizeof(RothkoStep));
    return bytes + rule_->MemoryBytes();
  }

 private:
  // Max/min/presence-count of the witness degrees for one ordered color
  // pair in one direction. `version` identifies the generation; heap
  // entries carrying an older version are stale.
  struct PairAgg : WitnessStats {
    uint64_t version = 0;
  };

  // One aggregate row: the pair aggregates of a fixed color, sorted by the
  // other color's id (same flat layout as the degree rows).
  struct AggEntry {
    ColorId key;
    PairAgg agg;
  };
  using AggRow = std::vector<AggEntry>;

  struct HeapEntry {
    double priority;
    ColorId src;
    ColorId dst;
    uint8_t direction;  // 0: split src by out-weight; 1: split dst by
                        // in-weight.
    uint64_t version;
  };

  // Max-heap order: the higher priority first, then the rule's tie order
  // (SplitRule::Ranking), lowest keys first.
  struct HeapLess {
    SplitRule::Ranking ranking;

    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (ranking == SplitRule::Ranking::kRothko) {
        if (a.src != b.src) return a.src > b.src;
        if (a.dst != b.dst) return a.dst > b.dst;
        return a.direction > b.direction;
      }
      if (a.direction != b.direction) return a.direction > b.direction;
      // Same direction: direction 0 splits src, direction 1 splits dst.
      const bool out = a.direction == 0;
      const ColorId a_split = out ? a.src : a.dst;
      const ColorId b_split = out ? b.src : b.dst;
      if (a_split != b_split) return a_split > b_split;
      return (out ? a.dst : a.src) > (out ? b.dst : b.src);
    }
  };
  using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess>;

  static AggRow::iterator AggLowerBound(AggRow& row, ColorId key) {
    return std::lower_bound(
        row.begin(), row.end(), key,
        [](const AggEntry& e, ColorId k) { return e.key < k; });
  }

  static const PairAgg* FindAgg(const AggRow& row, ColorId key) {
    const auto it = std::lower_bound(
        row.begin(), row.end(), key,
        [](const AggEntry& e, ColorId k) { return e.key < k; });
    if (it == row.end() || it->key != key) return nullptr;
    return &it->agg;
  }

  void BuildDegreeRows() {
    const NodeId n = graph_.num_nodes();
    // A row holds at most one key per arc and one per color, so degrees
    // size the rows without moves; only hub rows past kHubRowCapacity
    // colors grow.
    const auto capacity = [](int64_t degree) {
      return std::min(degree, kHubRowCapacity);
    };
    out_deg_.Reset(n, [&](NodeId v) { return capacity(graph_.OutDegree(v)); });
    if (directed_) {
      in_deg_.Reset(n, [&](NodeId v) { return capacity(graph_.InDegree(v)); });
    }
    for (NodeId u = 0; u < n; ++u) {
      for (const NeighborEntry& e : graph_.OutNeighbors(u)) {
        out_deg_.Add(u, partition_.ColorOf(e.node), e.weight);
        if (directed_) {
          in_deg_.Add(e.node, partition_.ColorOf(u), e.weight);
        }
      }
    }
  }

  void GrowScratch() {
    agg_scratch_.Grow(partition_.num_colors());
    out_affected_.Grow(partition_.num_colors());
    if (directed_) in_affected_.Grow(partition_.num_colors());
  }

  double WeightedPriority(double err, ColorId src, ColorId dst) const {
    double c = 1.0;
    if (options_.alpha != 0.0) {
      c *= std::pow(static_cast<double>(partition_.ColorSize(src)),
                    options_.alpha);
    }
    if (options_.beta != 0.0) {
      c *= std::pow(static_cast<double>(partition_.ColorSize(dst)),
                    options_.beta);
    }
    return err * c;
  }

  void PushEntries(ColorId src, ColorId dst, uint8_t direction,
                   const PairAgg& agg) {
    const ColorId stats_color = direction == 0 ? src : dst;
    const double err = agg.Spread(partition_.ColorSize(stats_color));
    if (err <= 0.0) return;
    weighted_heap_.push(
        {WeightedPriority(err, src, dst), src, dst, direction, agg.version});
    raw_heap_.push({err, src, dst, direction, agg.version});
  }

  // Accumulates the members' rows of `deg` into agg_scratch_ and rebuilds
  // `aggs` as a sorted row. Shared tail of the two Rebuild* methods; the
  // scratch is epoch-reset, not cleared, so rebuild cost tracks the number
  // of touched pairs, not the historical maximum.
  void RebuildAggRow(ColorId c, const FlatWeightRows& deg, AggRow& aggs,
                     bool source_side, uint8_t direction) {
    agg_scratch_.NewEpoch();
    for (NodeId v : partition_.Members(c)) {
      for (const RowEntry e : deg.RowOf(v)) {
        bool fresh;
        // A fresh slot is value-initialized (count 0), which Merge
        // treats as the first sample.
        agg_scratch_.Slot(e.key, &fresh).Merge(e.weight);
      }
    }
    sorted_keys_.assign(agg_scratch_.touched().begin(),
                        agg_scratch_.touched().end());
    std::sort(sorted_keys_.begin(), sorted_keys_.end());
    aggs.clear();
    aggs.reserve(sorted_keys_.size());
    for (const ColorId other : sorted_keys_) {
      PairAgg agg = agg_scratch_.At(other);
      agg.version = ++version_counter_;
      aggs.push_back({other, agg});
      const ColorId src = source_side ? c : other;
      const ColorId dst = source_side ? other : c;
      PushEntries(src, dst, direction, agg);
    }
  }

  // Rebuilds all out-direction aggregates with source color `c` (stats over
  // members of c of their out-weight per target color).
  void RebuildSourceAggregates(ColorId c) {
    RebuildAggRow(c, out_deg_, out_agg_[c], /*source_side=*/true,
                  /*direction=*/0);
  }

  // Rebuilds all in-direction aggregates with target color `c` (stats over
  // members of c of their in-weight per source color).
  void RebuildTargetInAggregates(ColorId c) {
    RebuildAggRow(c, in_deg_, in_agg_[c], /*source_side=*/false,
                  /*direction=*/1);
  }

  // Stores `agg` for key `other` into `aggs` (erasing on empty) and pushes
  // the witness entries. `c` is the fixed color the row belongs to.
  void StoreAndPush(ColorId c, ColorId other, PairAgg agg, AggRow& aggs,
                    bool source_side, uint8_t direction) {
    auto it = AggLowerBound(aggs, other);
    const bool present = it != aggs.end() && it->key == other;
    if (agg.count == 0) {
      if (present) aggs.erase(it);
      return;
    }
    agg.version = ++version_counter_;
    if (present) {
      it->agg = agg;
    } else {
      aggs.insert(it, {other, agg});
    }
    const ColorId src = source_side ? c : other;
    const ColorId dst = source_side ? other : c;
    PushEntries(src, dst, direction, agg);
  }

  // Recomputes every affected color's aggregates toward the two split
  // halves, in list order (the order fixes the version stamps). One pass
  // over a color's member rows scores both halves (this is the per-split
  // hot loop — every color adjacent to the split pays it): `new_key` is the
  // just-created color and therefore the maximum id, so its entry can only
  // sit at a row's tail, and an O(1) check replaces the second binary
  // search.
  void RecomputeAffected(const std::vector<ColorId>& colors,
                         ColorId split_key, ColorId new_key,
                         const FlatWeightRows& deg, std::vector<AggRow>& aggs,
                         bool source_side, uint8_t direction) {
    QSC_DCHECK(new_key + 1 == partition_.num_colors());
    for (const ColorId c : colors) {
      PairAgg split_agg;
      PairAgg new_agg;
      for (NodeId v : partition_.Members(c)) {
        const FlatWeightRows::Row row = deg.RowOf(v);
        if (row.empty()) continue;
        if (row.back().key == new_key) new_agg.Merge(row.back().weight);
        const double* w = deg.FindWeight(v, split_key);
        if (w != nullptr) split_agg.Merge(*w);
      }
      StoreAndPush(c, split_key, split_agg, aggs[c], source_side, direction);
      StoreAndPush(c, new_key, new_agg, aggs[c], source_side, direction);
    }
  }

  // Filters the split halves out of a touched-color list into
  // affected_scratch_, preserving touch order (the commit order).
  void GatherAffected(const std::vector<ColorId>& touched, ColorId split_color,
                      ColorId new_color) {
    affected_scratch_.clear();
    for (const ColorId c : touched) {
      if (c != split_color && c != new_color) affected_scratch_.push_back(c);
    }
  }

  // Pops stale entries off `heap` until its top is current; returns false
  // if the heap drains.
  bool PeekValid(Heap& heap, HeapEntry* out) const {
    while (!heap.empty()) {
      const HeapEntry& top = heap.top();
      const AggRow& row =
          top.direction == 0 ? out_agg_[top.src] : in_agg_[top.dst];
      const ColorId key = top.direction == 0 ? top.dst : top.src;
      const PairAgg* agg = FindAgg(row, key);
      if (agg != nullptr && agg->version == top.version) {
        *out = top;
        return true;
      }
      heap.pop();
    }
    return false;
  }

  void ApplySplit(const HeapEntry& witness) {
    const ColorId split_color =
        witness.direction == 0 ? witness.src : witness.dst;
    const ColorId other = witness.direction == 0 ? witness.dst : witness.src;
    FlatWeightRows& deg_rows = witness.direction == 0 ? out_deg_ : in_deg_;

    const std::vector<NodeId>& members = partition_.Members(split_color);
    const size_t size = members.size();
    QSC_CHECK_GE(size, 2u);

    // Witness degrees of every member (0 when absent) and their envelope;
    // anything order-sensitive is the rule's, over the materialized values.
    std::vector<double>& values = split_values_;
    values.resize(size);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (size_t i = 0; i < size; ++i) {
      values[i] = deg_rows.WeightOrZero(members[i], other);
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    QSC_CHECK_GT(hi, lo);  // Witness error was positive.

    std::vector<NodeId>& eject = eject_;
    eject.clear();
    rule_->ChooseEject(
        {split_color, other, witness.direction == 0, members, values, lo},
        &eject);
    // Member lists are in id order, so answers given in member order
    // arrive sorted.
    if (!std::is_sorted(eject.begin(), eject.end())) {
      std::sort(eject.begin(), eject.end());
    }
    eject.erase(std::unique(eject.begin(), eject.end()), eject.end());
    if (eject.empty() || eject.size() >= size) {
      // Degenerate answer: peel the single max-weight member (lowest node
      // id among ties) so every split makes progress.
      size_t best = 0;
      for (size_t i = 1; i < size; ++i) {
        if (values[i] > values[best] ||
            (values[i] == values[best] && members[i] < members[best])) {
          best = i;
        }
      }
      eject.assign(1, members[best]);
    }

    const ColorId new_color = partition_.SplitColor(split_color, eject);
    out_agg_.emplace_back();
    if (directed_) in_agg_.emplace_back();
    GrowScratch();

    // Update the neighbors' degree rows and note which colors hold nodes
    // whose witness degrees changed.
    out_affected_.NewEpoch();  // colors with changed out-degrees to split
    if (directed_) in_affected_.NewEpoch();  // ... in-degrees from split
    for (NodeId v : eject) {
      for (const NeighborEntry& e : graph_.InNeighbors(v)) {
        out_deg_.Subtract(e.node, split_color, e.weight);
        out_deg_.Add(e.node, new_color, e.weight);
        out_affected_.Touch(partition_.ColorOf(e.node));
      }
      if (directed_) {
        for (const NeighborEntry& e : graph_.OutNeighbors(v)) {
          in_deg_.Subtract(e.node, split_color, e.weight);
          in_deg_.Add(e.node, new_color, e.weight);
          in_affected_.Touch(partition_.ColorOf(e.node));
        }
      }
    }
    if (refresh_size_weights_) {
      // The split color shrank: re-score every pair toward it, including
      // those whose aggregates the ejection left unchanged.
      for (NodeId v : partition_.Members(split_color)) {
        for (const NeighborEntry& e : graph_.InNeighbors(v)) {
          out_affected_.Touch(partition_.ColorOf(e.node));
        }
        if (directed_) {
          for (const NeighborEntry& e : graph_.OutNeighbors(v)) {
            in_affected_.Touch(partition_.ColorOf(e.node));
          }
        }
      }
    }

    // The two halves of the split need full rebuilds (their member sets
    // changed); other colors only need the entries toward the two halves.
    RebuildSourceAggregates(split_color);
    RebuildSourceAggregates(new_color);
    if (directed_) {
      RebuildTargetInAggregates(split_color);
      RebuildTargetInAggregates(new_color);
    }
    GatherAffected(out_affected_.touched(), split_color, new_color);
    RecomputeAffected(affected_scratch_, split_color, new_color, out_deg_,
                      out_agg_, /*source_side=*/true, /*direction=*/0);
    if (directed_) {
      GatherAffected(in_affected_.touched(), split_color, new_color);
      RecomputeAffected(affected_scratch_, split_color, new_color, in_deg_,
                        in_agg_, /*source_side=*/false, /*direction=*/1);
    }

    history_.push_back({split_color, new_color, hi - lo,
                        partition_.num_colors(), timer_.ElapsedSeconds()});
  }

  GraphView graph_;
  RothkoOptions options_;
  Partition partition_;
  bool directed_;

  // out_deg_ row v, key c = w(v, P_c); in_deg_ row v, key c = w(P_c, v)
  // (directed only).
  FlatWeightRows out_deg_;
  FlatWeightRows in_deg_;

  // out_agg_[i] key j: stats over members of P_i of out-weight into P_j.
  // in_agg_[j] key i: stats over members of P_j of in-weight from P_i.
  std::vector<AggRow> out_agg_;
  std::vector<AggRow> in_agg_;

  std::unique_ptr<SplitRule> rule_;
  bool refresh_size_weights_;

  mutable Heap weighted_heap_;
  mutable Heap raw_heap_;
  uint64_t version_counter_ = 0;

  // Preallocated scratch reused across splits (see flat_rows.h).
  EpochScratch<PairAgg> agg_scratch_;
  EpochScratch<char> out_affected_;
  EpochScratch<char> in_affected_;
  std::vector<ColorId> sorted_keys_;
  std::vector<double> split_values_;
  std::vector<NodeId> eject_;
  std::vector<ColorId> affected_scratch_;

  WallTimer timer_;
  std::vector<RothkoStep> history_;
};

RothkoRefiner::RothkoRefiner(const GraphView& g, Partition initial,
                             RothkoOptions options)
    : RothkoRefiner(g, std::move(initial), options,
                    std::make_unique<MeanCutRule>(options.split_mean)) {}

RothkoRefiner::RothkoRefiner(const GraphView& g, Partition initial,
                             RothkoOptions options,
                             std::unique_ptr<SplitRule> rule)
    : impl_(new Impl(g, std::move(initial), options, std::move(rule))) {}

RothkoRefiner::~RothkoRefiner() = default;

bool RothkoRefiner::Step(ColorId color_cap) { return impl_->Step(color_cap); }
bool RothkoRefiner::RefineTo(ColorId budget) {
  return impl_->RefineTo(budget);
}
void RothkoRefiner::Run() { impl_->Run(); }
const Partition& RothkoRefiner::partition() const {
  return impl_->partition();
}
double RothkoRefiner::CurrentMaxError() const {
  return impl_->CurrentMaxError();
}
const std::vector<RothkoStep>& RothkoRefiner::history() const {
  return impl_->history();
}
int64_t RothkoRefiner::MemoryBytes() const { return impl_->MemoryBytes(); }

Partition RothkoColoring(const GraphView& g, Partition initial,
                         const RothkoOptions& options) {
  RothkoRefiner refiner(g, std::move(initial), options);
  refiner.Run();
  return refiner.partition();
}

Partition RothkoColoring(const GraphView& g, const RothkoOptions& options) {
  return RothkoColoring(g, Partition::Trivial(g.num_nodes()), options);
}

}  // namespace qsc
