#include "qsc/coloring/bucket.h"

#include <algorithm>
#include <vector>

namespace qsc {
namespace {

class BucketRule final : public SplitRule {
 public:
  explicit BucketRule(const GraphView& g) {
    total_degree_.reserve(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      // For undirected graphs OutWeight == InWeight, so this double-counts
      // uniformly — ranks are unaffected.
      total_degree_.push_back(g.OutWeight(v) + g.InWeight(v));
    }
  }

  Ranking ranking() const override { return Ranking::kScan; }

  void ChooseEject(const SplitWitness& witness,
                   std::vector<NodeId>* eject) override {
    ranked_.assign(witness.members.begin(), witness.members.end());
    std::sort(ranked_.begin(), ranked_.end(), [this](NodeId a, NodeId b) {
      if (total_degree_[a] != total_degree_[b]) {
        return total_degree_[a] < total_degree_[b];
      }
      return a < b;
    });
    // Peel the upper half of the degree ranks; with >= 2 members both
    // sides are non-empty.
    eject->insert(eject->end(), ranked_.begin() + ranked_.size() / 2,
                  ranked_.end());
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(sizeof(*this) +
                                total_degree_.capacity() * sizeof(double) +
                                ranked_.capacity() * sizeof(NodeId));
  }

 private:
  std::vector<double> total_degree_;  // OutWeight + InWeight, per node
  std::vector<NodeId> ranked_;        // scratch: members by degree rank
};

}  // namespace

std::unique_ptr<SplitRule> MakeBucketRule(const GraphView& g) {
  return std::make_unique<BucketRule>(g);
}

}  // namespace qsc
