// The `bucket` compression backend: degree bucketing as the cheap,
// structure-oblivious baseline (Slim Graph's simplest kernel class).
//
// Rothko's engine (rothko.h) picks which color to split — the worst
// witness, as every backend does — but this rule's cut ignores the
// witness weights entirely: members are ranked by total weighted degree
// (OutWeight + InWeight, ties by node id) and the upper half of the ranks
// is peeled into the new color. SplitMean is ignored (there is no
// threshold, only a median rank); alpha/beta still shape witness
// *selection*, which ranks by SplitRule::Ranking::kScan. This is the
// backend any quality-claims plot must beat to justify a smarter kernel.

#ifndef QSC_COLORING_BUCKET_H_
#define QSC_COLORING_BUCKET_H_

#include <memory>

#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph_view.h"

namespace qsc {

std::unique_ptr<SplitRule> MakeBucketRule(const GraphView& g);

}  // namespace qsc

#endif  // QSC_COLORING_BUCKET_H_
