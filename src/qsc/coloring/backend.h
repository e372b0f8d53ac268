// Compression backends by name (ROADMAP item 4; Slim Graph's "menu of
// lossy compression kernels" as small rules over one shared engine).
//
// Every backend is RothkoRefiner's incremental engine — one witness
// table, one worst-witness selection, one monotone Step — and a backend
// name only picks the SplitRule that decides which members of the worst
// witness's color leave. Specs name their backend, cache keys and byte
// budgets account per backend, and the eval harness scores every backend
// on the same accuracy-vs-compression axes (qsc_eval --backend).
//
//   bucket      - degree bucketing: split at the median rank of total
//                 weighted degree — the cheap structure-oblivious
//                 baseline (coloring/bucket.h).
//   lp-rounding - LP-relaxation splits: the member weights are
//                 2-center-clustered by a small assignment LP solved with
//                 the in-tree simplex, then rounded
//                 (coloring/lp_rounding.h).
//   rothko      - the paper's Algorithm 1: split at the witness mean.

#ifndef QSC_COLORING_BACKEND_H_
#define QSC_COLORING_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph_view.h"
#include "qsc/util/status.h"

namespace qsc {

// The canonical name of the default backend; ColoringSpec treats the
// empty string as this name (pre-backend specs keep their meaning, hash,
// and cache identity).
inline constexpr const char* kDefaultColoringBackend = "rothko";

// Canonicalizes a user-supplied backend name: ASCII whitespace trimmed,
// ASCII letters lowercased, "" mapped to kDefaultColoringBackend.
// Returns InvalidArgument for malformed names — after canonicalization a
// name must match [a-z0-9][a-z0-9_-]* (<= 64 chars). Whether the name is
// a *known* backend is a separate question (IsBackendName); the
// Compressor boundary maps well-formed-but-unknown to NotFound.
StatusOr<std::string> CanonicalBackendName(const std::string& name);

// The backend names, sorted; the "registered: ..." list in boundary error
// messages.
std::vector<std::string> BackendNames();

// True when `canonical_name` names a backend.
bool IsBackendName(const std::string& canonical_name);

// Builds the named backend's refiner over `g` starting from `initial`
// (see RothkoRefiner for the anytime contract every backend honors). The
// color budget is the caller's: drive it with RefineTo. Aborts on an
// unknown name (the Compressor boundary validates first).
std::unique_ptr<RothkoRefiner> MakeRefiner(const std::string& canonical_name,
                                           const GraphView& g,
                                           Partition initial,
                                           const ColoringParams& params);

}  // namespace qsc

#endif  // QSC_COLORING_BACKEND_H_
