#include "qsc/coloring/backend.h"

#include <memory>
#include <utility>

#include "qsc/coloring/bucket.h"
#include "qsc/coloring/lp_rounding.h"
#include "qsc/util/check.h"

namespace qsc {
namespace {

bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool IsNameChar(char c, bool first) {
  const bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  return first ? alnum : alnum || c == '_' || c == '-';
}

struct Backend {
  const char* name;
  std::unique_ptr<RothkoRefiner> (*make)(const GraphView& g, Partition initial,
                                         const RothkoOptions& options);
};

// The backends, sorted by name: the one place a name picks a split rule.
constexpr Backend kBackends[] = {
    {"bucket",
     [](const GraphView& g, Partition initial, const RothkoOptions& options) {
       return std::make_unique<RothkoRefiner>(g, std::move(initial), options,
                                              MakeBucketRule(g));
     }},
    {"lp-rounding",
     [](const GraphView& g, Partition initial, const RothkoOptions& options) {
       return std::make_unique<RothkoRefiner>(g, std::move(initial), options,
                                              MakeLpRoundingRule());
     }},
    {"rothko",
     [](const GraphView& g, Partition initial, const RothkoOptions& options) {
       return std::make_unique<RothkoRefiner>(g, std::move(initial), options);
     }},
};

const Backend* FindBackend(const std::string& canonical_name) {
  for (const Backend& backend : kBackends) {
    if (canonical_name == backend.name) return &backend;
  }
  return nullptr;
}

}  // namespace

StatusOr<std::string> CanonicalBackendName(const std::string& name) {
  size_t begin = 0;
  size_t end = name.size();
  while (begin < end && IsAsciiSpace(name[begin])) ++begin;
  while (end > begin && IsAsciiSpace(name[end - 1])) --end;
  if (begin == end) return std::string(kDefaultColoringBackend);

  std::string canonical;
  canonical.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    canonical.push_back(AsciiLower(name[i]));
  }
  constexpr size_t kMaxLen = 64;
  if (canonical.size() > kMaxLen) {
    return Status::InvalidArgument("backend name longer than 64 characters");
  }
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (!IsNameChar(canonical[i], /*first=*/i == 0)) {
      return Status::InvalidArgument(
          "malformed backend name \"" + canonical +
          "\": must match [a-z0-9][a-z0-9_-]*");
    }
  }
  return canonical;
}

std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (const Backend& backend : kBackends) names.push_back(backend.name);
  return names;
}

bool IsBackendName(const std::string& canonical_name) {
  return FindBackend(canonical_name) != nullptr;
}

std::unique_ptr<RothkoRefiner> MakeRefiner(const std::string& canonical_name,
                                           const GraphView& g,
                                           Partition initial,
                                           const ColoringParams& params) {
  const Backend* backend = FindBackend(canonical_name);
  QSC_CHECK(backend != nullptr);  // the boundary validates first
  // max_colors only drives RothkoRefiner::Run; the caller owns the budget.
  RothkoOptions options;
  static_cast<ColoringParams&>(options) = params;
  return backend->make(g, std::move(initial), options);
}

}  // namespace qsc
