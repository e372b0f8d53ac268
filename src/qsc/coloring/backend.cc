#include "qsc/coloring/backend.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "qsc/coloring/bucket.h"
#include "qsc/coloring/lp_rounding.h"
#include "qsc/coloring/rothko.h"
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

// Every builtin runs Rothko's engine; max_colors only drives
// RothkoRefiner::Run, which the registry's callers never use.
RothkoOptions EngineOptions(const ColoringParams& params) {
  RothkoOptions options;
  static_cast<ColoringParams&>(options) = params;
  return options;
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

class ColoringBackendRegistry::Impl {
 public:
  struct Entry {
    std::string description;
    ColoringBackendFactory factory;
  };

  // std::map keeps Names() sorted for free.
  mutable std::shared_mutex mutex;
  std::map<std::string, Entry> entries;
};

ColoringBackendRegistry::Impl* ColoringBackendRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: registry lives forever
  return impl;
}

ColoringBackendRegistry& ColoringBackendRegistry::Global() {
  static ColoringBackendRegistry* global = [] {
    auto* registry = new ColoringBackendRegistry();
    registry->Register(
        "rothko",
        "paper Algorithm 1: size-weighted worst-witness splits at the mean",
        [](const GraphView& g, Partition initial, const ColoringParams& params) {
          return std::make_unique<RothkoRefiner>(g, std::move(initial),
                                                 EngineOptions(params));
        });
    registry->Register(
        "lp-rounding",
        "witness splits as assignment LPs solved by simplex, then rounded",
        [](const GraphView& g, Partition initial, const ColoringParams& params) {
          return std::make_unique<RothkoRefiner>(
              g, std::move(initial), EngineOptions(params),
              MakeLpRoundingRule());
        });
    registry->Register(
        "bucket",
        "weighted-degree bucketing at the median rank (cheap baseline)",
        [](const GraphView& g, Partition initial, const ColoringParams& params) {
          return std::make_unique<RothkoRefiner>(
              g, std::move(initial), EngineOptions(params), MakeBucketRule(g));
        });
    return registry;
  }();
  return *global;
}

void ColoringBackendRegistry::Register(std::string name,
                                       std::string description,
                                       ColoringBackendFactory factory) {
  QSC_CHECK(factory != nullptr);
  const StatusOr<std::string> canonical = CanonicalBackendName(name);
  QSC_CHECK(canonical.ok());
  QSC_CHECK(*canonical == name);  // registration names must be canonical
  Impl* i = impl();
  std::unique_lock lock(i->mutex);
  const auto [it, inserted] = i->entries.try_emplace(
      std::move(name),
      Impl::Entry{std::move(description), std::move(factory)});
  QSC_CHECK(inserted);  // duplicate backend registration
  (void)it;
}

bool ColoringBackendRegistry::Contains(
    const std::string& canonical_name) const {
  Impl* i = impl();
  std::shared_lock lock(i->mutex);
  return i->entries.count(canonical_name) > 0;
}

std::unique_ptr<ColoringBackend> ColoringBackendRegistry::Create(
    const std::string& canonical_name, const GraphView& g, Partition initial,
    const ColoringParams& params) const {
  ColoringBackendFactory factory;
  {
    Impl* i = impl();
    std::shared_lock lock(i->mutex);
    const auto it = i->entries.find(canonical_name);
    QSC_CHECK(it != i->entries.end());  // boundary validates first
    factory = it->second.factory;
  }
  return factory(g, std::move(initial), params);
}

std::vector<std::string> ColoringBackendRegistry::Names() const {
  Impl* i = impl();
  std::shared_lock lock(i->mutex);
  std::vector<std::string> names;
  names.reserve(i->entries.size());
  for (const auto& [name, entry] : i->entries) names.push_back(name);
  return names;
}

std::string ColoringBackendRegistry::Description(
    const std::string& canonical_name) const {
  Impl* i = impl();
  std::shared_lock lock(i->mutex);
  const auto it = i->entries.find(canonical_name);
  return it == i->entries.end() ? std::string() : it->second.description;
}

}  // namespace qsc
