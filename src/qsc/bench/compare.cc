#include "qsc/bench/compare.h"

#include <algorithm>
#include <cmath>

#include "qsc/util/json.h"

namespace qsc {
namespace bench {
namespace {

// Both null (how JsonNumber renders NaN) or numbers within `rel_tol`
// relative difference (0 demands bitwise equality).
bool NumbersMatch(const JsonValue& a, const JsonValue& b, double rel_tol) {
  if (a.is_null() && b.is_null()) return true;
  if (a.kind != JsonValue::Kind::kNumber ||
      b.kind != JsonValue::Kind::kNumber) {
    return false;
  }
  if (a.number_value == b.number_value) return true;
  const double scale =
      std::max(std::abs(a.number_value), std::abs(b.number_value));
  return std::abs(a.number_value - b.number_value) <= rel_tol * scale;
}

// Checks that every member of baseline object `section` matches `current`
// within the counter tolerance (used for "params" and "counters").
void CompareExactSection(const std::string& scenario, const char* section,
                         const JsonValue* base, const JsonValue* cur,
                         double rel_tol, CompareReport* report) {
  if (base == nullptr) return;  // older baseline without the section
  if (cur == nullptr) {
    report->violations.push_back(
        {scenario, std::string(section) + " section missing in current run"});
    return;
  }
  for (const auto& [key, base_value] : base->object) {
    const JsonValue* cur_value = cur->Get(key);
    if (cur_value == nullptr) {
      report->violations.push_back(
          {scenario, std::string(section) + "." + key +
                         " missing in current run"});
      continue;
    }
    if (!NumbersMatch(base_value, *cur_value, rel_tol)) {
      report->violations.push_back(
          {scenario,
           std::string(section) + "." + key + " drifted: baseline " +
               JsonNumber(base_value.NumberOr(NAN)) + " vs current " +
               JsonNumber(cur_value->NumberOr(NAN)) +
               " (deterministic value changed; bug or stale baseline)"});
    }
  }
}

}  // namespace

CompareReport CompareBenchReports(const JsonValue& baseline,
                                  const JsonValue& current,
                                  const CompareOptions& options) {
  CompareReport report;

  const double base_schema =
      baseline.Get("schema_version") != nullptr
          ? baseline.Get("schema_version")->NumberOr(-1)
          : -1;
  const double cur_schema = current.Get("schema_version") != nullptr
                                ? current.Get("schema_version")->NumberOr(-1)
                                : -1;
  if (base_schema != cur_schema) {
    report.violations.push_back(
        {"", "schema_version mismatch: baseline " +
                 JsonNumber(base_schema) + " vs current " +
                 JsonNumber(cur_schema)});
    return report;
  }

  const JsonValue* base_scenarios = baseline.Get("scenarios");
  const JsonValue* cur_scenarios = current.Get("scenarios");
  if (base_scenarios == nullptr || cur_scenarios == nullptr) {
    report.violations.push_back({"", "missing \"scenarios\" array"});
    return report;
  }

  auto find_current = [&](const std::string& name) -> const JsonValue* {
    for (const JsonValue& s : cur_scenarios->array) {
      const JsonValue* n = s.Get("name");
      if (n != nullptr && n->kind == JsonValue::Kind::kString &&
          n->string_value == name) {
        return &s;
      }
    }
    return nullptr;
  };

  // Scenario-set asymmetries are collected and reported as one aggregate
  // violation in counters-only mode (the set mismatch is the finding, not
  // any single scenario), and per-scenario otherwise.
  std::vector<std::string> baseline_only;
  std::vector<std::string> current_only;

  for (const JsonValue& base_s : base_scenarios->array) {
    const JsonValue* name_value = base_s.Get("name");
    if (name_value == nullptr) continue;
    const std::string& name = name_value->string_value;
    const JsonValue* cur_s = find_current(name);
    if (cur_s == nullptr) {
      if (options.counters_only) {
        baseline_only.push_back(name);
      } else {
        report.violations.push_back(
            {name,
             "scenario present in baseline but missing from current run"});
      }
      continue;
    }
    ++report.compared;

    CompareExactSection(name, "params", base_s.Get("params"),
                        cur_s->Get("params"),
                        options.counter_rel_tolerance, &report);
    CompareExactSection(name, "counters", base_s.Get("counters"),
                        cur_s->Get("counters"),
                        options.counter_rel_tolerance, &report);

    if (options.counters_only) continue;  // timings deliberately ignored

    const JsonValue* base_timing = base_s.Get("timing");
    const JsonValue* cur_timing = cur_s->Get("timing");
    const double base_median =
        base_timing != nullptr && base_timing->Get("median_s") != nullptr
            ? base_timing->Get("median_s")->NumberOr(NAN)
            : NAN;
    const double cur_median =
        cur_timing != nullptr && cur_timing->Get("median_s") != nullptr
            ? cur_timing->Get("median_s")->NumberOr(NAN)
            : NAN;
    if (std::isnan(base_median) || std::isnan(cur_median)) {
      report.violations.push_back({name, "timing.median_s missing"});
      continue;
    }
    if (base_median < options.min_median_seconds) {
      report.notes.push_back(name + ": baseline median " +
                             JsonNumber(base_median) +
                             "s below gating floor; timing not compared");
      continue;
    }
    if (cur_median > options.max_slowdown * base_median) {
      report.violations.push_back(
          {name, "median slowdown " +
                     JsonNumber(cur_median / base_median) + "x (" +
                     JsonNumber(base_median) + "s -> " +
                     JsonNumber(cur_median) + "s) exceeds " +
                     JsonNumber(options.max_slowdown) + "x tolerance"});
    }
  }

  for (const JsonValue& cur_s : cur_scenarios->array) {
    const JsonValue* n = cur_s.Get("name");
    if (n == nullptr) continue;
    bool in_baseline = false;
    for (const JsonValue& base_s : base_scenarios->array) {
      const JsonValue* bn = base_s.Get("name");
      if (bn != nullptr && bn->string_value == n->string_value) {
        in_baseline = true;
        break;
      }
    }
    if (!in_baseline) {
      if (options.counters_only) {
        current_only.push_back(n->string_value);
      } else {
        report.notes.push_back(n->string_value +
                               ": new scenario (not in baseline)");
      }
    }
  }

  // Counter-identity runs come from one binary: a scenario present on one
  // side only means the two runs did different work, so the whole set
  // mismatch is one violation with every offending name spelled out.
  if (!baseline_only.empty() || !current_only.empty()) {
    std::string detail = "scenario sets differ";
    const auto append_list = [&detail](const char* label,
                                       const std::vector<std::string>& names) {
      if (names.empty()) return;
      detail += "; only in ";
      detail += label;
      detail += ": ";
      for (size_t i = 0; i < names.size(); ++i) {
        if (i > 0) detail += ", ";
        detail += names[i];
      }
    };
    append_list("baseline", baseline_only);
    append_list("current", current_only);
    detail +=
        " — counter identity needs both reports to cover the same "
        "scenarios; if scenarios were intentionally added or removed, "
        "re-record the committed baseline (docs/BENCHMARKING.md, "
        "\"Updating baselines\")";
    report.violations.push_back({"", std::move(detail)});
  }

  return report;
}

}  // namespace bench
}  // namespace qsc
