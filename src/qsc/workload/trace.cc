#include "qsc/workload/trace.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "qsc/util/check.h"
#include "qsc/util/json.h"
#include "qsc/util/random.h"

namespace qsc {
namespace workload {
namespace {

constexpr const char* kHeaderV1 = "qsc-trace v1";
constexpr const char* kHeaderV2 = "qsc-trace v2";

const char* const kKindNames[kNumTraceEventKinds] = {
    "coloring", "maxflow", "maxflow-batch", "solvelp", "centrality",
    "insert",   "delete",  "update"};

// Zipf(s) sampler over ranks [0, n): cumulative weights built once, one
// uniform draw per sample. For the default s = 1 the weights are exact
// IEEE divisions (1.0 / rank), so the cumulative table — and therefore
// every sampled index — is bit-identical on every platform; other
// exponents go through std::pow.
class ZipfSampler {
 public:
  ZipfSampler(int32_t n, double s) {
    cumulative_.reserve(n);
    double total = 0.0;
    for (int32_t i = 0; i < n; ++i) {
      const double rank = static_cast<double>(i + 1);
      total += s == 1.0 ? 1.0 / rank : 1.0 / std::pow(rank, s);
      cumulative_.push_back(total);
    }
  }

  int32_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble() * cumulative_.back();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    const size_t index = static_cast<size_t>(it - cumulative_.begin());
    return static_cast<int32_t>(
        std::min(index, cumulative_.size() - 1));
  }

 private:
  std::vector<double> cumulative_;
};

// The two built-in arrival models share one generator; they differ only
// in how interarrival gaps are drawn.
enum class ArrivalModel { kPoisson, kBursty };

// Draw order per event is part of the format contract: kind, spec,
// budget (no draw — a per-spec ascending cycle), then the interarrival
// gap. The gap is the only draw whose *value* touches libm (std::log), so
// the discrete fields — everything the deterministic serving counters are
// built from — are platform-exact, while arrival times are exact up to
// libm's last-ulp freedom.
class MixedTraceSource final : public TraceSource {
 public:
  MixedTraceSource(ArrivalModel model, const TraceGenOptions& options)
      : model_(model),
        options_(options),
        rng_(options.seed),
        edit_rng_(options.seed ^ 0x9e3779b97f4a7c15ull),
        zipf_(options.num_specs, options.zipf_s),
        budget_cursor_(options.num_specs, 0) {
    double total = 0.0;
    for (const double w : options_.kind_weights) {
      total += w;
      kind_cumulative_.push_back(total);
    }
  }

  bool Next(TraceEvent* event) override {
    if (emitted_ >= options_.num_events) return false;
    ++emitted_;

    // Every (edit_interval + 1)-th event is an edit batch. Its gap comes
    // from a dedicated rng stream, so the query subsequence — kinds,
    // specs, budgets, AND gaps — is exactly the edits-off trace.
    if (options_.edit_interval > 0 &&
        emitted_ % (options_.edit_interval + 1) == 0) {
      event->kind = static_cast<QueryKind>(
          kNumQueryKinds + static_cast<int>(edits_emitted_ % 3));
      event->budget = options_.edits_per_batch;
      event->spec_index = static_cast<int32_t>(edits_emitted_);
      event->batch_size = 1;
      ++edits_emitted_;
      clock_ += Exponential(edit_rng_, options_.mean_interarrival_seconds);
      event->arrival_seconds = clock_;
      return true;
    }

    event->kind = SampleKind();
    event->spec_index = zipf_.Sample(rng_);
    auto& cursor = budget_cursor_[event->spec_index];
    event->budget =
        options_.budgets[cursor % options_.budgets.size()];
    ++cursor;
    event->batch_size =
        event->kind == QueryKind::kMaxFlowBatch ? options_.batch_size : 1;

    AdvanceClock();
    event->arrival_seconds = clock_;
    return true;
  }

 private:
  void AdvanceClock() {
    double mean = options_.mean_interarrival_seconds;
    if (model_ == ArrivalModel::kBursty) {
      mean /= options_.burst_speedup;
      if (in_burst_ == options_.burst_length) {
        in_burst_ = 0;
        clock_ += Exponential(rng_, options_.idle_gap_seconds);
      }
      ++in_burst_;
    }
    clock_ += Exponential(rng_, mean);
  }

  QueryKind SampleKind() {
    const double u = rng_.UniformDouble() * kind_cumulative_.back();
    for (size_t i = 0; i < kind_cumulative_.size(); ++i) {
      if (u < kind_cumulative_[i]) return static_cast<QueryKind>(i);
    }
    return static_cast<QueryKind>(kind_cumulative_.size() - 1);
  }

  static double Exponential(Rng& rng, double mean) {
    if (mean <= 0.0) return 0.0;
    // 1 - u lies in (0, 1], so the log is finite and the gap positive.
    return -mean * std::log(1.0 - rng.UniformDouble());
  }

  const ArrivalModel model_;
  const TraceGenOptions options_;
  Rng rng_;
  Rng edit_rng_;  // edit-event gaps only; keeps the query stream untouched
  ZipfSampler zipf_;
  std::vector<double> kind_cumulative_;
  std::vector<uint32_t> budget_cursor_;  // per-spec ascending budget cycle
  int64_t emitted_ = 0;
  int64_t edits_emitted_ = 0;  // running edit counter (the spec-column salt)
  int32_t in_burst_ = 0;
  double clock_ = 0.0;
};

class ReplaySource final : public TraceSource {
 public:
  explicit ReplaySource(std::vector<TraceEvent> events)
      : events_(std::move(events)) {}

  bool Next(TraceEvent* event) override {
    if (next_ >= events_.size()) return false;
    *event = events_[next_++];
    return true;
  }

 private:
  std::vector<TraceEvent> events_;
  size_t next_ = 0;
};

Status ValidateGenOptions(const TraceGenOptions& o) {
  if (o.num_events < 0) {
    return Status::InvalidArgument("num_events must be >= 0; got " +
                                   std::to_string(o.num_events));
  }
  if (o.num_specs < 1) {
    return Status::InvalidArgument("num_specs must be >= 1; got " +
                                   std::to_string(o.num_specs));
  }
  if (!std::isfinite(o.zipf_s) || o.zipf_s < 0.0) {
    return Status::InvalidArgument("zipf_s must be finite and >= 0; got " +
                                   std::to_string(o.zipf_s));
  }
  if (!std::isfinite(o.mean_interarrival_seconds) ||
      o.mean_interarrival_seconds <= 0.0) {
    return Status::InvalidArgument(
        "mean_interarrival_seconds must be finite and positive; got " +
        std::to_string(o.mean_interarrival_seconds));
  }
  if (o.burst_length < 1) {
    return Status::InvalidArgument("burst_length must be >= 1; got " +
                                   std::to_string(o.burst_length));
  }
  if (!std::isfinite(o.burst_speedup) || o.burst_speedup < 1.0) {
    return Status::InvalidArgument(
        "burst_speedup must be finite and >= 1; got " +
        std::to_string(o.burst_speedup));
  }
  if (!std::isfinite(o.idle_gap_seconds) || o.idle_gap_seconds < 0.0) {
    return Status::InvalidArgument(
        "idle_gap_seconds must be finite and >= 0; got " +
        std::to_string(o.idle_gap_seconds));
  }
  if (o.budgets.empty()) {
    return Status::InvalidArgument("budgets must be non-empty");
  }
  for (const ColorId b : o.budgets) {
    if (b <= 0) {
      return Status::InvalidArgument("budgets must be positive; got " +
                                     std::to_string(b));
    }
  }
  if (o.kind_weights.size() != static_cast<size_t>(kNumQueryKinds)) {
    return Status::InvalidArgument(
        "kind_weights must have exactly " + std::to_string(kNumQueryKinds) +
        " entries; got " + std::to_string(o.kind_weights.size()));
  }
  double total = 0.0;
  for (const double w : o.kind_weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "kind_weights must be finite and >= 0; got " + std::to_string(w));
    }
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument(
        "kind_weights must have at least one positive entry");
  }
  if (o.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1; got " +
                                   std::to_string(o.batch_size));
  }
  if (o.edit_interval < 0) {
    return Status::InvalidArgument("edit_interval must be >= 0; got " +
                                   std::to_string(o.edit_interval));
  }
  if (o.edits_per_batch < 1) {
    return Status::InvalidArgument("edits_per_batch must be >= 1; got " +
                                   std::to_string(o.edits_per_batch));
  }
  return Status::Ok();
}

Status LineError(size_t line_number, const std::string& what) {
  return Status::InvalidArgument("trace line " + std::to_string(line_number) +
                                 ": " + what);
}

// Splits `line` on runs of spaces/tabs (a trailing '\r' was stripped by
// the caller).
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

bool ParseDoubleToken(const std::string& token, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty() || errno != 0) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseIntToken(const std::string& token, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || token.empty() || errno != 0) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

}  // namespace

TraceSource::~TraceSource() = default;

const char* QueryKindName(QueryKind kind) {
  const int index = static_cast<int>(kind);
  QSC_CHECK(index >= 0 && index < kNumTraceEventKinds);
  return kKindNames[index];
}

std::vector<std::string> TraceGeneratorNames() {
  return {"bursty-zipf-mixed", "poisson-zipf-mixed"};
}

StatusOr<std::unique_ptr<TraceSource>> MakeTraceSource(
    const std::string& name, const TraceGenOptions& options) {
  ArrivalModel model;
  if (name == "poisson-zipf-mixed") {
    model = ArrivalModel::kPoisson;
  } else if (name == "bursty-zipf-mixed") {
    model = ArrivalModel::kBursty;
  } else {
    return Status::NotFound("unknown trace generator \"" + name +
                            "\" (known: bursty-zipf-mixed, "
                            "poisson-zipf-mixed)");
  }
  QSC_RETURN_IF_ERROR(ValidateGenOptions(options));
  return std::unique_ptr<TraceSource>(
      std::make_unique<MixedTraceSource>(model, options));
}

std::unique_ptr<TraceSource> ReplayTraceSource(
    std::vector<TraceEvent> events) {
  return std::make_unique<ReplaySource>(std::move(events));
}

std::vector<TraceEvent> DrainTrace(TraceSource& source) {
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (source.Next(&event)) events.push_back(event);
  return events;
}

std::string FormatTrace(const std::vector<TraceEvent>& events) {
  // The header is the lowest version that can express the events, so a
  // pure-query trace stays byte-identical to the v1 serializer.
  bool has_edits = false;
  for (const TraceEvent& e : events) has_edits |= IsEditEvent(e.kind);
  std::string out = has_edits ? kHeaderV2 : kHeaderV1;
  out += '\n';
  for (const TraceEvent& e : events) {
    out += JsonNumber(e.arrival_seconds);
    out += ' ';
    out += QueryKindName(e.kind);
    out += ' ';
    out += std::to_string(e.budget);
    out += ' ';
    out += std::to_string(e.spec_index);
    out += ' ';
    out += std::to_string(e.batch_size);
    out += '\n';
  }
  return out;
}

StatusOr<std::vector<TraceEvent>> ParseTrace(std::string_view text) {
  std::vector<TraceEvent> events;
  bool saw_header = false;
  bool v2 = false;
  double last_arrival = -std::numeric_limits<double>::infinity();
  size_t line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t newline = text.find('\n', pos);
    if (newline == std::string_view::npos) {
      if (pos == text.size()) break;  // no trailing fragment
      newline = text.size();
    }
    std::string_view line = text.substr(pos, newline - pos);
    pos = newline + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    // Blank and comment lines are ignored everywhere.
    const size_t first =
        line.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;
    if (line[first] == '#') continue;

    if (!saw_header) {
      if (line != kHeaderV1 && line != kHeaderV2) {
        return LineError(line_number,
                         "expected header \"" + std::string(kHeaderV1) +
                             "\" or \"" + std::string(kHeaderV2) +
                             "\"; got \"" + std::string(line) + "\"");
      }
      v2 = line == kHeaderV2;
      saw_header = true;
      continue;
    }

    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.size() != 5) {
      return LineError(line_number, "expected 5 fields "
                                    "(arrival kind budget spec batch); got " +
                                        std::to_string(tokens.size()));
    }

    TraceEvent event;
    if (!ParseDoubleToken(tokens[0], &event.arrival_seconds) ||
        !std::isfinite(event.arrival_seconds) ||
        event.arrival_seconds < 0.0) {
      return LineError(line_number, "arrival_seconds must be a finite "
                                    "non-negative number; got \"" +
                                        tokens[0] + "\"");
    }
    if (event.arrival_seconds < last_arrival) {
      return LineError(line_number,
                       "arrival_seconds must be non-decreasing; " +
                           tokens[0] + " follows " +
                           JsonNumber(last_arrival));
    }
    last_arrival = event.arrival_seconds;

    int kind = 0;
    for (; kind < kNumTraceEventKinds; ++kind) {
      if (tokens[1] == kKindNames[kind]) break;
    }
    if (kind == kNumTraceEventKinds) {
      return LineError(line_number,
                       "unknown query kind \"" + tokens[1] + "\"");
    }
    event.kind = static_cast<QueryKind>(kind);
    if (IsEditEvent(event.kind) && !v2) {
      return LineError(line_number, "edit event \"" + tokens[1] +
                                        "\" requires the \"" +
                                        std::string(kHeaderV2) + "\" header");
    }

    int64_t value = 0;
    if (!ParseIntToken(tokens[2], &value) || value <= 0 ||
        value > std::numeric_limits<ColorId>::max()) {
      return LineError(line_number, "budget must be a positive 32-bit "
                                    "integer; got \"" +
                                        tokens[2] + "\"");
    }
    event.budget = static_cast<ColorId>(value);

    if (!ParseIntToken(tokens[3], &value) || value < 0 ||
        value > std::numeric_limits<int32_t>::max()) {
      return LineError(line_number, "spec must be a non-negative 32-bit "
                                    "integer; got \"" +
                                        tokens[3] + "\"");
    }
    event.spec_index = static_cast<int32_t>(value);

    if (!ParseIntToken(tokens[4], &value) || value < 1 ||
        value > std::numeric_limits<int32_t>::max()) {
      return LineError(line_number, "batch must be a positive 32-bit "
                                    "integer; got \"" +
                                        tokens[4] + "\"");
    }
    event.batch_size = static_cast<int32_t>(value);

    events.push_back(event);
  }

  if (!saw_header) {
    return Status::InvalidArgument(
        "trace is missing the \"" + std::string(kHeaderV1) + "\" header");
  }
  return events;
}

}  // namespace workload
}  // namespace qsc
