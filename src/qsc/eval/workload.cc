#include "qsc/eval/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qsc/coloring/backend.h"
#include "qsc/eval/pipelines.h"
#include "qsc/flow/dinic.h"
#include "qsc/flow/edmonds_karp.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/lp/interior_point.h"
#include "qsc/util/check.h"
#include "qsc/util/json.h"

namespace qsc {
namespace eval {

const char* ApplicationName(Application area) {
  switch (area) {
    case Application::kMaxFlow:
      return "maxflow";
    case Application::kLp:
      return "lp";
    case Application::kCentrality:
      return "centrality";
  }
  return "unknown";
}

const char* FlowSolverName(FlowSolver solver) {
  switch (solver) {
    case FlowSolver::kDinic:
      return "dinic";
    case FlowSolver::kEdmondsKarp:
      return "edmonds-karp";
    case FlowSolver::kPushRelabel:
      return "push-relabel";
  }
  return "unknown";
}

double SolveMaxFlowExact(FlowSolver solver, const Graph& g, NodeId source,
                         NodeId sink) {
  switch (solver) {
    case FlowSolver::kDinic:
      return MaxFlowDinic(g, source, sink);
    case FlowSolver::kEdmondsKarp:
      return MaxFlowEdmondsKarp(g, source, sink);
    case FlowSolver::kPushRelabel:
      return MaxFlowPushRelabel(g, source, sink);
  }
  QSC_CHECK(false);
  return 0.0;
}

const char* LpOracleName(LpOracle oracle) {
  switch (oracle) {
    case LpOracle::kSimplex:
      return "simplex";
    case LpOracle::kInteriorPoint:
      return "interior-point";
  }
  return "unknown";
}

LpResult SolveLpExact(LpOracle oracle, const LpProblem& lp) {
  switch (oracle) {
    case LpOracle::kSimplex:
      return SolveSimplex(lp);
    case LpOracle::kInteriorPoint: {
      const IpmResult ipm = SolveInteriorPoint(lp);
      LpResult out;
      out.status = ipm.status;
      out.objective = ipm.objective;
      out.x = ipm.x;
      out.iterations = ipm.iterations;
      return out;
    }
  }
  QSC_CHECK(false);
  return {};
}

namespace {

// Bitwise comparison that treats NaN == NaN (both "not applicable").
bool SameValue(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return a == b;
}

}  // namespace

bool MetricsEquivalent(const RunMetrics& a, const RunMetrics& b) {
  return a.color_budget == b.color_budget && a.num_colors == b.num_colors &&
         SameValue(a.max_q, b.max_q) &&
         SameValue(a.exact_value, b.exact_value) &&
         SameValue(a.approx_value, b.approx_value) &&
         SameValue(a.lower_bound, b.lower_bound) &&
         SameValue(a.relative_error, b.relative_error) &&
         SameValue(a.rank_correlation, b.rank_correlation);
}

void WriteResultJson(const WorkloadResult& result, JsonWriter& w) {
  w.BeginObject();
  w.KV("workload", result.workload);
  w.KV("area", ApplicationName(result.area));
  w.KV("seed", result.seed);
  w.KV("backend", result.backend.empty() ? std::string(kDefaultColoringBackend)
                                         : result.backend);
  w.Key("runs");
  w.BeginArray();
  for (const RunMetrics& m : result.runs) {
    w.BeginObject();
    w.KV("color_budget", m.color_budget);
    w.KV("num_colors", m.num_colors);
    w.Key("metrics");
    w.BeginObject();
    w.KV("max_q", m.max_q);
    w.KV("exact_value", m.exact_value);
    w.KV("approx_value", m.approx_value);
    w.KV("lower_bound", m.lower_bound);
    w.KV("relative_error", m.relative_error);
    w.KV("rank_correlation", m.rank_correlation);
    w.EndObject();
    w.Key("timing");
    w.BeginObject();
    w.KV("exact_seconds", m.exact_seconds);
    w.KV("approx_seconds", m.approx_seconds);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

std::vector<ColorId> NormalizeBudgets(std::vector<ColorId> budgets) {
  QSC_CHECK(!budgets.empty());
  std::sort(budgets.begin(), budgets.end());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  return budgets;
}

std::vector<ColorId> Workload::BudgetsFor(const EvalOptions& options) const {
  return NormalizeBudgets(options.color_budgets.empty()
                              ? info_.default_budgets
                              : options.color_budgets);
}

FlowWorkload::FlowWorkload(WorkloadInfo info, Generator generator)
    : Workload(std::move(info)), generator_(std::move(generator)) {}

FlowInstance FlowWorkload::Instantiate(uint64_t seed) const {
  Rng rng(seed);
  return generator_(rng);
}

WorkloadResult FlowWorkload::Run(const EvalOptions& options) const {
  WorkloadResult result{name(), area(), options.seed, {}, options.backend};
  const FlowInstance instance = Instantiate(options.seed);
  result.runs = RunMaxFlowPipeline(instance, options, BudgetsFor(options));
  return result;
}

LpWorkload::LpWorkload(WorkloadInfo info, Generator generator)
    : Workload(std::move(info)), generator_(std::move(generator)) {}

LpProblem LpWorkload::Instantiate(uint64_t seed) const {
  Rng rng(seed);
  return generator_(rng);
}

WorkloadResult LpWorkload::Run(const EvalOptions& options) const {
  WorkloadResult result{name(), area(), options.seed, {}, options.backend};
  const LpProblem lp = Instantiate(options.seed);
  result.runs = RunLpPipeline(lp, options, BudgetsFor(options));
  return result;
}

CentralityWorkload::CentralityWorkload(WorkloadInfo info, Generator generator)
    : Workload(std::move(info)), generator_(std::move(generator)) {}

Graph CentralityWorkload::Instantiate(uint64_t seed) const {
  Rng rng(seed);
  return generator_(rng);
}

WorkloadResult CentralityWorkload::Run(const EvalOptions& options) const {
  WorkloadResult result{name(), area(), options.seed, {}, options.backend};
  const Graph g = Instantiate(options.seed);
  result.runs = RunCentralityPipeline(g, options, BudgetsFor(options));
  return result;
}

WorkloadRegistry& WorkloadRegistry::Global() {
  static WorkloadRegistry* registry = new WorkloadRegistry();
  return *registry;
}

void WorkloadRegistry::Register(std::unique_ptr<const Workload> workload) {
  QSC_CHECK(workload != nullptr);
  QSC_CHECK(Find(workload->name()) == nullptr);  // names are unique
  workloads_.push_back(std::move(workload));
}

const Workload* WorkloadRegistry::Find(const std::string& name) const {
  for (const auto& w : workloads_) {
    if (w->name() == name) return w.get();
  }
  return nullptr;
}

std::vector<const Workload*> WorkloadRegistry::List() const {
  std::vector<const Workload*> out;
  out.reserve(workloads_.size());
  for (const auto& w : workloads_) out.push_back(w.get());
  std::sort(out.begin(), out.end(),
            [](const Workload* a, const Workload* b) {
              return a->name() < b->name();
            });
  return out;
}

}  // namespace eval
}  // namespace qsc
