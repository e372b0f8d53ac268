// The evaluation harness's workload layer (ROADMAP "one place to add
// scenarios"). The paper's claims are all relative — a reduced-graph
// answer is judged against an exact solver under an error budget — so
// every experiment shares one pipeline shape:
//
//   instance (generator or dataset, keyed by a uint64 seed)
//     -> exact oracle (timed)
//     -> quasi-stable coloring at a sweep of color budgets
//     -> approximate solve per budget
//     -> error metrics (q-error, relative value error, rank correlation)
//
// A Workload packages the instance source and default sweep for one named
// scenario; the WorkloadRegistry makes scenarios addressable from the
// qsc_eval CLI, the qsc_bench scenarios, and the differential test layer.
// All randomness flows through qsc::Rng seeded from EvalOptions::seed, so a
// (workload, seed, budgets) triple is bit-reproducible.

#ifndef QSC_EVAL_WORKLOAD_H_
#define QSC_EVAL_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"
#include "qsc/lp/simplex.h"

namespace qsc {

class JsonWriter;
class ThreadPool;

namespace eval {

// The three application areas of the paper's evaluation (Secs. 6-8).
enum class Application { kMaxFlow, kLp, kCentrality };
const char* ApplicationName(Application area);

// Exact max-flow oracles (paper Sec 6.1 baseline is push-relabel; the
// others serve as differential witnesses).
enum class FlowSolver { kDinic, kEdmondsKarp, kPushRelabel };
const char* FlowSolverName(FlowSolver solver);
double SolveMaxFlowExact(FlowSolver solver, const Graph& g, NodeId source,
                         NodeId sink);

// Exact LP oracles (the paper's baseline is an interior-point solver;
// simplex is the differential witness).
enum class LpOracle { kSimplex, kInteriorPoint };
const char* LpOracleName(LpOracle oracle);
LpResult SolveLpExact(LpOracle oracle, const LpProblem& lp);

// Cross-cutting run configuration. Everything that influences metric
// values is deterministic given this struct; wall-clock timings are the
// only nondeterministic outputs.
struct EvalOptions {
  uint64_t seed = 1;

  // Color budgets to sweep; empty means the workload's default sweep.
  std::vector<ColorId> color_budgets;

  FlowSolver flow_solver = FlowSolver::kPushRelabel;
  LpOracle lp_oracle = LpOracle::kInteriorPoint;

  // Split-mean rule for the colorings (paper Sec 5.2).
  RothkoOptions::SplitMean split_mean =
      RothkoOptions::SplitMean::kArithmetic;

  // Compression backend producing the colorings (coloring/backend.h); ""
  // means the default (rothko). Must canonicalize to a registered name —
  // the pipelines route it through the Compressor boundary, which
  // validates. Part of every metric value's provenance: different
  // backends give different colorings and therefore different metrics.
  std::string backend;

  // Also compute the Theorem-6 lower bound for max-flow workloads
  // (expensive: one maxUFlow bisection per color pair).
  bool compute_flow_lower_bound = false;

  // Optional worker pool for the pipeline sessions (qsc_eval --threads).
  // Not owned. Metric values are bit-identical for any pool size — the
  // qsc/parallel determinism contract — so this is pure wall-clock.
  ThreadPool* pool = nullptr;
};

// Metrics for one (instance, color budget) pipeline run. Fields that do
// not apply to an area are NaN and serialize to JSON null.
struct RunMetrics {
  ColorId color_budget = 0;  // requested budget
  ColorId num_colors = 0;    // achieved colors (LP: rows + cols + pinned)

  // Max q-error of the coloring (for LPs: of the extended-matrix graph).
  double max_q = 0.0;

  double exact_value = 0.0;   // oracle objective / flow value (NaN: n/a)
  double approx_value = 0.0;  // reduced-problem value (NaN: n/a)
  double lower_bound = 0.0;   // Theorem-6 flow lower bound (NaN unless on)

  // Paper error metrics: max(v/v^, v^/v) for flow and LP values, Spearman
  // rank correlation for centrality.
  double relative_error = 0.0;
  double rank_correlation = 0.0;

  // Wall-clock seconds; excluded from reproducibility comparisons.
  double exact_seconds = 0.0;
  double approx_seconds = 0.0;
};

// True iff every metric value (not timing) of `a` and `b` is bitwise
// identical; the reproducibility contract of a fixed (workload, seed).
bool MetricsEquivalent(const RunMetrics& a, const RunMetrics& b);

// Canonical budget sweep: sorted ascending, duplicates removed; aborts on
// an empty list. Shared by Workload::Run, the pipeline drivers, and the
// differential runner so every consumer agrees on the sweep.
std::vector<ColorId> NormalizeBudgets(std::vector<ColorId> budgets);

struct WorkloadResult {
  std::string workload;
  Application area = Application::kMaxFlow;
  uint64_t seed = 0;
  std::vector<RunMetrics> runs;  // one per budget, ascending
  // Coloring backend the runs used, as recorded from EvalOptions::backend
  // ("" = default; WriteResultJson serializes the canonical default name).
  std::string backend;
};

// Serializes `result` as one JSON object onto `w` (metrics and timings in
// separate sub-objects so reproducible fields are easy to diff).
void WriteResultJson(const WorkloadResult& result, JsonWriter& w);

// Description of a registered scenario.
struct WorkloadInfo {
  std::string name;  // "<area>/<scenario>", e.g. "maxflow/seg-grid"
  Application area = Application::kMaxFlow;
  std::string description;
  std::vector<ColorId> default_budgets;
};

// One named scenario. Concrete subclasses bind an instance generator; Run
// executes the full differential pipeline against the area's exact oracle.
class Workload {
 public:
  virtual ~Workload() = default;

  const WorkloadInfo& info() const { return info_; }
  const std::string& name() const { return info_.name; }
  Application area() const { return info_.area; }

  // Instantiates the scenario at options.seed and sweeps the pipeline over
  // the budgets (options.color_budgets or the default sweep), ascending.
  virtual WorkloadResult Run(const EvalOptions& options) const = 0;

 protected:
  explicit Workload(WorkloadInfo info) : info_(std::move(info)) {}

  // Budgets to use for `options`, sorted ascending.
  std::vector<ColorId> BudgetsFor(const EvalOptions& options) const;

 private:
  WorkloadInfo info_;
};

// Max-flow scenario: a generator producing a capacitated network from a
// seeded Rng. Dataset-style scenarios ignore the Rng.
class FlowWorkload : public Workload {
 public:
  using Generator = std::function<FlowInstance(Rng& rng)>;

  FlowWorkload(WorkloadInfo info, Generator generator);

  FlowInstance Instantiate(uint64_t seed) const;
  WorkloadResult Run(const EvalOptions& options) const override;

 private:
  Generator generator_;
};

class LpWorkload : public Workload {
 public:
  using Generator = std::function<LpProblem(Rng& rng)>;

  LpWorkload(WorkloadInfo info, Generator generator);

  LpProblem Instantiate(uint64_t seed) const;
  WorkloadResult Run(const EvalOptions& options) const override;

 private:
  Generator generator_;
};

class CentralityWorkload : public Workload {
 public:
  using Generator = std::function<Graph(Rng& rng)>;

  CentralityWorkload(WorkloadInfo info, Generator generator);

  Graph Instantiate(uint64_t seed) const;
  WorkloadResult Run(const EvalOptions& options) const override;

 private:
  Generator generator_;
};

// Process-wide name -> workload map. Registration is append-only; names
// must be unique.
class WorkloadRegistry {
 public:
  static WorkloadRegistry& Global();

  void Register(std::unique_ptr<const Workload> workload);

  // nullptr when absent.
  const Workload* Find(const std::string& name) const;

  // All workloads, sorted by name.
  std::vector<const Workload*> List() const;

 private:
  WorkloadRegistry() = default;
  std::vector<std::unique_ptr<const Workload>> workloads_;
};

}  // namespace eval
}  // namespace qsc

#endif  // QSC_EVAL_WORKLOAD_H_
