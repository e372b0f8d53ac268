// Benchmark inputs: the workload plan (query specs, per-client query
// sequences, edit batches) and the files it names. Everything here is a
// pure function of (workload, seed); the measured process reads only the
// files GenerateInputs writes.

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph.h"
#include "qsc/util/status.h"

namespace e2e {

// One Compressor query kind. The names are the ones the samples and the
// per-layer kind.<kind>.* metrics use.
enum class Kind { kMaxFlow, kMaxFlowBatch, kColoring, kSolveLp, kCentrality };
const char* KindName(Kind kind);

// One query the workload issues, possibly many times.
struct QuerySpec {
  int id = 0;
  Kind kind = Kind::kColoring;
  qsc::ColorId max_colors = 64;
  double q_tolerance = 0.0;
  std::string backend;       // "" = the default backend
  bool lower_bound = false;  // MaxFlow: also compute the Theorem-6 c^1 bound
  // MaxFlow: one pair; MaxFlowBatch: the batch; otherwise empty.
  std::vector<std::pair<qsc::NodeId, qsc::NodeId>> pairs;
};

// The options the Compressor receives for `spec` (area defaults for
// alpha/beta, so Coloring/MaxFlow use 0/0, Centrality 1/1, SolveLp 1/0).
qsc::QueryOptions OptionsFor(const QuerySpec& spec);

struct Plan {
  std::string workload;
  // qsc-bin files, relative to the plan's directory. One graph, except for
  // cold-refine, whose passes cycle through several.
  std::vector<std::string> graph_files;
  bool mmap = false;       // serve through Compressor::FromFile
  std::string lp_file;     // SolveLp instance (lp text), "" = none
  int clients = 1;         // closed-loop client threads
  int setups = 1;          // load + warm repetitions for the setup_s median
  std::vector<QuerySpec> specs;  // indexed by id
  std::vector<int> warm;         // specs warmed during setup
  // warm-mixed: one query sequence per client, cycled.
  std::vector<std::vector<int>> mixes;
  // cold-refine: the queries of one pass, in order, on a fresh session.
  std::vector<int> pass;
  // edit-churn: the query set every round runs after its edit batch.
  std::vector<int> round;
  // Edit batches (edit-churn rounds; the warm-mixed edit epilogue; the
  // batches after every cold-refine pass). Split into one equal consecutive
  // share per graph file; graph g's share is valid in order on graph g.
  std::vector<std::vector<qsc::dynamic::EditOp>> edit_batches;
};

qsc::Status WritePlan(const Plan& plan, const std::string& path);
qsc::StatusOr<Plan> ReadPlan(const std::string& path);

// The size of each graph's share of plan.edit_batches: graph g's batch i is
// edit_batches[g * BatchesPerGraph(plan) + i].
size_t BatchesPerGraph(const Plan& plan);

// The workloads GenerateInputs knows.
std::vector<std::string> WorkloadNames();

// Generates the workload's graph (and LP) files into `dir` from `seed`
// and writes `dir`/plan.txt. Unknown workload: InvalidArgument.
qsc::Status GenerateInputs(const std::string& workload, uint64_t seed,
                           const std::string& dir);

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
