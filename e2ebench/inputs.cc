#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <numeric>

#include "qsc/graph/generators.h"
#include "qsc/graph/io.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/io.h"
#include "qsc/util/random.h"

namespace e2e {
namespace {

using qsc::ColorId;
using qsc::Graph;
using qsc::NodeId;
using qsc::Status;
using qsc::StatusOr;

constexpr Kind kAllKinds[] = {Kind::kMaxFlow, Kind::kMaxFlowBatch,
                              Kind::kColoring, Kind::kSolveLp,
                              Kind::kCentrality};

// Per-workload salts keep the three workloads' graphs independent for one
// --seed.
constexpr uint64_t kWarmSalt = 0x5741524d;   // "WARM"
constexpr uint64_t kColdSalt = 0x434f4c44;   // "COLD"
constexpr uint64_t kChurnSalt = 0x43485552;  // "CHUR"

// Edit batches: 16 mixed single-edge edits each (dynamic::GenerateEditBatches
// defaults for the kind odds and weights).
constexpr int64_t kEditsPerBatch = 16;

Graph DirectedBarabasiAlbert(NodeId n, qsc::Rng& rng) {
  const Graph ba = qsc::BarabasiAlbert(n, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

// The `count` highest-out-degree nodes (ties by id), shuffled by `rng` and
// paired up: hub-to-hub max-flow queries, which a 64-color coloring of a
// BA graph answers exactly.
std::vector<std::pair<NodeId, NodeId>> HubPairs(const Graph& g, int num_pairs,
                                                qsc::Rng& rng) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  const size_t hubs = static_cast<size_t>(4 * num_pairs);
  std::partial_sort(nodes.begin(), nodes.begin() + hubs, nodes.end(),
                    [&](NodeId a, NodeId b) {
                      const int64_t da = g.OutDegree(a), db = g.OutDegree(b);
                      return da != db ? da > db : a < b;
                    });
  nodes.resize(hubs);
  rng.Shuffle(nodes);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < num_pairs; ++i) {
    pairs.push_back({nodes[2 * i], nodes[2 * i + 1]});
  }
  return pairs;
}

QuerySpec Spec(Plan& plan, Kind kind, ColorId max_colors) {
  QuerySpec spec;
  spec.id = static_cast<int>(plan.specs.size());
  spec.kind = kind;
  spec.max_colors = max_colors;
  return spec;
}

int Add(Plan& plan, QuerySpec spec) {
  plan.specs.push_back(std::move(spec));
  return plan.specs.back().id;
}

// A seeded sequence with exact per-block proportions: every block of
// sum(counts) queries holds counts[i] copies of ids[i], shuffled. Fixing the
// composition per block keeps the work mix (and so the throughput) the same
// across seeds; only the order is drawn.
std::vector<int> BlockShuffledSequence(const std::vector<int>& ids,
                                       const std::vector<int>& counts,
                                       int num_blocks, qsc::Rng& rng) {
  std::vector<int> block;
  for (size_t i = 0; i < ids.size(); ++i) {
    block.insert(block.end(), counts[i], ids[i]);
  }
  std::vector<int> out;
  for (int b = 0; b < num_blocks; ++b) {
    rng.Shuffle(block);
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

// Appends `num_batches` batches, valid in order on `g`, to the plan's edit
// batches.
Status AddEditBatches(const Graph& g, uint64_t seed, int64_t num_batches,
                      Plan& plan) {
  qsc::dynamic::EditStreamOptions stream;
  stream.seed = seed;
  stream.num_batches = num_batches;
  stream.edits_per_batch = kEditsPerBatch;
  StatusOr<std::vector<std::vector<qsc::dynamic::EditOp>>> batches =
      qsc::dynamic::GenerateEditBatches(g, stream);
  if (!batches.ok()) return batches.status();
  for (auto& batch : *batches) plan.edit_batches.push_back(std::move(batch));
  return Status::Ok();
}

// --- warm-mixed-ba100k ----------------------------------------------------
//
// BA-100k served zero-copy from its qsc-bin file. Setup warms every spec;
// the measured phase is 3 closed-loop clients drawing a Zipf mix over the
// warm specs, so every query is a cache hit.
Status GenerateWarmMixed(uint64_t seed, const std::string& dir, Plan& plan) {
  qsc::Rng rng(seed ^ kWarmSalt);
  const Graph g = DirectedBarabasiAlbert(100000, rng);
  const std::vector<std::pair<NodeId, NodeId>> pairs = HubPairs(g, 4, rng);

  plan.mmap = true;
  plan.clients = 3;
  plan.setups = 3;

  std::vector<int> flows;
  for (const auto& pair : pairs) {
    QuerySpec flow = Spec(plan, Kind::kMaxFlow, 64);
    flow.pairs = {pair};
    flows.push_back(Add(plan, flow));
  }
  QuerySpec batch = Spec(plan, Kind::kMaxFlowBatch, 64);
  batch.pairs = pairs;
  const int batch_id = Add(plan, batch);
  const int coloring_id = Add(plan, Spec(plan, Kind::kColoring, 256));
  const int lp_id = Add(plan, Spec(plan, Kind::kSolveLp, 64));
  const int centrality_id = Add(plan, Spec(plan, Kind::kCentrality, 8));
  for (const QuerySpec& spec : plan.specs) plan.warm.push_back(spec.id);

  // Zipf (s = 1) over a fixed rank order, 100 queries per block, plus two
  // Centrality queries per block: a Centrality hit costs about as much as
  // 20 MaxFlow hits, which keeps every kind near or below half the busy
  // time. A 15 s run serves 1000-9999 queries, so the tail statistic
  // stays at p99.
  const std::vector<int> ranked = {flows[0], flows[1], coloring_id, lp_id,
                                   flows[2], batch_id, flows[3]};
  const std::vector<int> zipf_counts = {39, 19, 13, 10, 8, 6, 5};
  std::vector<int> ids = ranked;
  std::vector<int> counts = zipf_counts;
  ids.push_back(centrality_id);
  counts.push_back(2);
  for (int c = 0; c < plan.clients; ++c) {
    plan.mixes.push_back(BlockShuffledSequence(ids, counts, 60, rng));
  }

  const qsc::LpProblem lp = qsc::MakeQapLikeLp(8, rng.Next());
  plan.graph_files = {"graph.qsc"};
  plan.lp_file = "lp.txt";
  QSC_RETURN_IF_ERROR(qsc::WriteBinary(g, dir + "/" + plan.graph_files[0]));
  QSC_RETURN_IF_ERROR(qsc::WriteLpText(lp, dir + "/" + plan.lp_file));
  // Edit epilogue: batches applied to the warm session after the query
  // phase.
  return AddEditBatches(g, rng.Next(), 16, plan);
}

// --- cold-refine-seg100k --------------------------------------------------
//
// 400x250 segmentation networks. 3 clients take passes in turn; every pass
// opens a fresh session on the next of three networks and issues cold
// queries:
// Rothko MaxFlow at rising budgets (anytime continuation, the first one
// with the Theorem-6 lower bound), lp-rounding and bucket MaxFlow,
// Centrality and a cold SolveLp. Refinement cost depends on where a seed
// puts the objects; cycling three networks per run averages that out.
// After each pass, outside the measured query time, the pass's session
// takes its network's edit batches, so the edit samples are spread over
// the whole run and all three networks.
// The sessions have no pool: a pool bought no speed here (the traced
// run's parallel.refine_speedup measures it), and with one, any core the
// host slowed stalled every parallel refinement step, which spread the
// median 35 % across ten runs. Independent clients average over the
// cores the host slows at different times instead: with one client, ten
// runs spread 26 % in throughput.
constexpr int kColdGraphs = 3;
// 2 batches per pass: a 15 s run is 4-6 sweeps (12-18 passes), so 24-36
// edit samples (with fewer than 40 the edit tail is the median).
constexpr int64_t kColdBatchesPerPass = 2;

Status GenerateColdRefine(uint64_t seed, const std::string& dir, Plan& plan) {
  qsc::Rng rng(seed ^ kColdSalt);
  std::vector<qsc::FlowInstance> nets;
  for (int i = 0; i < kColdGraphs; ++i) {
    nets.push_back(qsc::SegmentationGridNetwork(400, 250, 8, rng));
    if (nets[i].source != nets[0].source || nets[i].sink != nets[0].sink) {
      return Status::Internal("segmentation terminals differ across networks");
    }
  }
  const std::pair<NodeId, NodeId> st = {nets[0].source, nets[0].sink};

  plan.mmap = false;
  plan.clients = 3;
  plan.setups = 5;

  // Rothko MaxFlow climbs a ladder of 15 budgets, each query continuing the
  // last one's refinement, so most of a pass's queries are continuation
  // steps of graded cost and the median lands among them rather than in
  // the gap between two query kinds. 19 queries per pass: a 15 s run is
  // 4-6 sweeps over the networks (228-342 samples), which keeps the tail
  // statistic at p95.
  QuerySpec lower = Spec(plan, Kind::kMaxFlow, 16);
  lower.pairs = {st};
  lower.lower_bound = true;
  plan.pass.push_back(Add(plan, lower));
  for (ColorId budget : {24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192,
                         224, 256}) {
    QuerySpec flow = Spec(plan, Kind::kMaxFlow, budget);
    flow.pairs = {st};
    plan.pass.push_back(Add(plan, flow));
  }
  for (const char* backend : {"lp-rounding", "bucket"}) {
    QuerySpec flow = Spec(plan, Kind::kMaxFlow, 16);
    flow.pairs = {st};
    flow.backend = backend;
    plan.pass.push_back(Add(plan, flow));
  }
  plan.pass.push_back(Add(plan, Spec(plan, Kind::kCentrality, 16)));
  plan.pass.push_back(Add(plan, Spec(plan, Kind::kSolveLp, 64)));

  const qsc::LpProblem lp = qsc::MakeQapLikeLp(8, rng.Next());
  plan.lp_file = "lp.txt";
  for (int i = 0; i < kColdGraphs; ++i) {
    plan.graph_files.push_back("graph" + std::to_string(i) + ".qsc");
    QSC_RETURN_IF_ERROR(
        qsc::WriteBinary(nets[i].graph, dir + "/" + plan.graph_files[i]));
  }
  QSC_RETURN_IF_ERROR(qsc::WriteLpText(lp, dir + "/" + plan.lp_file));
  for (const qsc::FlowInstance& net : nets) {
    QSC_RETURN_IF_ERROR(
        AddEditBatches(net.graph, rng.Next(), kColdBatchesPerPass, plan));
  }
  return Status::Ok();
}

// --- edit-churn-ba20k -----------------------------------------------------
//
// BA-20k as an owning graph. Warm specs mix q_tolerance 8 (repairable) and
// q_tolerance 0 (fall back to recoloring). Each round applies one 16-edit
// batch, then runs the fixed query set over 3 clients.
Status GenerateEditChurn(uint64_t seed, const std::string& dir, Plan& plan) {
  qsc::Rng rng(seed ^ kChurnSalt);
  const Graph g = DirectedBarabasiAlbert(20000, rng);
  const std::vector<std::pair<NodeId, NodeId>> pairs = HubPairs(g, 2, rng);

  plan.mmap = false;
  plan.clients = 3;
  plan.setups = 3;

  QuerySpec repairable = Spec(plan, Kind::kColoring, 4096);
  repairable.q_tolerance = 8.0;
  const int repairable_id = Add(plan, repairable);
  std::vector<int> fallback;
  for (const auto& pair : pairs) {
    QuerySpec flow = Spec(plan, Kind::kMaxFlow, 32);
    flow.pairs = {pair};
    fallback.push_back(Add(plan, flow));
  }
  fallback.push_back(Add(plan, Spec(plan, Kind::kColoring, 32)));
  fallback.push_back(Add(plan, Spec(plan, Kind::kCentrality, 8)));
  // The round's slowest query, issued first: one in seven queries, so the
  // p95 tail lands inside its cluster instead of on the stragglers of the
  // 70 ms MaxFlow/Centrality cluster, which swung 80-160 ms with machine
  // load.
  const int heavy_id = Add(plan, Spec(plan, Kind::kCentrality, 32));
  const int lp_id = Add(plan, Spec(plan, Kind::kSolveLp, 32));
  for (const QuerySpec& spec : plan.specs) plan.warm.push_back(spec.id);

  // Every spec once per round, so each query pays its spec's repair or
  // recoloring (SolveLp colors the LP, which edits do not touch). At 150-500
  // ms per round a 15 s run holds 200-999 queries: the tail statistic
  // stays at p95.
  plan.round.push_back(heavy_id);
  plan.round.push_back(repairable_id);
  plan.round.insert(plan.round.end(), fallback.begin(), fallback.end());
  plan.round.push_back(lp_id);

  const qsc::LpProblem lp = qsc::MakeQapLikeLp(6, rng.Next());
  plan.graph_files = {"graph.qsc"};
  plan.lp_file = "lp.txt";
  QSC_RETURN_IF_ERROR(qsc::WriteBinary(g, dir + "/" + plan.graph_files[0]));
  QSC_RETURN_IF_ERROR(qsc::WriteLpText(lp, dir + "/" + plan.lp_file));
  return AddEditBatches(g, rng.Next(), 400, plan);
}

// --- plan text format -------------------------------------------------------
//
// Whitespace-separated records, one per line:
//   workload <name> | graph <file> (one or more) | mmap <0|1> | lp <file|-> |
//   clients <n> | setups <n> |
//   spec <id> <kind> <max_colors> <q_tolerance> <backend|-> <lb> <npairs> s t..
//   warm|pass|round|mix <n> <ids...>
//   batch <n>, then n lines "<kind> <src> <dst> <weight>"

Status Malformed(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(path + ": malformed plan: " + what);
}

void WriteIds(std::ostream& out, const char* tag, const std::vector<int>& ids) {
  out << tag << ' ' << ids.size();
  for (int id : ids) out << ' ' << id;
  out << '\n';
}

bool ReadIds(std::istream& in, size_t num_specs, std::vector<int>& ids) {
  size_t n = 0;
  if (!(in >> n)) return false;
  ids.resize(n);
  for (int& id : ids) {
    if (!(in >> id) || id < 0 || static_cast<size_t>(id) >= num_specs) {
      return false;
    }
  }
  return true;
}

bool ParseKind(const std::string& name, Kind& kind) {
  for (Kind k : kAllKinds) {
    if (name == KindName(k)) {
      kind = k;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMaxFlow:
      return "maxflow";
    case Kind::kMaxFlowBatch:
      return "maxflow_batch";
    case Kind::kColoring:
      return "coloring";
    case Kind::kSolveLp:
      return "solve_lp";
    case Kind::kCentrality:
      return "centrality";
  }
  return "unknown";
}

qsc::QueryOptions OptionsFor(const QuerySpec& spec) {
  qsc::QueryOptions options;
  options.max_colors = spec.max_colors;
  options.q_tolerance = spec.q_tolerance;
  options.backend = spec.backend;
  options.compute_lower_bound = spec.lower_bound;
  return options;
}

std::vector<std::string> WorkloadNames() {
  return {"warm-mixed-ba100k", "cold-refine-seg100k", "edit-churn-ba20k"};
}

Status GenerateInputs(const std::string& workload, uint64_t seed,
                      const std::string& dir) {
  Plan plan;
  plan.workload = workload;
  if (workload == "warm-mixed-ba100k") {
    QSC_RETURN_IF_ERROR(GenerateWarmMixed(seed, dir, plan));
  } else if (workload == "cold-refine-seg100k") {
    QSC_RETURN_IF_ERROR(GenerateColdRefine(seed, dir, plan));
  } else if (workload == "edit-churn-ba20k") {
    QSC_RETURN_IF_ERROR(GenerateEditChurn(seed, dir, plan));
  } else {
    return Status::InvalidArgument("unknown workload \"" + workload + "\"");
  }
  return WritePlan(plan, dir + "/plan.txt");
}

Status WritePlan(const Plan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out.precision(17);
  out << "workload " << plan.workload << '\n';
  for (const std::string& file : plan.graph_files) {
    out << "graph " << file << '\n';
  }
  out
      << "mmap " << (plan.mmap ? 1 : 0) << '\n'
      << "lp " << (plan.lp_file.empty() ? "-" : plan.lp_file) << '\n'
      << "clients " << plan.clients << '\n'
      << "setups " << plan.setups << '\n';
  for (const QuerySpec& spec : plan.specs) {
    out << "spec " << spec.id << ' ' << KindName(spec.kind) << ' '
        << spec.max_colors << ' ' << spec.q_tolerance << ' '
        << (spec.backend.empty() ? "-" : spec.backend) << ' '
        << (spec.lower_bound ? 1 : 0) << ' ' << spec.pairs.size();
    for (const auto& [s, t] : spec.pairs) out << ' ' << s << ' ' << t;
    out << '\n';
  }
  WriteIds(out, "warm", plan.warm);
  for (const std::vector<int>& mix : plan.mixes) WriteIds(out, "mix", mix);
  if (!plan.pass.empty()) WriteIds(out, "pass", plan.pass);
  if (!plan.round.empty()) WriteIds(out, "round", plan.round);
  for (const auto& batch : plan.edit_batches) {
    out << "batch " << batch.size() << '\n';
    for (const qsc::dynamic::EditOp& op : batch) {
      out << static_cast<int>(op.kind) << ' ' << op.src << ' ' << op.dst
          << ' ' << op.weight << '\n';
    }
  }
  out << "end\n";
  out.close();
  if (!out) return Status::InvalidArgument("short write to " + path);
  return Status::Ok();
}

StatusOr<Plan> ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  Plan plan;
  std::string tag;
  bool ended = false;
  while (!ended && in >> tag) {
    if (tag == "workload") {
      in >> plan.workload;
    } else if (tag == "graph") {
      std::string file;
      in >> file;
      plan.graph_files.push_back(file);
    } else if (tag == "mmap") {
      int mmap = 0;
      in >> mmap;
      plan.mmap = mmap != 0;
    } else if (tag == "lp") {
      in >> plan.lp_file;
      if (plan.lp_file == "-") plan.lp_file.clear();
    } else if (tag == "clients") {
      in >> plan.clients;
    } else if (tag == "setups") {
      in >> plan.setups;
    } else if (tag == "spec") {
      QuerySpec spec;
      std::string kind, backend;
      int lower = 0;
      size_t num_pairs = 0;
      if (!(in >> spec.id >> kind >> spec.max_colors >> spec.q_tolerance >>
            backend >> lower >> num_pairs) ||
          spec.id != static_cast<int>(plan.specs.size()) ||
          !ParseKind(kind, spec.kind)) {
        return Malformed(path, "bad spec record");
      }
      spec.backend = backend == "-" ? "" : backend;
      spec.lower_bound = lower != 0;
      spec.pairs.resize(num_pairs);
      for (auto& [s, t] : spec.pairs) {
        if (!(in >> s >> t)) return Malformed(path, "bad spec pair");
      }
      plan.specs.push_back(std::move(spec));
    } else if (tag == "warm" || tag == "mix" || tag == "pass" ||
               tag == "round") {
      std::vector<int> ids;
      if (!ReadIds(in, plan.specs.size(), ids)) {
        return Malformed(path, "bad " + tag + " record");
      }
      if (tag == "warm") plan.warm = std::move(ids);
      if (tag == "mix") plan.mixes.push_back(std::move(ids));
      if (tag == "pass") plan.pass = std::move(ids);
      if (tag == "round") plan.round = std::move(ids);
    } else if (tag == "batch") {
      size_t n = 0;
      if (!(in >> n)) return Malformed(path, "bad batch record");
      std::vector<qsc::dynamic::EditOp> batch(n);
      for (qsc::dynamic::EditOp& op : batch) {
        int kind = 0;
        if (!(in >> kind >> op.src >> op.dst >> op.weight) || kind < 0 ||
            kind >= qsc::dynamic::kNumEditKinds) {
          return Malformed(path, "bad edit");
        }
        op.kind = static_cast<qsc::dynamic::EditKind>(kind);
      }
      plan.edit_batches.push_back(std::move(batch));
    } else if (tag == "end") {
      ended = true;
    } else {
      return Malformed(path, "unknown record \"" + tag + "\"");
    }
    if (!in) return Malformed(path, "truncated record \"" + tag + "\"");
  }
  if (!ended) return Malformed(path, "missing end record");
  if (plan.clients < 1 || plan.setups < 1) {
    return Malformed(path, "bad client or setup counts");
  }
  if (plan.graph_files.empty() || (plan.mmap && plan.graph_files.size() > 1)) {
    return Malformed(path, "bad graph records");
  }
  if (plan.edit_batches.size() % plan.graph_files.size() != 0) {
    return Malformed(path, "edit batches not split evenly over the graphs");
  }
  return plan;
}

size_t BatchesPerGraph(const Plan& plan) {
  return plan.edit_batches.size() / plan.graph_files.size();
}

}  // namespace e2e
