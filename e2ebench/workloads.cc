#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "inputs.h"
#include "qsc/api/compressor.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/flow/dinic.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/flow/uniform_flow.h"
#include "qsc/graph/graph_view.h"
#include "qsc/graph/io.h"
#include "qsc/lp/io.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/parallel/thread_pool.h"
#include "tracer.h"

namespace e2e {
namespace {

using qsc::ColorId;
using qsc::Compressor;
using qsc::Graph;
using qsc::GraphView;
using qsc::NodeId;
using qsc::Partition;
using qsc::QueryOptions;
using qsc::StatusOr;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// "VmHWM" / "VmRSS" of this process, in KiB (0 if unreadable).
int64_t ProcStatusKib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atoll(line.c_str() + len + 1);
    }
  }
  return 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// FNV-1a over raw bytes: a checksum for vectors the answers file cannot
// hold verbatim (partitions, centrality scores).
uint64_t Fnv(const void* data, size_t size, uint64_t h = 1469598103934665603ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t PartitionHash(const Partition& p, NodeId num_nodes) {
  uint64_t h = Fnv(nullptr, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const ColorId c = p.ColorOf(v);
    h = Fnv(&c, sizeof(c), h);
  }
  return h;
}

const char* QuerySpanName(Kind kind) {
  switch (kind) {
    case Kind::kMaxFlow:
      return "query.maxflow";
    case Kind::kMaxFlowBatch:
      return "query.maxflow_batch";
    case Kind::kColoring:
      return "query.coloring";
    case Kind::kSolveLp:
      return "query.solve_lp";
    case Kind::kCentrality:
      return "query.centrality";
  }
  return "query.unknown";
}

const char* RefineSpanName(const std::string& backend) {
  if (backend.empty() || backend == "rothko") return "coloring.refine.rothko";
  if (backend == "lp-rounding") return "coloring.refine.lp-rounding";
  if (backend == "bucket") return "coloring.refine.bucket";
  return "coloring.refine.other";
}

// --- answers ----------------------------------------------------------------

// One distinct answer: the first time a (spec, pair, graph version) is
// served it is stored; every later serving must be bit-identical to it.
struct Answer {
  Kind kind = Kind::kColoring;
  int spec = 0;
  int pair = 0;
  int graph = 0;  // index into Plan::graph_files
  int64_t version = 0;
  NodeId s = -1, t = -1;
  double upper = 0.0, lower = 0.0;
  ColorId colors = 0;
  double max_q = kNaN;      // reported by the Compressor
  double recount_q = kNaN;  // ComputeQError of the served partition
  // The largest weighted degree of the graph served: no coloring's q-error
  // can exceed it.
  double degree_bound = kNaN;
  std::shared_ptr<const Partition> partition;
  std::vector<double> scores;
  double objective = 0.0;
  int lp_status = 0;
};

bool SameAnswer(const Answer& a, const Answer& b) {
  if (!SameBits(a.upper, b.upper) || !SameBits(a.lower, b.lower) ||
      a.colors != b.colors || !SameBits(a.objective, b.objective) ||
      a.lp_status != b.lp_status || a.scores.size() != b.scores.size()) {
    return false;
  }
  if (!std::isnan(a.max_q) && !std::isnan(b.max_q) &&
      !SameBits(a.max_q, b.max_q)) {
    return false;
  }
  if (!a.scores.empty() &&
      std::memcmp(a.scores.data(), b.scores.data(),
                  a.scores.size() * sizeof(double)) != 0) {
    return false;
  }
  if ((a.partition == nullptr) != (b.partition == nullptr)) return false;
  return a.partition == b.partition || *a.partition == *b.partition;
}

class Answers {
 public:
  using Key = std::tuple<int, int, int, int64_t>;  // spec, pair, graph, version

  void Record(Answer answer) {
    const Key key{answer.spec, answer.pair, answer.graph, answer.version};
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = answers_.find(key);
    if (it == answers_.end()) {
      answers_.emplace(key, std::move(answer));
    } else if (!SameAnswer(it->second, answer)) {
      violations_.push_back(
          "answer to spec " + std::to_string(answer.spec) + " pair " +
          std::to_string(answer.pair) + " on graph " +
          std::to_string(answer.graph) + " at version " +
          std::to_string(answer.version) +
          " differs between servings (decomposed vs Compressor, or across "
          "clients/passes)");
    }
  }

  void AddViolation(std::string what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    violations_.push_back(std::move(what));
  }

  // Not synchronized: callers hold no concurrent Record() calls.
  std::map<Key, Answer>& map() { return answers_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::mutex mutex_;  // guards answers_ and violations_
  std::map<Key, Answer> answers_;
  std::vector<std::string> violations_;
};

// --- samples ----------------------------------------------------------------

struct Sample {
  char phase = 'u';  // 'u' untraced, 't' traced
  const char* kind = "";
  int spec = -1;
  int client = 0;
  int64_t start_ns = 0, end_ns = 0;
  bool ok = true;
  bool first_after_edit = false;
  int64_t version = 0;
};

// --- issuing queries --------------------------------------------------------

// Everything one query needs. `view` is the session graph (for the
// decomposed sub-calls of a traced query); `graph` and `version` name the
// graph the query runs against.
struct Context {
  const qsc::LpProblem* lp = nullptr;
  Compressor* session = nullptr;
  GraphView view;
  Tracer* tracer = nullptr;
  Answers* answers = nullptr;
  int graph = 0;
  int64_t version = 0;
};

// The Coloring options a MaxFlow on (s, t) or a Centrality query colors
// with: the same ColoringSpec the Compressor builds for them.
QueryOptions ColoringOptionsFor(const QuerySpec& spec, NodeId s, NodeId t) {
  QueryOptions options = OptionsFor(spec);
  options.compute_lower_bound = false;
  if (spec.kind == Kind::kCentrality) {
    options.alpha = 1.0;
    options.beta = 1.0;
  } else if (spec.kind == Kind::kMaxFlow || spec.kind == Kind::kMaxFlowBatch) {
    options.pinned = {s, t};
  }
  return options;
}

// Compressor::Coloring under a span named for what it did: api.lookup
// for a pure cache hit, coloring.refine.<backend> for a miss or a
// continuation. The span value is the witness splits performed.
StatusOr<qsc::ColoringResult> TracedColoring(const Context& ctx,
                                             const QueryOptions& options,
                                             int64_t request, int64_t parent) {
  Tracer::Scope span(ctx.tracer, "api.lookup", request, parent);
  StatusOr<qsc::ColoringResult> result = ctx.session->Coloring(options);
  if (result.ok() && (!result->telemetry.coloring_cache_hit ||
                      result->telemetry.coloring_splits > 0)) {
    span.set_name(RefineSpanName(options.backend));
  }
  if (result.ok()) {
    span.set_value(static_cast<double>(result->telemetry.coloring_splits));
  }
  return result;
}

// A MaxFlow issued as its public sub-calls (the Theorem-6 pipeline of
// Compressor::MaxFlow): Coloring with the terminals pinned, the c^2
// reduced graph, push-relabel on it, and optionally the c^1 lower bound.
bool DecomposedMaxFlow(const Context& ctx, const QuerySpec& spec, int pair,
                       int64_t request, int64_t parent,
                       std::vector<Answer>& out) {
  const auto [s, t] = spec.pairs[pair];
  StatusOr<qsc::ColoringResult> coloring =
      TracedColoring(ctx, ColoringOptionsFor(spec, s, t), request, parent);
  if (!coloring.ok()) return false;
  const Partition& p = *coloring->coloring;

  Tracer::Scope reduce(ctx.tracer, "coloring.reduce", request, parent);
  const Graph reduced =
      qsc::BuildReducedGraph(ctx.view, p, qsc::ReducedWeight::kSum);
  reduce.set_value(static_cast<double>(reduced.num_arcs()));
  reduce.Close();

  Answer answer;
  answer.kind = spec.kind;
  answer.spec = spec.id;
  answer.pair = pair;
  answer.version = ctx.version;
  answer.s = s;
  answer.t = t;
  answer.colors = p.num_colors();
  answer.partition = coloring->coloring;

  Tracer::Scope solve(ctx.tracer, "flow.solve", request, parent);
  answer.upper = qsc::MaxFlowPushRelabel(reduced, p.ColorOf(s), p.ColorOf(t));
  solve.Close();

  if (spec.lower_bound) {
    Tracer::Scope lower(ctx.tracer, "flow.lower_bound", request, parent);
    const QueryOptions options = OptionsFor(spec);
    std::vector<qsc::EdgeTriple> arcs;
    for (const qsc::EdgeTriple& a : reduced.Arcs()) {
      if (a.src == a.dst) continue;
      const double c1 = qsc::MaxUniformFlow(ctx.view, p.Members(a.src),
                                            p.Members(a.dst),
                                            options.uniform_flow_tol);
      if (c1 > 0.0) arcs.push_back({a.src, a.dst, c1});
    }
    const Graph lower_graph =
        Graph::FromEdges(p.num_colors(), arcs, /*undirected=*/false);
    answer.lower =
        qsc::MaxFlowPushRelabel(lower_graph, p.ColorOf(s), p.ColorOf(t));
  }
  out.push_back(std::move(answer));
  return true;
}

Answer FlowAnswer(const QuerySpec& spec, int pair, int64_t version,
                  const qsc::FlowQueryResult& r) {
  Answer answer;
  answer.kind = spec.kind;
  answer.spec = spec.id;
  answer.pair = pair;
  answer.version = version;
  answer.s = spec.pairs[pair].first;
  answer.t = spec.pairs[pair].second;
  answer.upper = r.upper_bound;
  answer.lower = r.lower_bound;
  answer.colors = r.num_colors;
  answer.partition = r.coloring;
  return answer;
}

// Issues one query: the Compressor call itself when tracing is off, its
// decomposition into public sub-calls (MaxFlow, MaxFlowBatch, Centrality)
// under spans when it is on. Appends the answers to `out`; returns false
// if a call failed.
bool Issue(const Context& ctx, const QuerySpec& spec, int64_t request,
           std::vector<Answer>& out) {
  const bool traced = ctx.tracer->enabled();
  Tracer::Scope root(ctx.tracer, QuerySpanName(spec.kind), request, 0);
  root.set_value(spec.id);
  const QueryOptions options = OptionsFor(spec);
  switch (spec.kind) {
    case Kind::kMaxFlow: {
      if (traced) {
        return DecomposedMaxFlow(ctx, spec, 0, request, root.id(), out);
      }
      const auto [s, t] = spec.pairs[0];
      StatusOr<qsc::FlowQueryResult> r = ctx.session->MaxFlow(s, t, options);
      if (!r.ok()) return false;
      out.push_back(FlowAnswer(spec, 0, ctx.version, *r));
      return true;
    }
    case Kind::kMaxFlowBatch: {
      if (traced) {
        for (size_t i = 0; i < spec.pairs.size(); ++i) {
          if (!DecomposedMaxFlow(ctx, spec, static_cast<int>(i), request,
                                 root.id(), out)) {
            return false;
          }
        }
        return true;
      }
      StatusOr<std::vector<qsc::FlowQueryResult>> r =
          ctx.session->MaxFlowBatch(spec.pairs, options);
      if (!r.ok()) return false;
      for (size_t i = 0; i < r->size(); ++i) {
        out.push_back(
            FlowAnswer(spec, static_cast<int>(i), ctx.version, (*r)[i]));
      }
      return true;
    }
    case Kind::kColoring: {
      StatusOr<qsc::ColoringResult> r =
          traced ? TracedColoring(ctx, options, request, root.id())
                 : ctx.session->Coloring(options);
      if (!r.ok()) return false;
      Answer answer;
      answer.kind = spec.kind;
      answer.spec = spec.id;
      answer.version = ctx.version;
      answer.colors = r->coloring->num_colors();
      answer.max_q = r->max_q;
      answer.partition = r->coloring;
      out.push_back(std::move(answer));
      return true;
    }
    case Kind::kSolveLp: {
      if (ctx.lp == nullptr) return false;
      StatusOr<qsc::LpQueryResult> r = ctx.session->SolveLp(*ctx.lp, options);
      if (!r.ok()) return false;
      Answer answer;
      answer.kind = spec.kind;
      answer.spec = spec.id;
      answer.version = ctx.version;
      answer.objective = r->solution.objective;
      answer.lp_status = static_cast<int>(r->solution.status);
      out.push_back(std::move(answer));
      return true;
    }
    case Kind::kCentrality: {
      Answer answer;
      answer.kind = spec.kind;
      answer.spec = spec.id;
      answer.version = ctx.version;
      if (traced) {
        StatusOr<qsc::ColoringResult> coloring =
            TracedColoring(ctx, ColoringOptionsFor(spec, -1, -1), request,
                           root.id());
        if (!coloring.ok()) return false;
        Tracer::Scope pivot(ctx.tracer, "centrality.pivot", request,
                            root.id());
        answer.scores = qsc::ColorPivotScores(ctx.view, *coloring->coloring,
                                              options.pivots_per_color,
                                              options.seed);
        pivot.Close();
        answer.colors = coloring->coloring->num_colors();
        answer.partition = coloring->coloring;
      } else {
        StatusOr<qsc::CentralityQueryResult> r =
            ctx.session->Centrality(options);
        if (!r.ok()) return false;
        answer.scores = std::move(r->scores);
        answer.colors = r->num_colors;
        answer.partition = r->coloring;
      }
      out.push_back(std::move(answer));
      return true;
    }
  }
  return false;
}

// Issues `spec` and appends its timed sample. The sample covers exactly
// the query's calls into the library; its answers are recorded (and
// compared with earlier servings) after the clock stops.
void TimedIssue(const Context& ctx, const QuerySpec& spec, int client,
                bool first_after_edit, std::vector<Sample>& samples) {
  Sample sample;
  sample.phase = ctx.tracer->enabled() ? 't' : 'u';
  sample.kind = KindName(spec.kind);
  sample.spec = spec.id;
  sample.client = client;
  sample.first_after_edit = first_after_edit;
  sample.version = ctx.version;
  const int64_t request = ctx.tracer->enabled() ? ctx.tracer->NewRequest() : 0;
  std::vector<Answer> answers;
  sample.start_ns = NowNs();
  sample.ok = Issue(ctx, spec, request, answers);
  sample.end_ns = NowNs();
  samples.push_back(sample);
  for (Answer& answer : answers) {
    answer.graph = ctx.graph;
    ctx.answers->Record(std::move(answer));
  }
}

// Runs fn(client) on `n` threads and joins them.
template <typename Fn>
void OnClients(int n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int c = 0; c < n; ++c) threads.emplace_back(fn, c);
  for (std::thread& thread : threads) thread.join();
}

// --- the run ------------------------------------------------------------------

class Run {
 public:
  Run(const RunOptions& options, Plan plan)
      : options_(options), plan_(std::move(plan)), tracer_(options.trace) {}

  int Execute();

 private:
  std::string InputPath(const std::string& name) const {
    return options_.dir + "/" + name;
  }
  // The session graph as a view: the second mapping on a FromFile session
  // (never session->graph(), which would materialize a copy), an empty
  // view where none is needed yet.
  GraphView SessionView(Compressor* session) const {
    if (mapped_ != nullptr) return GraphView::Of(*mapped_);
    if (session == nullptr || plan_.mmap) return GraphView();
    return GraphView(session->graph());
  }
  bool MapGraphFile();

  Context MakeContext(Compressor* session) {
    Context ctx;
    ctx.lp = lp_.num_rows > 0 ? &lp_ : nullptr;
    ctx.session = session;
    ctx.tracer = &tracer_;
    ctx.answers = &answers_;
    ctx.graph = 0;
    ctx.version = version_;
    ctx.view = SessionView(session);
    return ctx;
  }

  bool Setup();
  std::unique_ptr<Compressor> Load(int64_t request);
  void Warm(Compressor* session);
  void Counters(const char* prefix, const qsc::CompressorStats& stats);

  void WarmMixedPhase();
  void ColdRefinePhase();
  void EditChurnPhase();
  void IssueRound(const Context& ctx, bool first_after_edit);
  bool ApplyBatch(Compressor* session, size_t batch, char phase,
                  int64_t& version, std::vector<Sample>& samples);
  void EditEpilogue(Compressor* session);

  void CheckQErrors(Compressor* session, int graph, int64_t version,
                    Answers& answers);
  void LpProbe();
  void PoolRefineProbe();
  void PoolRefinePass(const std::shared_ptr<const Graph>& graph,
                      qsc::ThreadPool* pool, const char* span_name);
  bool WriteOutputs();

  void Note(const std::string& key, double value) {
    summary_ << key << '\t' << Hex(value) << '\n';
  }

  const RunOptions options_;
  const Plan plan_;
  Tracer tracer_;
  Answers answers_;
  std::vector<Sample> samples_;
  std::mutex summary_mutex_;  // guards summary_ while clients apply edits
  std::ostringstream summary_;

  qsc::LpProblem lp_;
  // A second mapping of the graph file, for the decomposed sub-calls of
  // traced queries on a FromFile session (which keeps its own mapping
  // private). Traced runs only.
  std::unique_ptr<qsc::MappedGraph> mapped_;
  // Owning sessions: the loaded graphs (several for cold-refine).
  std::vector<std::shared_ptr<const Graph>> graphs_;
  std::unique_ptr<Compressor> session_;  // on graph 0
  // cold-refine: the stats of client 0's last pass session, after its
  // queries.
  qsc::CompressorStats last_pass_stats_;
  int64_t version_ = 0;
  size_t next_batch_ = 0;
};

std::unique_ptr<Compressor> Run::Load(int64_t request) {
  Tracer::Scope span(&tracer_, "graph.load", request, 0);
  if (plan_.mmap) {
    StatusOr<Compressor> session =
        Compressor::FromFile(InputPath(plan_.graph_files[0]));
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return nullptr;
    }
    return std::make_unique<Compressor>(std::move(session).value());
  }
  for (const std::string& file : plan_.graph_files) {
    StatusOr<Graph> graph = qsc::ReadBinary(InputPath(file));
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return nullptr;
    }
    graphs_.push_back(std::make_shared<const Graph>(std::move(graph).value()));
  }
  return std::make_unique<Compressor>(graphs_[0]);
}

// Warms every warm spec once, distinct specs concurrently over the
// workload's client threads (as a server warming its cache would).
void Run::Warm(Compressor* session) {
  if (plan_.warm.empty()) return;
  Context ctx = MakeContext(session);
  std::atomic<size_t> next{0};
  // Warm-up samples only report failures; setup_s times the whole warm-up.
  std::vector<std::vector<Sample>> samples(plan_.clients);
  OnClients(std::min<int>(plan_.clients, static_cast<int>(plan_.warm.size())),
            [&](int client) {
              for (size_t i = next++; i < plan_.warm.size(); i = next++) {
                TimedIssue(ctx, plan_.specs[plan_.warm[i]], client,
                           /*first_after_edit=*/false, samples[client]);
                if (!samples[client].back().ok) {
                  answers_.AddViolation("warm-up query failed: spec " +
                                        std::to_string(plan_.warm[i]));
                }
              }
            });
}

// Loads the graph and warms the cache `setups` times (dropping the
// previous session first, so peak RSS holds one session), timing each.
bool Run::Setup() {
  for (int i = 0; i < options_.setups; ++i) {
    session_.reset();
    graphs_.clear();
    const int64_t request = tracer_.enabled() ? tracer_.NewRequest() : 0;
    const int64_t rss_before = ProcStatusKib("VmRSS");
    const int64_t t0 = NowNs();
    session_ = Load(request);
    if (session_ == nullptr) return false;
    if (i == 0) {
      Note("rss_before_load_kib", static_cast<double>(rss_before));
      Note("rss_after_load_kib", static_cast<double>(ProcStatusKib("VmRSS")));
    }
    Warm(session_.get());
    Note("setup_s", (NowNs() - t0) * 1e-9);
  }
  return true;
}

void Run::Counters(const char* prefix, const qsc::CompressorStats& stats) {
  const std::string p = prefix;
  Note(p + "lookups", static_cast<double>(stats.coloring.lookups +
                                           stats.lp_lookups));
  Note(p + "hits",
       static_cast<double>(stats.coloring.hits + stats.lp_hits));
  Note(p + "cache_bytes", static_cast<double>(stats.coloring.bytes_in_use));
  Note(p + "evictions", static_cast<double>(stats.coloring.evictions));
}

// warm-mixed: `clients` closed-loop threads, each cycling its own seeded
// query sequence until the deadline.
void Run::WarmMixedPhase() {
  Context ctx = MakeContext(session_.get());
  const char phase = tracer_.enabled() ? 't' : 'u';
  std::vector<std::vector<Sample>> samples(plan_.clients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options_.seconds * 1e9);
  OnClients(plan_.clients, [&](int client) {
    const std::vector<int>& mix = plan_.mixes[client];
    samples[client].reserve(1 << 14);
    for (size_t i = 0; NowNs() < deadline; ++i) {
      TimedIssue(ctx, plan_.specs[mix[i % mix.size()]], client, false,
                 samples[client]);
    }
  });
  const int64_t end = NowNs();
  for (const std::vector<Sample>& s : samples) {
    samples_.insert(samples_.end(), s.begin(), s.end());
  }
  Note(std::string("phase_s.") + phase, (end - start) * 1e-9);
}

// cold-refine: `clients` threads take passes in order from one counter;
// pass p opens a fresh session on graph p % graphs and issues the pass's
// cold queries in order. Passes are handed out until the time budget is
// spent and they form whole sweeps over the graphs, so every run serves the
// same mix. After each pass, outside its client's measured time, the client
// checks the q-errors of what it served, then applies the graph's edit
// batches to the pass's session (the edit samples). The phase time is the
// clients' mean measured time: throughput is queries per second of query
// time. Each client keeps its own answers and samples, merged at the end.
void Run::ColdRefinePhase() {
  const char phase = tracer_.enabled() ? 't' : 'u';
  const int num_graphs = static_cast<int>(graphs_.size());
  const size_t per_graph = BatchesPerGraph(plan_);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options_.seconds * 1e9);
  std::mutex mutex;  // guards next_pass
  int next_pass = 0;
  // One client edits at a time: each ApplyEdits copies the graph and
  // recolors the session's entries, and copies that overlapped by chance
  // would set the peak RSS.
  std::mutex edit_mutex;
  std::vector<int64_t> measured_ns(plan_.clients, 0);
  std::vector<std::vector<Sample>> samples(plan_.clients);
  std::vector<Answers> answers(plan_.clients);
  std::vector<qsc::CompressorStats> stats(plan_.clients);
  OnClients(plan_.clients, [&](int client) {
    for (;;) {
      int pass = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (NowNs() >= deadline && next_pass % num_graphs == 0) break;
        pass = next_pass++;
      }
      const int graph = pass % num_graphs;
      const int64_t t0 = NowNs();
      Compressor session(graphs_[graph]);
      Context ctx = MakeContext(&session);
      ctx.answers = &answers[client];
      ctx.graph = graph;
      ctx.version = 0;
      for (int id : plan_.pass) {
        TimedIssue(ctx, plan_.specs[id], client, false, samples[client]);
      }
      measured_ns[client] += NowNs() - t0;
      stats[client] = session.stats();
      CheckQErrors(&session, graph, 0, answers[client]);
      int64_t version = 0;
      const std::lock_guard<std::mutex> edit_lock(edit_mutex);
      for (size_t b = 0; b < per_graph; ++b) {
        const size_t batch = static_cast<size_t>(graph) * per_graph + b;
        if (!ApplyBatch(&session, batch, phase, version, samples[client])) {
          answers[client].AddViolation("edit batch " + std::to_string(batch) +
                                       " failed");
          return;
        }
      }
    }
  });
  int64_t total_ns = 0;
  for (int c = 0; c < plan_.clients; ++c) {
    total_ns += measured_ns[c];
    samples_.insert(samples_.end(), samples[c].begin(), samples[c].end());
    for (auto& [key, answer] : answers[c].map()) {
      answers_.Record(std::move(answer));
    }
    for (const std::string& v : answers[c].violations()) {
      answers_.AddViolation(v);
    }
  }
  last_pass_stats_ = stats[0];
  Note(std::string("phase_s.") + phase, total_ns * 1e-9 / plan_.clients);
}

// Applies edit batch `batch` through Compressor::ApplyEdits and samples
// it. Traced: first times dynamic::ApplyEditBatch on a copy of the
// session graph, so the repair share of ApplyEdits can be split out.
bool Run::ApplyBatch(Compressor* session, size_t batch, char phase,
                     int64_t& version, std::vector<Sample>& samples) {
  const std::vector<qsc::dynamic::EditOp>& edits = plan_.edit_batches[batch];
  const int64_t request = tracer_.enabled() ? tracer_.NewRequest() : 0;
  if (tracer_.enabled()) {
    Tracer::Scope probe(&tracer_, "dynamic.apply_batch", request, 0);
    const StatusOr<Graph> copy =
        qsc::dynamic::ApplyEditBatch(session->graph(), edits);
    probe.Close();
    if (!copy.ok()) return false;
  }
  Sample sample;
  sample.phase = phase;
  sample.kind = "edit";
  sample.version = version;
  Tracer::Scope span(&tracer_, "api.apply_edits", request, 0);
  sample.start_ns = NowNs();
  const StatusOr<qsc::EditApplyResult> result = session->ApplyEdits(edits);
  sample.end_ns = NowNs();
  span.Close();
  sample.ok = result.ok();
  samples.push_back(sample);
  if (!result.ok()) return false;
  version = result->graph_version;
  const std::lock_guard<std::mutex> lock(summary_mutex_);
  summary_ << "edit\t" << phase << '\t' << result->graph_version << '\t'
           << result->repairs << '\t' << result->fallbacks << '\t'
           << result->repair_splits << '\n';
  return true;
}

// Issues the round's queries over the client threads.
void Run::IssueRound(const Context& ctx, bool first_after_edit) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> samples(plan_.clients);
  OnClients(plan_.clients, [&](int client) {
    for (size_t i = next++; i < plan_.round.size(); i = next++) {
      TimedIssue(ctx, plan_.specs[plan_.round[i]], client, first_after_edit,
                 samples[client]);
    }
  });
  for (const std::vector<Sample>& s : samples) {
    samples_.insert(samples_.end(), s.begin(), s.end());
  }
}

// edit-churn: rounds of one edit batch then the fixed query set over the
// client threads. The q-error checks between rounds are outside the
// measured time.
void Run::EditChurnPhase() {
  const char phase = tracer_.enabled() ? 't' : 'u';
  int64_t measured_ns = 0;
  while (measured_ns < static_cast<int64_t>(options_.seconds * 1e9) &&
         next_batch_ < plan_.edit_batches.size()) {
    const int64_t t0 = NowNs();
    if (!ApplyBatch(session_.get(), next_batch_++, phase, version_,
                    samples_)) {
      answers_.AddViolation("edit batch " + std::to_string(next_batch_ - 1) +
                            " failed");
      return;
    }
    Context ctx = MakeContext(session_.get());
    // Every spec appears once in the round, so each query is the first of
    // its spec after the batch.
    IssueRound(ctx, /*first_after_edit=*/true);
    measured_ns += NowNs() - t0;
    if (tracer_.enabled()) {
      // The round again, outside the measured time, so the post-edit
      // queries can be compared with the hits that follow them.
      IssueRound(ctx, /*first_after_edit=*/false);
      // The same queries through the Compressor itself: Answers flags any
      // decomposed answer that is not bit-equal.
      tracer_.set_enabled(false);
      std::set<int> specs(plan_.round.begin(), plan_.round.end());
      for (int id : specs) {
        std::vector<Answer> answers;
        if (!Issue(ctx, plan_.specs[id], 0, answers)) {
          answers_.AddViolation("query failed: spec " + std::to_string(id));
        }
        for (Answer& answer : answers) {
          answer.graph = ctx.graph;
          answers_.Record(std::move(answer));
        }
      }
      tracer_.set_enabled(true);
    }
    CheckQErrors(session_.get(), 0, version_, answers_);
  }
  Note(std::string("phase_s.") + phase, measured_ns * 1e-9);
}

// warm-mixed: edit batches applied to the session after the query phase,
// so every workload reports what a writer costs.
void Run::EditEpilogue(Compressor* session) {
  const char phase = tracer_.enabled() ? 't' : 'u';
  for (size_t b = 0; b < plan_.edit_batches.size(); ++b) {
    if (!ApplyBatch(session, b, phase, version_, samples_)) {
      answers_.AddViolation("edit batch " + std::to_string(b) + " failed");
      return;
    }
  }
}

// For every distinct served coloring at `version`: the q-error the
// Compressor reports for it (Compressor::Coloring on the same spec) must
// equal a ComputeQError recount.
void Run::CheckQErrors(Compressor* session, int graph, int64_t version,
                       Answers& answers) {
  if (plan_.mmap && mapped_ == nullptr && !MapGraphFile()) {
    answers.AddViolation("cannot map the graph file for the q-error check");
    return;
  }
  const GraphView view = SessionView(session);
  double degree_bound = 0.0;
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    degree_bound =
        std::max({degree_bound, view.OutWeight(v), view.InWeight(v)});
  }
  for (auto& [key, answer] : answers.map()) {
    if (answer.graph != graph || answer.version != version ||
        answer.partition == nullptr ||
        !std::isnan(answer.recount_q)) {
      continue;
    }
    const QuerySpec& spec = plan_.specs[answer.spec];
    if (std::isnan(answer.max_q)) {
      StatusOr<qsc::ColoringResult> reported =
          session->Coloring(ColoringOptionsFor(spec, answer.s, answer.t));
      if (!reported.ok() || !(*reported->coloring == *answer.partition)) {
        answers.AddViolation("Coloring does not reproduce the coloring "
                             "served to spec " +
                             std::to_string(answer.spec));
        continue;
      }
      answer.max_q = reported->max_q;
    }
    answer.recount_q = qsc::ComputeQError(view, *answer.partition).max_q;
    answer.degree_bound = degree_bound;
    if (std::abs(answer.max_q - answer.recount_q) >
        1e-9 * std::max(1.0, std::abs(answer.recount_q))) {
      answers.AddViolation("reported max_q " + Hex(answer.max_q) +
                           " != ComputeQError recount " +
                           Hex(answer.recount_q) + " for spec " +
                           std::to_string(answer.spec));
    }
  }
}

// lp.reduce / lp.simplex / lp.lift: SolveLp's three stages as their public
// functions, on each SolveLp spec's instance and budget. The objective must
// be bit-equal to the Compressor's.
void Run::LpProbe() {
  if (lp_.num_rows == 0) return;
  for (const QuerySpec& spec : plan_.specs) {
    if (spec.kind != Kind::kSolveLp) continue;
    qsc::LpReduceOptions reduce;
    reduce.max_colors = spec.max_colors;
    reduce.q_tolerance = spec.q_tolerance;
    reduce.backend = spec.backend;
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t request = tracer_.NewRequest();
      Tracer::Scope r(&tracer_, "lp.reduce", request, 0);
      const qsc::ReducedLp reduced = qsc::ReduceLp(lp_, reduce);
      r.Close();
      Tracer::Scope s(&tracer_, "lp.simplex", request, 0);
      const qsc::LpResult solution = qsc::SolveSimplex(reduced.lp);
      s.Close();
      if (solution.status == qsc::LpStatus::kOptimal) {
        Tracer::Scope l(&tracer_, "lp.lift", request, 0);
        const std::vector<double> lifted =
            qsc::LiftSolution(reduced, solution.x);
        l.set_value(static_cast<double>(lifted.size()));
      }
      for (const auto& [key, answer] : answers_.map()) {
        if (answer.spec == spec.id &&
            !SameBits(answer.objective, solution.objective)) {
          answers_.AddViolation("decomposed SolveLp objective differs from "
                                "the Compressor's for spec " +
                                std::to_string(spec.id));
        }
      }
    }
  }
}

// parallel.refine_speedup: the pass's colorings refined again after the
// phase, one session at a time (no client runs beside them), on a fresh
// session without a pool and then on one with a pool, each call under a
// span of its own.
constexpr int kProbePoolThreads = 3;

void Run::PoolRefineProbe() {
  if (plan_.pass.empty()) return;
  qsc::ThreadPool pool(kProbePoolThreads);
  for (const std::shared_ptr<const Graph>& graph : graphs_) {
    PoolRefinePass(graph, nullptr, "parallel.serial_refine");
    PoolRefinePass(graph, &pool, "parallel.pool_refine");
  }
}

void Run::PoolRefinePass(const std::shared_ptr<const Graph>& graph,
                         qsc::ThreadPool* pool, const char* span_name) {
  Compressor session(graph, pool);
  for (int id : plan_.pass) {
    const QuerySpec& spec = plan_.specs[id];
    if (spec.kind != Kind::kMaxFlow && spec.kind != Kind::kCentrality) continue;
    const NodeId s = spec.pairs.empty() ? -1 : spec.pairs[0].first;
    const NodeId t = spec.pairs.empty() ? -1 : spec.pairs[0].second;
    const int64_t request = tracer_.NewRequest();
    Tracer::Scope span(&tracer_, span_name, request, 0);
    const StatusOr<qsc::ColoringResult> r =
        session.Coloring(ColoringOptionsFor(spec, s, t));
    span.set_value(static_cast<double>(id));
    if (!r.ok()) answers_.AddViolation("probe refine failed");
  }
}

bool Run::MapGraphFile() {
  StatusOr<qsc::MappedGraph> mapped =
      qsc::MapBinary(InputPath(plan_.graph_files[0]));
  if (!mapped.ok()) return false;
  mapped_ = std::make_unique<qsc::MappedGraph>(std::move(mapped).value());
  return true;
}

bool Run::WriteOutputs() {
  {
    std::ofstream out(options_.out + "/samples.tsv");
    for (const Sample& s : samples_) {
      out << s.phase << '\t' << s.kind << '\t' << s.spec << '\t' << s.client
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << (s.ok ? 1 : 0)
          << '\t' << (s.first_after_edit ? 1 : 0) << '\t' << s.version
          << '\n';
    }
    if (!out) return false;
  }
  {
    std::ofstream out(options_.out + "/answers.tsv");
    for (const auto& [key, a] : answers_.map()) {
      // Columns: analysis.ANSWER_FIELDS.
      out << KindName(a.kind) << '\t' << a.spec << '\t' << a.pair << '\t'
          << a.graph << '\t' << a.version << '\t' << a.s << '\t' << a.t
          << '\t' << Hex(a.upper) << '\t' << Hex(a.lower) << '\t' << a.colors
          << '\t' << Hex(a.max_q) << '\t' << Hex(a.recount_q) << '\t'
          << Hex(a.degree_bound) << '\t' << Hex(a.objective) << '\t'
          << a.lp_status << '\t'
          << (a.partition != nullptr
                  ? PartitionHash(*a.partition, a.partition->num_nodes())
                  : 0)
          << '\t' << Fnv(a.scores.data(), a.scores.size() * sizeof(double))
          << '\n';
    }
    if (!out) return false;
  }
  for (const std::string& v : answers_.violations()) {
    summary_ << "violation\t" << v << '\n';
  }
  {
    std::ofstream out(options_.out + "/summary.tsv");
    out << summary_.str();
    if (!out) return false;
  }
  return !tracer_.enabled() || tracer_.WriteTsv(options_.out + "/spans.tsv");
}

int Run::Execute() {
  if (!plan_.lp_file.empty()) {
    StatusOr<qsc::LpProblem> lp = qsc::ReadLpText(InputPath(plan_.lp_file));
    if (!lp.ok()) {
      std::fprintf(stderr, "%s\n", lp.status().ToString().c_str());
      return 1;
    }
    lp_ = std::move(lp).value();
  }
  if (options_.trace && plan_.mmap && !MapGraphFile()) return 1;
  if (!Setup()) return 1;
  if (options_.setup_only) return WriteOutputs() ? 0 : 1;
  const bool churn = !plan_.round.empty();
  const bool cold = !plan_.pass.empty();
  // Churn rounds check each new graph version; the warm-up answers are
  // version 0.
  if (churn) CheckQErrors(session_.get(), 0, version_, answers_);

  // The untraced phase always runs; a traced run follows it with the same
  // phase traced. Cache counters bracket the untraced phase (cold-refine's
  // sessions are fresh per pass, so its "after" counters are the queries of
  // one pass, client 0's last).
  const bool traced_run = options_.trace;
  for (const bool traced : {false, true}) {
    if (traced && !traced_run) break;
    tracer_.set_enabled(traced);
    if (!traced && !cold) Counters("u.before.", session_->stats());
    if (churn) {
      EditChurnPhase();
    } else if (cold) {
      ColdRefinePhase();
    } else {
      WarmMixedPhase();
    }
    if (!traced) {
      Counters("u.after.", cold ? last_pass_stats_ : session_->stats());
      // Peak RSS through setup and the untraced phase (its edits included
      // on edit-churn and cold-refine), before the final q-error check,
      // traced phase or edit epilogue.
      Note("peak_rss_kib", static_cast<double>(ProcStatusKib("VmHWM")));
    }
  }
  // Churn rounds and cold passes check their own answers as they go.
  const bool warm = !churn && !cold;
  tracer_.set_enabled(false);
  if (warm) CheckQErrors(session_.get(), 0, version_, answers_);

  tracer_.set_enabled(traced_run);
  if (warm) EditEpilogue(session_.get());
  if (traced_run) {
    LpProbe();
    PoolRefineProbe();
  }
  return WriteOutputs() ? 0 : 1;
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  StatusOr<Plan> plan = ReadPlan(options.dir + "/plan.txt");
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  Run run(options, std::move(plan).value());
  return run.Execute();
}

int ComputeExact(const std::string& dir, const std::string& answers_path,
                 const std::string& out_path) {
  StatusOr<Plan> plan = ReadPlan(dir + "/plan.txt");
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  // The (graph, version, s, t) the run's MaxFlow answers name.
  std::set<std::tuple<int, int64_t, NodeId, NodeId>> flows;
  {
    std::ifstream in(answers_path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string kind;
      int spec = 0, pair = 0, graph = 0;
      int64_t version = 0;
      NodeId s = -1, t = -1;
      fields >> kind >> spec >> pair >> graph >> version >> s >> t;
      if (kind == "maxflow" || kind == "maxflow_batch") {
        flows.insert({graph, version, s, t});
      }
    }
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return 1;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "%s\n", what.c_str());
    std::fclose(out);
    return 1;
  };
  // Sorted by graph, then version: each graph is loaded once and its edit
  // batches replayed forward.
  int loaded = -1;
  Graph g;
  int64_t at_version = 0;
  for (const auto& [graph, version, s, t] : flows) {
    if (graph != loaded) {
      if (graph < 0 || static_cast<size_t>(graph) >= plan->graph_files.size()) {
        return fail("answer names an unknown graph");
      }
      StatusOr<Graph> read =
          qsc::ReadBinary(dir + "/" + plan->graph_files[graph]);
      if (!read.ok()) return fail(read.status().ToString());
      g = std::move(read).value();
      loaded = graph;
      at_version = 0;
    }
    const size_t per_graph = BatchesPerGraph(*plan);
    while (at_version < version) {
      if (static_cast<size_t>(at_version) >= per_graph) {
        return fail("answer names a graph version past the edit batches");
      }
      StatusOr<Graph> next = qsc::dynamic::ApplyEditBatch(
          g, plan->edit_batches[graph * per_graph + at_version]);
      if (!next.ok()) return fail(next.status().ToString());
      g = std::move(next).value();
      ++at_version;
    }
    std::fprintf(out, "flow\t%d\t%lld\t%d\t%d\t%s\n", graph,
                 static_cast<long long>(version), s, t,
                 Hex(qsc::MaxFlowDinic(GraphView(g), s, t)).c_str());
  }
  if (!plan->lp_file.empty()) {
    StatusOr<qsc::LpProblem> lp = qsc::ReadLpText(dir + "/" + plan->lp_file);
    if (!lp.ok()) return fail(lp.status().ToString());
    const qsc::LpResult exact = qsc::SolveSimplex(*lp);
    std::fprintf(out, "lp\t%s\t%d\n", Hex(exact.objective).c_str(),
                 static_cast<int>(exact.status));
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

}  // namespace e2e
