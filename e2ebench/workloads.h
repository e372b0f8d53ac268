// The measured process of the benchmark: runs one workload plan against a
// qsc::Compressor from its own closed-loop client threads and writes raw
// samples, spans, answers and a summary for run.py to turn into metrics.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <string>

namespace e2e {

struct RunOptions {
  std::string dir;  // inputs: plan.txt and the files it names
  std::string out;  // outputs: samples.tsv, spans.tsv, answers.tsv, summary.tsv
  double seconds = 10.0;
  // Traced run: an untraced phase, then the same phase with spans around
  // every layer call (MaxFlow and Centrality issued as their public
  // sub-calls), then the layer probes.
  bool trace = false;
  // Load + warm repetitions, each timed (setup_s). The measured process
  // sets up once, so its peak RSS holds one session; run.py times the
  // other repetitions in a setup-only process of their own.
  int setups = 1;
  bool setup_only = false;  // stop after the setups
};

// Returns the process exit code: 0 when the run completed (correctness
// violations are written to the summary, for run.py to judge), 1 on an
// input or I/O error.
int RunWorkload(const RunOptions& options);

// Exact references for the answers a run served, computed in their own
// process: MaxFlowDinic on the original graph at every graph version a
// MaxFlow answer names, and SolveSimplex on the unreduced LP.
int ComputeExact(const std::string& dir, const std::string& answers_path,
                 const std::string& out_path);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
