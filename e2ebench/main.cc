// qsc_e2e: the compiled half of the end-to-end benchmark (run.py drives it).
//
//   qsc_e2e gen   --workload W --seed S --dir D      write D/plan.txt + files
//   qsc_e2e run   --dir D --out O --seconds T --trace 0|1
//   qsc_e2e setup --dir D --out O --setups N        time N setups only
//   qsc_e2e exact --dir D --answers A --out E
//
// Each subcommand runs in its own process, so the measured one (`run`)
// holds only the workload it serves.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: qsc_e2e gen --workload W --seed S --dir D\n"
               "       qsc_e2e run --dir D --out O --seconds T --trace 0|1\n"
               "       qsc_e2e setup --dir D --out O --setups N\n"
               "       qsc_e2e exact --dir D --answers A --out E\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.size() < 3 || key.compare(0, 2, "--") != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&](const char* name) -> const std::string& {
    static const std::string kMissing;
    const auto it = flags.find(name);
    return it == flags.end() ? kMissing : it->second;
  };

  if (command == "gen") {
    if (flag("workload").empty() || flag("seed").empty() || flag("dir").empty()) {
      return Usage();
    }
    const qsc::Status status = e2e::GenerateInputs(
        flag("workload"), std::strtoull(flag("seed").c_str(), nullptr, 10),
        flag("dir"));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "run" || command == "setup") {
    e2e::RunOptions options;
    options.dir = flag("dir");
    options.out = flag("out");
    options.setup_only = command == "setup";
    if (options.setup_only) {
      options.setups = std::atoi(flag("setups").c_str());
      if (options.setups < 1) return Usage();
    } else {
      options.seconds = std::atof(flag("seconds").c_str());
      options.trace = flag("trace") == "1";
      if (!(options.seconds > 0.0)) return Usage();
    }
    if (options.dir.empty() || options.out.empty()) return Usage();
    return e2e::RunWorkload(options);
  }
  if (command == "exact") {
    if (flag("dir").empty() || flag("answers").empty() || flag("out").empty()) {
      return Usage();
    }
    return e2e::ComputeExact(flag("dir"), flag("answers"), flag("out"));
  }
  return Usage();
}
