// One round of one benchmark workload, in this process:
//
//   msn_perfbench --workload <tunnel_roam|fleet_register|scenario_sweep>
//                 --seed <n> [--trace]
//
// Prints a single JSON line (see harness.cc) and exits 0 even when an output
// check failed: the line's "correct" field carries the verdict, and run.py
// turns it into the run's result. A usage error exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

int main(int argc, char** argv) {
  using namespace msn::perfbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      opts.trace = true;
    } else {
      std::fprintf(stderr, "msn_perfbench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  Round round;
  if (opts.workload == "tunnel_roam") {
    round = RunTunnelRoam(opts);
  } else if (opts.workload == "fleet_register") {
    round = RunFleetRegister(opts);
  } else if (opts.workload == "scenario_sweep") {
    round = RunScenarioSweep(opts);
  } else {
    std::fprintf(stderr, "msn_perfbench: unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  std::printf("%s\n", RoundToJson(opts, round).c_str());
  return 0;
}
