// ebbench: runs one benchmark workload in this process and prints its
// report, ending with one JSON line. perfbench/run.py builds and drives
// it; see perfbench/README.md for the workloads and metrics.
//
//   ebbench --workload zoo-mlp-l|sfc-wire|wdm-mapped
//           --seed N --seconds S --trace 0|1 --workdir DIR
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "ebbench: %s\nusage: ebbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + key).c_str());
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        args.workdir = val;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (args.workdir.empty() || !(args.seconds > 0.0)) {
    return usage("--workdir and a positive --seconds are required");
  }
  try {
    std::filesystem::create_directories(args.workdir);
    pb::Report report(args.trace);
    if (args.workload == "zoo-mlp-l") {
      pb::run_zoo(args, report);
    } else if (args.workload == "sfc-wire") {
      pb::run_sfc_wire(args, report);
    } else if (args.workload == "wdm-mapped") {
      pb::run_wdm_mapped(args, report);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    report.finish();
    if (!report.correct()) {
      std::fprintf(stderr, "ebbench: output mismatch\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ebbench: %s\n", e.what());
    return 2;
  }
}
