// perfbench: one trial of one benchmark workload.
//
//   perfbench <sim_long|sim_gc|min_space|wal_commit> --seed N --dir D
//             [--trace 0|1] [--inject drop_last_block|undersized_layout]
//
// Prints the trial's report as one JSON line on stdout and exits 0 when
// every correctness gate held, 3 when one failed, 2 on a usage error. A
// violated manager invariant aborts the process (no JSON at all). run.py
// builds this binary, runs trials and aggregates them.

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench <sim_long|sim_gc|min_space|wal_commit> "
               "--seed N --dir D [--trace 0|1] "
               "[--inject drop_last_block|undersized_layout]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing workload");
  perfbench::TrialArgs args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--inject") {
      if (value != "drop_last_block" && value != "undersized_layout") {
        return Usage("unknown injection " + value);
      }
      args.inject = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }

  perfbench::Report report;
  perfbench::AddFingerprint(&report, args.dir);
  if (args.workload == "sim_long") {
    perfbench::RunSimLong(args, &report);
  } else if (args.workload == "sim_gc") {
    perfbench::RunSimGc(args, &report);
  } else if (args.workload == "min_space") {
    perfbench::RunMinSpace(args, &report);
  } else if (args.workload == "wal_commit") {
    perfbench::RunWalCommit(args, &report);
  } else {
    return Usage("unknown workload " + args.workload);
  }
  report.PrintJson(std::cout);
  return report.correct() ? 0 : 3;
}
