// The four benchmark workloads. Each call runs one trial in this process
// and fills `report`; run.py runs trials in fresh processes until the
// measurement time is used up and reports medians across them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "replica.h"
#include "db/database.h"

namespace perfbench {

struct TrialArgs {
  std::string workload;
  /// Seed of this trial's inputs (run.py derives it from --seed and the
  /// trial index).
  uint64_t seed = 1;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL files, span dumps).
  std::string dir = ".";
  /// Self-test fault injection: "" (none), "drop_last_block" (wal_commit:
  /// lose the last durable block) or "undersized_layout" (sim_gc: EL on
  /// {18,4} without recirculation, which kills transactions).
  std::string inject;
};

void RunSimLong(const TrialArgs& args, Report* report);
void RunSimGc(const TrialArgs& args, Report* report);
void RunMinSpace(const TrialArgs& args, Report* report);
void RunWalCommit(const TrialArgs& args, Report* report);

// --- Shared by the simulated workloads --------------------------------------

/// Outcome of one facade run with its host timings.
struct FacadeRun {
  elog::db::RunStats stats;
  double setup_s = 0.0;     // SetupSeconds of the Database
  double run_s = 0.0;       // Database::Run()
  double recover_s = 0.0;   // RecoveryManager::Recover on the final image
  double teardown_s = 0.0;  // ~Database
  /// Facade state captured before teardown.
  Counters counters;
  int64_t table_bytes = 0;  // EL LOT + LTT + cell arena
};

/// Which facade gates apply. The minimum-space replays run the paper's
/// no-recirculation EL, whose unsafe commit drops EXPERIMENTS.md lists as
/// a known deviation, and FW, whose release-on-commit log never flushes
/// (so its final image cannot reproduce the state by design).
struct FacadeChecks {
  bool recovery = true;
  bool allow_unsafe_drops = false;
};

/// Times the Database's set-up (SetupSeconds), constructs it once more,
/// runs it, gates the run (every started transaction commits,
/// no kill or unsafe event, manager invariants, recovery of the final log
/// image reproduces the acknowledged state), and destroys it.
FacadeRun RunFacade(const elog::db::DatabaseConfig& config,
                    const std::string& label, Report* report,
                    FacadeChecks checks = {});

/// Per-layer measurements summed over the configurations a traced trial
/// runs (sim_gc runs two).
struct LayerSums {
  double facade_run_s = 0, replica_untraced_s = 0, replica_traced_s = 0;
  double construct_s = 0, teardown_s = 0, recover_s = 0;
  double self_s[static_cast<int>(Layer::kCount)] = {};
  double kernel_s = 0;  // events charged at the calibrated kernel rate
  int64_t events = 0;
  int64_t kills = 0, relocated = 0, discarded = 0, commits = 0;
  int64_t device_writes = 0, table_bytes = 0;
  int64_t stable_objects = 0, shadow_objects = 0;
  int64_t blocks = 0;
  double payload_bytes = 0;
  std::vector<double> hold_wait_us, write_us;
  double commit_p50_ms = 0, commit_p99_ms = 0;  // worst configuration
  int64_t queue_depth_max = 0;
  int64_t flush_backlog_max = 0;
  size_t spans = 0;
};

/// Traced per-layer split of one configuration: a gated facade run,
/// untraced facade and replica runs (F R F R), a traced replica run and
/// the kernel calibration, added into `sums`. Spans go to `span_path`.
void TraceConfig(const elog::db::DatabaseConfig& config,
                 const std::string& label, const std::string& span_path,
                 LayerSums* sums, Report* report, FacadeChecks checks = {});

/// Emits every per-layer metric from `sums` (0 for a layer the workload
/// does not reach) plus the runner fields.
void EmitLayerMetrics(const LayerSums& sums, int64_t simulations,
                      double parallel_efficiency, double scan_s,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
