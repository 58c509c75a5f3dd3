// min_space: the Figure 4/5 minimum-space search at the 40% mix — FW
// (MinFirewallSpace) and EL (MinElSpace) run side by side on one
// SweepRunner, exactly as harness::RunMixSweepAt runs them for the
// figure benches — followed by a gated replay of both minima.

#include <unistd.h>

#include <algorithm>
#include <memory>

#include "core/fw_manager.h"
#include "harness/figures.h"
#include "runner/sweep_runner.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {

using elog::db::DatabaseConfig;

namespace {

constexpr double kMix = 0.40;
constexpr int64_t kRuntimeSeconds = 500;
/// The quick figure sweep's generation-0 scan bound; the 40% optimum
/// (19 + 68) lies well inside it.
constexpr uint32_t kGen0Max = 26;
/// EXPERIMENTS.md, Figure 4 row at the 40% mix, and the workload seed the
/// figure benches use. The search always runs on the figure's input: on
/// another seed the minima, and with them the probe schedule, move, so the
/// search time would measure the seed rather than the code (seeds 1-3
/// took 14-19 s on the same build).
constexpr uint64_t kFigureSeed = 42;
constexpr uint32_t kFigureFw = 163;
constexpr uint32_t kFigureEl = 87;
const std::vector<uint32_t> kFigureElLayout = {19, 68};
constexpr int kReplays = 5;

int Workers() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, 4));
}

struct Search {
  elog::harness::MixPoint point;
  double seconds = 0.0;
};

Search RunSearch(int workers) {
  elog::runner::SweepOptions options;
  options.jobs = workers;
  elog::runner::SweepRunner runner(options);
  Search search;
  const int64_t start = NowNs();
  search.point = elog::harness::RunMixSweepAt(
      {kMix}, elog::LogManagerOptions{}, elog::SecondsToSimTime(kRuntimeSeconds),
      kFigureSeed, kGen0Max, &runner)[0];
  search.seconds = SecondsSince(start);
  return search;
}

DatabaseConfig ReplayConfig(const elog::LogManagerOptions& log) {
  DatabaseConfig config;
  config.log = log;
  config.workload = elog::workload::PaperMix(kMix);
  config.workload.runtime = elog::SecondsToSimTime(kRuntimeSeconds);
  config.workload.seed = kFigureSeed;
  return config;
}

DatabaseConfig FwConfig(uint32_t blocks) {
  return ReplayConfig(elog::MakeFirewallOptions(blocks));
}

DatabaseConfig ElConfig(const std::vector<uint32_t>& gens) {
  elog::LogManagerOptions log;
  log.generation_blocks = gens;
  log.recirculation = false;
  return ReplayConfig(log);
}

void GateMinima(const elog::harness::MixPoint& point, Report* report) {
  const uint32_t fw = point.fw.total_blocks;
  const uint32_t el = point.el.total_blocks;
  report->Note("fw_min_blocks", std::to_string(fw));
  report->Note("el_min_blocks", std::to_string(point.el.generation_blocks[0]) +
                                    "+" +
                                    std::to_string(point.el.generation_blocks[1]));
  report->Gate(fw == kFigureFw && point.el.generation_blocks == kFigureElLayout,
               "minima FW " + std::to_string(fw) + " / EL " +
                   std::to_string(el) + " differ from the Figure 4 row (" +
                   std::to_string(kFigureFw) + " / " +
                   std::to_string(kFigureEl) + ")");
}

}  // namespace

void RunMinSpace(const TrialArgs& args, Report* report) {
  const int workers = Workers();
  report->Note("workers", std::to_string(workers));
  if (args.trace) {
    const Search parallel = RunSearch(workers);
    GateMinima(parallel.point, report);
    // The same search on one worker: its wall time is the sum of the
    // probes' serial times, the numerator of the parallel efficiency.
    const Search serial = RunSearch(1);
    report->Gate(serial.point.fw.total_blocks == parallel.point.fw.total_blocks &&
                     serial.point.el.total_blocks ==
                         parallel.point.el.total_blocks &&
                     serial.point.fw.simulations ==
                         parallel.point.fw.simulations &&
                     serial.point.el.simulations == parallel.point.el.simulations,
                 "the search differs between 1 and " + std::to_string(workers) +
                     " workers");
    // Layer split of one probe: the EL minimum replayed on the replica.
    LayerSums sums;
    TraceConfig(ElConfig(parallel.point.el.generation_blocks),
                "min_space.el", args.dir + "/spans_min_space.bin", &sums, report,
                FacadeChecks{true, true});
    EmitLayerMetrics(sums,
                     parallel.point.fw.simulations + parallel.point.el.simulations,
                     serial.seconds / (workers * parallel.seconds), 0.0, report);
    return;
  }

  // Set-up: constructing one probe's Database at the figure's FW size.
  const DatabaseConfig probe = FwConfig(kFigureFw);
  const double setup_s = SetupSeconds(
      [&probe] { return std::make_unique<elog::db::Database>(probe); }, 5, 40);

  // Replay the figure's minima kReplays times, before the search so that
  // every trial replays on the same fresh heap: each run must survive the
  // workload without a kill, and the EL image must recover the
  // acknowledged state. The replays give the probe engine's throughput,
  // teardown and recovery times, each the best over the replays (the
  // search leaves room for one trial per run). The search must then find
  // exactly these minima.
  std::vector<double> txn_per_s, teardown_s, recover_ms;
  for (int i = 0; i < kReplays; ++i) {
    const FacadeRun fw = RunFacade(FwConfig(kFigureFw), "min_space.fw", report,
                                   FacadeChecks{false, true});
    const FacadeRun el = RunFacade(ElConfig(kFigureElLayout), "min_space.el",
                                   report, FacadeChecks{true, true});
    txn_per_s.push_back(
        static_cast<double>(fw.stats.total_committed + el.stats.total_committed) /
        (fw.run_s + el.run_s));
    teardown_s.push_back(fw.teardown_s + el.teardown_s);
    recover_ms.push_back(el.recover_s * 1000.0);
  }

  const Search search = RunSearch(workers);
  GateMinima(search.point, report);

  report->Add("setup_s", setup_s, "s");
  report->Add("run_s", search.seconds, "s");
  report->Add("txn_per_s", *std::max_element(txn_per_s.begin(), txn_per_s.end()),
              "1/s");
  report->Add("teardown_s",
              *std::min_element(teardown_s.begin(), teardown_s.end()), "s");
  report->Add("recover_ms",
              *std::min_element(recover_ms.begin(), recover_ms.end()), "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
