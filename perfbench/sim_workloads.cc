// sim_long and sim_gc: Database::Run() at fixed simulated configurations,
// plus the helpers every simulated workload shares (the gated facade run
// and the traced layer split).

#include <algorithm>
#include <memory>

#include "db/recovery.h"
#include "wal/block_format.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {

using elog::db::Database;
using elog::db::DatabaseConfig;

namespace {

/// Recovery from the final log image and stable version must reproduce
/// exactly the acknowledged state (every transaction has committed).
/// Returns the number of acknowledged versions recovery misses, plus one
/// if it invents objects.
int64_t RecoveryMisses(const Database& database) {
  elog::db::RecoveryResult recovered = elog::db::RecoveryManager::Recover(
      database.storage(), database.stable());
  const auto& expected = database.expected_state();
  int64_t misses = recovered.state.size() > expected.size() ? 1 : 0;
  for (const auto& [oid, version] : expected) {
    auto it = recovered.state.find(oid);
    if (it == recovered.state.end() || it->second.lsn != version.lsn ||
        it->second.value_digest != version.value_digest) {
      ++misses;
    }
  }
  return misses;
}

}  // namespace

FacadeRun RunFacade(const DatabaseConfig& config, const std::string& label,
                    Report* report, FacadeChecks checks) {
  FacadeRun run;
  run.setup_s = SetupSeconds(
      [&config] { return std::make_unique<Database>(config); }, 5, 40);
  auto database = std::make_unique<Database>(config);

  int64_t start = NowNs();
  run.stats = database->Run();
  run.run_s = SecondsSince(start);

  const elog::db::RunStats& s = run.stats;
  report->attempted += s.total_started;
  report->failed += s.total_started - s.total_committed;
  report->Gate(s.total_started > 0, label + ": no transaction started");
  report->Gate(s.total_committed == s.total_started,
               label + ": " + std::to_string(s.total_started - s.total_committed) +
                   " started transactions did not commit");
  report->Gate(s.total_killed == 0,
               label + ": " + std::to_string(s.total_killed) + " kills");
  report->Gate((checks.allow_unsafe_drops || s.unsafe_commit_drops == 0) &&
                   s.unsafe_committing_kills == 0 && s.log_writes_lost == 0,
               label + ": unsafe commit drops, unsafe kills or lost writes");
  // CHECK-fails (and so ends the run without a result) on violation.
  if (database->el_manager() != nullptr) {
    database->el_manager()->CheckInvariants();
    const elog::EphemeralLogManager& el = *database->el_manager();
    run.table_bytes = static_cast<int64_t>(
        el.lot_table_bytes() + el.ltt_table_bytes() + el.cell_arena().bytes());
  } else {
    database->hybrid_manager()->CheckInvariants();
  }
  run.counters = FacadeCounters(*database);

  if (checks.recovery) {
    start = NowNs();
    const int64_t misses = RecoveryMisses(*database);
    run.recover_s = SecondsSince(start);
    report->failed += misses;
    report->Gate(misses == 0, label + ": recovery missed " +
                                  std::to_string(misses) +
                                  " acknowledged versions");
  }

  start = NowNs();
  database.reset();
  run.teardown_s = SecondsSince(start);
  return run;
}

void TraceConfig(const DatabaseConfig& config, const std::string& label,
                 const std::string& span_path, LayerSums* sums, Report* report,
                 FacadeChecks checks) {
  const FacadeRun facade = RunFacade(config, label, report, checks);
  sums->construct_s += facade.setup_s;
  sums->teardown_s += facade.teardown_s;
  sums->recover_s += facade.recover_s;
  sums->kills += facade.stats.total_killed;
  sums->relocated += facade.stats.records_forwarded +
                     facade.stats.records_recirculated;
  sums->discarded += facade.stats.records_discarded;
  sums->commits += facade.stats.total_committed;
  sums->device_writes += facade.counters.device_writes;
  sums->table_bytes += facade.table_bytes;
  sums->stable_objects += facade.counters.stable_objects;
  sums->shadow_objects += facade.counters.shadow_objects;
  sums->commit_p50_ms = std::max(sums->commit_p50_ms,
                                 facade.stats.commit_latency_p50_us / 1000.0);
  sums->commit_p99_ms = std::max(sums->commit_p99_ms,
                                 facade.stats.commit_latency_p99_us / 1000.0);

  // Untraced facade and replica runs, alternated so that both timed runs
  // follow a run of the same size (the first run in a process also pays
  // for growing the heap): F R F R, timing the second of each.
  double replica_s = 0;
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      Database database(config);
      const int64_t start = NowNs();
      database.Run();
      sums->facade_run_s += SecondsSince(start);
    }
    Ledger off(false);
    TraceStats unused;
    SimReplica replica(config, &off, &unused);
    const int64_t start = NowNs();
    replica.Run();
    replica_s = SecondsSince(start);
    const std::string diff = replica.counters().Diff(facade.counters);
    report->Gate(diff.empty(), label + ": untraced replica diverged: " + diff);
  }
  sums->replica_untraced_s += replica_s;

  Ledger ledger(true);
  TraceStats stats;
  SimReplica replica(config, &ledger, &stats);
  const int64_t start = NowNs();
  replica.Run();
  const double traced_s = SecondsSince(start);
  sums->replica_traced_s += traced_s;
  const std::string diff = replica.counters().Diff(facade.counters);
  report->Gate(diff.empty(), label + ": traced replica diverged: " + diff);

  const std::vector<double> self = ledger.SelfSeconds();
  for (size_t i = 0; i < self.size(); ++i) sums->self_s[i] += self[i];
  const uint64_t events = replica.events();
  const double ns_per_event = CalibrateKernelNsPerEvent(
      std::min<uint64_t>(events, 2'000'000), 256, config.workload.seed);
  sums->events += static_cast<int64_t>(events);
  sums->kernel_s += ns_per_event * static_cast<double>(events) * 1e-9;

  sums->blocks += stats.blocks_submitted;
  sums->payload_bytes += stats.payload_bytes;
  sums->hold_wait_us.insert(sums->hold_wait_us.end(), stats.hold_wait_us.begin(),
                            stats.hold_wait_us.end());
  sums->write_us.insert(sums->write_us.end(), stats.write_us.begin(),
                        stats.write_us.end());
  sums->queue_depth_max = std::max(sums->queue_depth_max, stats.in_flight_max);
  sums->flush_backlog_max = std::max(
      sums->flush_backlog_max, static_cast<int64_t>(stats.flush_backlog_max));
  sums->spans += ledger.span_count();
  if (!span_path.empty()) {
    report->Gate(ledger.WriteFile(span_path), "cannot write " + span_path);
  }
}

void EmitLayerMetrics(const LayerSums& sums, int64_t simulations,
                      double parallel_efficiency, double scan_s,
                      Report* report) {
  auto self = [&](Layer layer) { return sums.self_s[static_cast<int>(layer)]; };
  double spans_s = 0;
  for (double s : sums.self_s) spans_s += s;
  // Whatever no span covers is the event kernel plus generator code the
  // wrappers cannot reach; the calibrated kernel share is taken out and
  // the rest, with the commit-ack spans, is the workload's self time.
  const double unattributed = sums.replica_traced_s - spans_s;
  const double workload_s = unattributed - sums.kernel_s + self(Layer::kWorkload);
  report->Gate(sums.replica_traced_s == 0 ||
                   unattributed - sums.kernel_s > -0.05 * sums.replica_traced_s,
               "calibrated event-kernel time exceeds the unattributed time "
               "by more than 5% of the traced wall time");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  report->Add("sim.events", static_cast<double>(sums.events), "count");
  report->Add("sim.ns_per_event",
              ratio(sums.kernel_s * 1e9, static_cast<double>(sums.events)), "ns");
  report->Add("workload.self_s", workload_s, "s");
  report->Add("core.fg_self_s", self(Layer::kCoreFg), "s");
  report->Add("core.completion_self_s", self(Layer::kCoreCompletion), "s");
  report->Add("core.relocated_per_reclaimed",
              ratio(static_cast<double>(sums.relocated),
                    static_cast<double>(sums.discarded)),
              "ratio");
  report->Add("core.kills", static_cast<double>(sums.kills), "count");
  report->Add("core.table_bytes", static_cast<double>(sums.table_bytes),
              "bytes");
  report->Add("core.blocks_per_commit",
              ratio(static_cast<double>(sums.device_writes),
                    static_cast<double>(sums.commits)),
              "ratio");
  report->Add("core.hold_wait_p50_us", Percentile(sums.hold_wait_us, 50), "us");
  report->Add("core.commit_p50_ms", sums.commit_p50_ms, "ms");
  report->Add("core.commit_p99_ms", sums.commit_p99_ms, "ms");
  report->Add("wal.block_fill",
              ratio(sums.payload_bytes, elog::wal::kBlockPayloadBytes *
                                            static_cast<double>(sums.blocks)),
              "ratio");
  report->Add("disk.writes", static_cast<double>(sums.device_writes), "count");
  report->Add("disk.submit_self_s", self(Layer::kDiskSubmit), "s");
  report->Add("disk.event_self_s", self(Layer::kDiskEvent), "s");
  report->Add("disk.write_p50_us", Percentile(sums.write_us, 50), "us");
  report->Add("disk.write_p99_us", Percentile(sums.write_us, 99), "us");
  report->Add("disk.queue_depth_max", static_cast<double>(sums.queue_depth_max),
              "count");
  report->Add("disk.flush_backlog_max",
              static_cast<double>(sums.flush_backlog_max), "count");
  report->Add("disk.scan_s", scan_s, "s");
  report->Add("db.construct_s", sums.construct_s, "s");
  report->Add("db.hook_self_s", self(Layer::kDbHook), "s");
  report->Add("db.teardown_s", sums.teardown_s, "s");
  report->Add("db.stable_objects", static_cast<double>(sums.stable_objects),
              "count");
  report->Add("db.shadow_objects", static_cast<double>(sums.shadow_objects),
              "count");
  report->Add("db.recover_s", sums.recover_s, "s");
  report->Add("db.residual_s", sums.facade_run_s - sums.replica_untraced_s, "s");
  report->Add("runner.simulations", static_cast<double>(simulations), "count");
  report->Add("runner.parallel_efficiency", parallel_efficiency, "ratio");
  report->Add("trace.overhead_frac",
              ratio(sums.replica_traced_s - sums.replica_untraced_s,
                    sums.replica_untraced_s),
              "ratio");
  report->Add("trace.spans_frac", ratio(spans_s, sums.replica_traced_s),
              "ratio");
  // The raw pieces of the split, for the reader of a single trial.
  report->Note("facade_run_s", std::to_string(sums.facade_run_s));
  report->Note("replica_untraced_s", std::to_string(sums.replica_untraced_s));
  report->Note("replica_traced_s", std::to_string(sums.replica_traced_s));
  report->Note("unattributed_s", std::to_string(unattributed));
  report->Note("kernel_s", std::to_string(sums.kernel_s));
  report->Note("trace_self_s", std::to_string(self(Layer::kTraceOnly)));
  report->Note("workload_ack_self_s", std::to_string(self(Layer::kWorkload)));
  report->Note("spans", std::to_string(sums.spans));
}

// --- The two simulated workloads -------------------------------------------

namespace {

/// The paper's canonical point, run long: EL {18,12} with recirculation,
/// the 5% mix at 100 tps, 10^7 objects.
DatabaseConfig SimLongConfig(uint64_t seed) {
  DatabaseConfig config;
  config.workload = elog::workload::PaperMix(0.05);
  config.workload.runtime = elog::SecondsToSimTime(5000);
  config.workload.seed = seed;
  config.log.generation_blocks = {18, 12};
  config.log.recirculation = true;
  return config;
}

constexpr elog::Oid kGcObjects = 10'000;

/// EL at a recirculation-heavy, kill-free layout over 10^4 objects:
/// {18, 9}, between the Figure 7 rows {18, 10} and {18, 8}, recirculates
/// ~8k records per 500 s. Over 10^4 objects {18, 7} and smaller last
/// generations fall into the recirculation livelock of the ROADMAP's first
/// open item, so the layout keeps two blocks of margin.
DatabaseConfig SimGcElConfig(uint64_t seed, bool undersized) {
  DatabaseConfig config;
  config.workload = elog::workload::PaperMix(0.05);
  config.workload.runtime = elog::SecondsToSimTime(1000);
  config.workload.seed = seed;
  config.workload.num_objects = kGcObjects;
  config.log.num_objects = kGcObjects;
  config.log.generation_blocks = {18, undersized ? 4u : 9u};
  config.log.recirculation = !undersized;
  return config;
}

/// The hybrid manager on its kill-free ablation mix: 90% 1 s / 2 updates,
/// 10% 10 s / 30 updates at 50 tps, {24, 150}, over 10^4 objects.
DatabaseConfig SimGcHybridConfig(uint64_t seed) {
  elog::workload::TransactionType small;
  small.name = "small";
  small.probability = 0.9;
  small.lifetime = elog::SecondsToSimTime(1);
  small.num_data_records = 2;
  small.data_record_bytes = 100;
  elog::workload::TransactionType wide = small;
  wide.name = "wide";
  wide.probability = 0.1;
  wide.lifetime = elog::SecondsToSimTime(10);
  wide.num_data_records = 30;
  DatabaseConfig config;
  config.manager = elog::ManagerKind::kHybrid;
  config.workload.types = {small, wide};
  config.workload.arrival_rate_tps = 50.0;
  config.workload.runtime = elog::SecondsToSimTime(1000);
  config.workload.seed = seed;
  config.workload.num_objects = kGcObjects;
  config.log.num_objects = kGcObjects;
  config.log.generation_blocks = {24, 150};
  config.log.recirculation = true;
  return config;
}

/// Virtual-time outcomes must stay inside bands around the EXPERIMENTS.md
/// values (bands, not pinned bytes, so a deliberate re-baseline of the
/// simulator does not have to edit the benchmark).
void GateBand(double value, double lo, double hi, const std::string& what,
              Report* report) {
  report->Gate(value >= lo && value <= hi,
               what + " " + std::to_string(value) + " outside [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

/// Virtual-time outcomes, for the human reader.
void NoteOutcomes(const FacadeRun& run, const std::string& label,
                  Report* report) {
  const elog::db::RunStats& s = run.stats;
  report->Note(label + ".log_writes_per_s", std::to_string(s.log_writes_per_sec));
  report->Note(label + ".recirculated", std::to_string(s.records_recirculated));
  report->Note(label + ".forwarded", std::to_string(s.records_forwarded));
  report->Note(label + ".commit_p99_ms",
               std::to_string(s.commit_latency_p99_us / 1000.0));
}

void EmitEndToEnd(const std::vector<FacadeRun>& runs, Report* report) {
  double setup = 0, run = 0, teardown = 0, recover = 0;
  int64_t committed = 0;
  for (const FacadeRun& r : runs) {
    setup += r.setup_s;
    run += r.run_s;
    teardown += r.teardown_s;
    recover += r.recover_s;
    committed += r.stats.total_committed;
  }
  report->Add("setup_s", setup, "s");
  report->Add("run_s", run, "s");
  report->Add("txn_per_s", static_cast<double>(committed) / run, "1/s");
  report->Add("teardown_s", teardown, "s");
  report->Add("recover_ms", recover * 1000.0, "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace

void RunSimLong(const TrialArgs& args, Report* report) {
  const DatabaseConfig config = SimLongConfig(args.seed);
  if (args.trace) {
    LayerSums sums;
    TraceConfig(config, "sim_long", args.dir + "/spans_sim_long.bin", &sums,
                report);
    EmitLayerMetrics(sums, 0, 0.0, 0.0, report);
    return;
  }
  const FacadeRun run = RunFacade(config, "sim_long", report);
  // EXPERIMENTS.md, Figure 7 row {18,12}: 12.906 w/s over 500 s; the
  // 5000 s horizon and other seeds stay within a few percent of it.
  GateBand(run.stats.log_writes_per_sec, 12.906 * 0.97, 12.906 * 1.03,
           "sim_long log writes/s", report);
  GateBand(run.stats.records_recirculated, 1, 1e9,
           "sim_long recirculated records", report);
  NoteOutcomes(run, "sim_long", report);
  EmitEndToEnd({run}, report);
}

void RunSimGc(const TrialArgs& args, Report* report) {
  const DatabaseConfig el =
      SimGcElConfig(args.seed, args.inject == "undersized_layout");
  const DatabaseConfig hybrid = SimGcHybridConfig(args.seed);
  if (args.trace) {
    LayerSums sums;
    TraceConfig(el, "sim_gc.el", args.dir + "/spans_sim_gc_el.bin", &sums,
                report);
    TraceConfig(hybrid, "sim_gc.hybrid", args.dir + "/spans_sim_gc_hybrid.bin",
                &sums, report);
    EmitLayerMetrics(sums, 0, 0.0, 0.0, report);
    return;
  }
  const FacadeRun el_run = RunFacade(el, "sim_gc.el", report);
  const FacadeRun hybrid_run = RunFacade(hybrid, "sim_gc.hybrid", report);
  // The EL band spans the kill-free Figure 7 rows ({18,16} .. {18,7});
  // the hybrid band is +-5% around the EXPERIMENTS.md ablation value
  // (16.75 w/s), which the smaller object universe barely moves.
  GateBand(el_run.stats.log_writes_per_sec, 12.878, 13.728,
           "sim_gc.el log writes/s", report);
  GateBand(el_run.stats.records_recirculated, 1, 1e9,
           "sim_gc.el recirculated records", report);
  GateBand(hybrid_run.stats.log_writes_per_sec, 16.75 * 0.95, 16.75 * 1.05,
           "sim_gc.hybrid log writes/s", report);
  NoteOutcomes(el_run, "sim_gc.el", report);
  NoteOutcomes(hybrid_run, "sim_gc.hybrid", report);
  EmitEndToEnd({el_run, hybrid_run}, report);
}

}  // namespace perfbench
