// Timing wrappers around the layer boundaries, and the traced replica of
// the db::Database component graph.
//
// Database::Run() keeps its layer boundaries inside the facade, so the
// traced run rebuilds the same graph from the same public constructors
// (Simulator, LogDevice, DriveArray, the manager, WorkloadGenerator,
// StableStore) and puts a wrapper on each boundary:
//
//   * TimedSink    — the manager as the generator's TransactionSink;
//   * TimedPort    — the log device as the manager's LogWritePort, plus the
//                    manager's handling of each device completion;
//   * TimedExecutor — the scheduling surface handed to the device, the
//                    flush drives and the manager, so each of their events
//                    (device completions, flush completions, manager
//                    timers) is a span;
//   * the flush and commit hooks, timed by the replica itself.
//
// With tracing off every wrapper forwards without recording, so the
// untraced replica measures what the wrappers alone cost. The replica must
// reproduce the facade run's simulated counters exactly (Counters).

#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "core/exec.h"
#include "core/manager_factory.h"
#include "db/database.h"
#include "db/stable_store.h"
#include "disk/drive_array.h"
#include "disk/log_device.h"
#include "disk/log_storage.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "wal/block_pool.h"
#include "workload/generator.h"

namespace perfbench {

/// Per-layer observations the traced run collects at the boundaries.
struct TraceStats {
  int64_t blocks_submitted = 0;
  /// Accounted record bytes of every submitted block (wal.block_fill).
  double payload_bytes = 0.0;
  /// Commit -> submit of the block carrying the COMMIT, executor µs.
  std::vector<double> hold_wait_us;
  /// Submit -> completion of each block write, executor µs.
  std::vector<double> write_us;
  int64_t in_flight = 0;
  int64_t in_flight_max = 0;
  size_t flush_backlog_max = 0;
  std::unordered_map<elog::TxId, elog::SimTime> commit_at;
  /// Sampled at each device completion when set.
  const elog::disk::DriveArray* drives = nullptr;
};

class TimedExecutor final : public elog::core::CompletionExecutor {
 public:
  TimedExecutor(elog::core::CompletionExecutor* inner, Ledger* ledger,
                Layer layer)
      : inner_(inner), ledger_(ledger), layer_(layer) {}

  elog::SimTime Now() const override { return inner_->Now(); }
  elog::sim::EventId ScheduleAt(elog::SimTime time,
                                elog::sim::EventCallback callback) override;
  elog::sim::EventId ScheduleAfter(elog::SimTime delay,
                                   elog::sim::EventCallback callback) override;
  bool Cancel(elog::sim::EventId id) override { return inner_->Cancel(id); }
  bool SupportsCrossThreadPost() const override {
    return inner_->SupportsCrossThreadPost();
  }
  void PostFromAnyThread(std::function<void()> fn) override;
  void RetainExternalWork() override { inner_->RetainExternalWork(); }
  void ReleaseExternalWork() override { inner_->ReleaseExternalWork(); }

 private:
  /// Parks `callback` and returns the slot; the scheduled event captures
  /// only (this, slot) so it stays within the inline-callback budget.
  uint32_t Park(elog::sim::EventCallback callback);
  void Fire(uint32_t slot);

  elog::core::CompletionExecutor* inner_;
  Ledger* ledger_;
  Layer layer_;
  std::vector<elog::sim::EventCallback> parked_;
  std::vector<uint32_t> free_;
};

class TimedPort final : public elog::disk::LogWritePort {
 public:
  TimedPort(elog::disk::LogWritePort* inner,
            const elog::core::CompletionExecutor* clock, Ledger* ledger,
            TraceStats* stats)
      : inner_(inner), clock_(clock), ledger_(ledger), stats_(stats) {}

  void Submit(elog::disk::LogWriteRequest request) override;
  void SubmitFront(elog::disk::LogWriteRequest request) override;

 private:
  void Instrument(elog::disk::LogWriteRequest* request);

  elog::disk::LogWritePort* inner_;
  const elog::core::CompletionExecutor* clock_;
  Ledger* ledger_;
  TraceStats* stats_;
};

class TimedSink final : public elog::workload::TransactionSink {
 public:
  TimedSink(elog::LogManager* inner,
            const elog::core::CompletionExecutor* clock, Ledger* ledger,
            TraceStats* stats)
      : inner_(inner), clock_(clock), ledger_(ledger), stats_(stats) {}

  elog::TxId BeginTransaction(
      const elog::workload::TransactionType& type) override;
  void WriteUpdate(elog::TxId tid, elog::Oid oid,
                   uint32_t logged_size) override;
  void Commit(elog::TxId tid,
              elog::workload::CommitCallback on_durable) override;
  void Abort(elog::TxId tid) override;

 private:
  void Ack(uint32_t slot, elog::TxId tid);

  elog::LogManager* inner_;
  const elog::core::CompletionExecutor* clock_;
  Ledger* ledger_;
  TraceStats* stats_;
  std::vector<elog::workload::CommitCallback> parked_;
  std::vector<uint32_t> free_;
};

/// The simulated counters a replica must reproduce exactly.
struct Counters {
  int64_t started = 0;
  int64_t committed = 0;
  int64_t killed = 0;
  int64_t updates_written = 0;
  int64_t records_appended = 0;
  int64_t records_relocated = 0;
  int64_t device_writes = 0;
  int64_t flushes_completed = 0;
  int64_t events = 0;
  int64_t end_time = 0;
  int64_t stable_objects = 0;
  int64_t shadow_objects = 0;

  /// Empty when equal, else "name a!=b" for the first difference.
  std::string Diff(const Counters& other) const;
};

Counters FacadeCounters(elog::db::Database& database);

/// The facade's component graph, rebuilt with timing wrappers. Supports
/// the configurations the benchmark runs: one shard, the simulated log
/// device, EL or hybrid manager, no faults, health, admission or obs.
class SimReplica final : public elog::KillListener {
 public:
  SimReplica(const elog::db::DatabaseConfig& config, Ledger* ledger,
             TraceStats* stats);
  ~SimReplica() override;

  /// Same schedule as Database::Run(): arrivals, the window snapshot at
  /// the end of the runtime, then the drain loop.
  void Run();

  void OnTransactionKilled(elog::TxId tid) override;

  Counters counters() const;
  uint64_t events() const { return simulator_.events_processed(); }

 private:
  void DrainStep();

  elog::db::DatabaseConfig config_;
  Ledger* ledger_;
  elog::wal::BlockImagePool block_pool_;
  elog::sim::Simulator simulator_;
  elog::sim::MetricsRegistry metrics_;
  elog::disk::LogStorage storage_;
  TimedExecutor device_exec_;
  TimedExecutor drive_exec_;
  TimedExecutor manager_exec_;
  std::unique_ptr<elog::disk::LogDevice> device_;
  std::unique_ptr<TimedPort> port_;
  std::unique_ptr<elog::disk::DriveArray> drives_;
  elog::LogManagerSet managers_;
  std::unique_ptr<TimedSink> sink_;
  std::unique_ptr<elog::workload::WorkloadGenerator> generator_;
  elog::db::StableStore stable_;
  std::unordered_map<elog::Oid, elog::db::ObjectVersion> shadow_;
  std::unordered_set<elog::TxId> committed_tids_;
};

/// Host nanoseconds per event of a bare sim::Simulator: `events` events
/// with trivial callbacks, each rescheduling one event so `pending` stay
/// queued. The traced run charges the event kernel with this rate.
double CalibrateKernelNsPerEvent(uint64_t events, uint32_t pending,
                                 uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
