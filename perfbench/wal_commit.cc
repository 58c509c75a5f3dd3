// wal_commit: transactions committed through the EL manager to a real WAL
// file on the wall clock.
//
// A single-threaded closed loop keeps kInFlight transactions open; each is
// BeginTransaction, two WriteUpdates and Commit, and the next one starts
// from the acknowledgement. The path is core::WallClockExecutor ->
// EphemeralLogManager -> disk::FileLogDevice in wall-clock mode with
// fdatasync per block and O_DIRECT tried. The loop stops at the last
// acknowledgement, as a crash at that instant would: flushes still queued
// never reach the stable store, so recovery has to find the newest commits
// in the log. The device is closed, the file is read back with
// RecoverFromFile, RecoveryManager::Recover runs against the stable store
// the flush hook fed, and every acknowledged (oid, lsn) must come back.
//
// Settings the loop needs: max_hold_us bounds how long an open buffer
// waits for more records (with fewer commits in flight than fill a block,
// nothing else would ever close it), and the flush drives, timer models on
// this path, transfer in kFlushTransfer so they never become the
// bottleneck.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/manager_factory.h"
#include "core/wall_executor.h"
#include "db/recovery.h"
#include "db/stable_store.h"
#include "disk/drive_array.h"
#include "disk/file_format.h"
#include "disk/file_log_device.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using elog::Lsn;
using elog::Oid;
using elog::SimTime;
using elog::TxId;

namespace {

constexpr int kInFlight = 4;
constexpr int64_t kCommits = 20'000;
constexpr Oid kObjects = 1'000'000;
constexpr SimTime kMaxHold = 200;       // µs
constexpr SimTime kFlushTransfer = 50;  // µs
constexpr int kSetupRepeats = 15;

elog::LogManagerOptions WalOptions() {
  elog::LogManagerOptions options;
  options.generation_blocks = {64, 64};
  options.recirculation = true;
  options.max_hold_us = kMaxHold;
  options.flush_transfer_time = kFlushTransfer;
  options.num_objects = kObjects;
  return options;
}

/// One open device + manager stack over a shared executor.
struct Stack {
  std::unique_ptr<elog::disk::FileLogDevice> device;
  std::unique_ptr<TimedPort> port;
  std::unique_ptr<elog::disk::DriveArray> drives;
  elog::LogManagerSet managers;
  elog::disk::FileGeometry geometry;
};

struct Executors {
  Executors(elog::core::WallClockExecutor* wall, Ledger* ledger)
      : device(wall, ledger, Layer::kDiskEvent),
        drives(wall, ledger, Layer::kCoreCompletion),
        manager(wall, ledger, Layer::kCoreCompletion) {}
  TimedExecutor device;
  TimedExecutor drives;
  TimedExecutor manager;
};

std::unique_ptr<Stack> OpenStack(const std::string& path, Executors* exec,
                                 Ledger* ledger, TraceStats* stats,
                                 elog::sim::MetricsRegistry* metrics) {
  const elog::LogManagerOptions options = WalOptions();
  elog::disk::FileLogDeviceOptions file;
  file.path = path;
  file.model_latency = 0;  // wall-clock completions
  file.durable_sync = true;
  file.direct_io = true;
  auto opened = elog::disk::FileLogDevice::Open(
      &exec->device, options.generation_blocks, file);
  ELOG_CHECK(opened.ok()) << opened.status().message();
  auto stack = std::make_unique<Stack>();
  stack->device = std::move(opened).value();
  stack->geometry = stack->device->geometry();
  stack->port = std::make_unique<TimedPort>(stack->device.get(), &exec->manager,
                                            ledger, stats);
  stack->drives = std::make_unique<elog::disk::DriveArray>(
      &exec->drives, options.num_flush_drives, options.num_objects,
      options.flush_transfer_time, metrics);
  stats->drives = stack->drives.get();
  stack->managers = elog::MakeLogManager(elog::ManagerKind::kEphemeral, options,
                                         &exec->manager, stack->port.get(),
                                         stack->drives.get(), metrics);
  return stack;
}

/// The closed-loop client and the oracle's view of what it was promised.
class Client : public elog::KillListener {
 public:
  Client(elog::workload::TransactionSink* sink,
         elog::core::WallClockExecutor* wall, uint64_t seed)
      : sink_(sink), wall_(wall), rng_(seed) {
    type_.num_data_records = 2;
    type_.data_record_bytes = 100;
    latency_ms_.reserve(kCommits);
  }

  void StartOne() {
    ++issued_;
    const TxId tid = sink_->BeginTransaction(type_);
    sink_->WriteUpdate(tid, static_cast<Oid>(rng_.NextBounded(kObjects)), 100);
    sink_->WriteUpdate(tid, static_cast<Oid>(rng_.NextBounded(kObjects)), 100);
    const int64_t start = NowNs();
    sink_->Commit(tid, [this, start](TxId) { OnAck(start); });
  }

  void OnTransactionKilled(TxId) override { ++killed_; }

  void OnCommitHook(const std::vector<elog::wal::LogRecord>& updates) {
    for (const elog::wal::LogRecord& record : updates) {
      auto& version = acked_[record.oid];
      if (record.lsn > version.first) version = {record.lsn, record.value_digest};
    }
  }

  int64_t issued() const { return issued_; }
  int64_t acked() const { return static_cast<int64_t>(latency_ms_.size()); }
  int64_t killed() const { return killed_; }
  int64_t last_ack_ns() const { return last_ack_ns_; }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::unordered_map<Oid, std::pair<Lsn, uint64_t>>& acked_versions()
      const {
    return acked_;
  }

 private:
  void OnAck(int64_t start) {
    last_ack_ns_ = NowNs();
    latency_ms_.push_back(static_cast<double>(last_ack_ns_ - start) * 1e-6);
    if (issued_ < kCommits) {
      StartOne();
    } else if (acked() == issued_) {
      wall_->Stop();  // the crash point: the last acknowledgement
    }
  }

  elog::workload::TransactionSink* sink_;
  elog::core::WallClockExecutor* wall_;
  elog::Rng rng_;
  elog::workload::TransactionType type_;
  int64_t issued_ = 0;
  int64_t killed_ = 0;
  int64_t last_ack_ns_ = 0;
  std::vector<double> latency_ms_;
  std::unordered_map<Oid, std::pair<Lsn, uint64_t>> acked_;
};

/// Zeroes the frame header of the slot holding the highest write
/// sequence: the last block that became durable is gone, as if the
/// device had lost it. Self-test fault injection only.
bool DropLastBlock(const std::string& path,
                   const elog::disk::FileGeometry& geometry) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return false;
  uint64_t best_seq = 0;
  int64_t best_offset = -1;
  for (uint64_t i = 0; i < geometry.total_slots(); ++i) {
    const uint64_t offset =
        elog::disk::kSuperblockBytes + i * geometry.slot_bytes;
    uint8_t header[elog::disk::kFrameHeaderBytes];
    if (::pread(fd, header, sizeof(header), static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(sizeof(header))) {
      break;
    }
    if (elog::disk::FrameIsEmpty(header, sizeof(header))) continue;
    uint64_t seq = 0;
    std::memcpy(&seq, header + elog::disk::kFrameSeqOffset, sizeof(seq));
    if (best_offset < 0 || seq > best_seq) {
      best_seq = seq;
      best_offset = static_cast<int64_t>(offset);
    }
  }
  bool ok = best_offset >= 0;
  if (ok) {
    const uint8_t zeros[elog::disk::kFrameHeaderBytes] = {};
    ok = ::pwrite(fd, zeros, sizeof(zeros), best_offset) ==
             static_cast<ssize_t>(sizeof(zeros)) &&
         ::fdatasync(fd) == 0;
  }
  ::close(fd);
  return ok;
}

struct LoopResult {
  double setup_s = 0, run_s = 0, teardown_s = 0, scan_s = 0, recover_s = 0;
  double commit_p50_ms = 0, commit_p99_ms = 0;
  int64_t acked = 0, device_writes = 0, stable_objects = 0, shadow_objects = 0;
  int64_t relocated = 0, discarded = 0, kills = 0, table_bytes = 0;
  uint64_t events = 0;
  bool direct_io = false, io_uring = false;
};

LoopResult RunLoop(const TrialArgs& args, const std::string& path,
                   Ledger* ledger, TraceStats* stats, Report* report) {
  LoopResult result;
  elog::core::WallClockExecutor wall;
  Executors exec(&wall, ledger);
  elog::sim::MetricsRegistry metrics;

  // Stacks share the WAL path, so each set-up sample opens one alone and
  // closes it again. A close (worker join, fd close) takes ~0.1 ms, so
  // teardown is the median over these closes and the run's own.
  std::vector<double> setup_samples, teardown_samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t t = NowNs();
    std::unique_ptr<Stack> sample =
        OpenStack(path, &exec, ledger, stats, &metrics);
    setup_samples.push_back(SecondsSince(t));
    t = NowNs();
    sample.reset();
    teardown_samples.push_back(SecondsSince(t));
  }
  result.setup_s = Median(setup_samples);
  std::unique_ptr<Stack> stack = OpenStack(path, &exec, ledger, stats, &metrics);
  result.direct_io = stack->device->direct_io_active();
  result.io_uring = stack->device->io_uring_active();

  elog::LogManager* manager = stack->managers.manager.get();
  TimedSink sink(manager, &wall, ledger, stats);
  Client client(&sink, &wall, args.seed);
  elog::db::StableStore stable;
  manager->set_kill_listener(&client);
  manager->set_flush_apply_hook([&](Oid oid, Lsn lsn, uint64_t digest) {
    ScopedSpan span(ledger, Layer::kDbHook);
    stable.ApplyFlush(oid, lsn, digest);
  });
  manager->set_commit_hook(
      [&](TxId, const std::vector<elog::wal::LogRecord>& updates) {
        ScopedSpan span(ledger, Layer::kDbHook);
        client.OnCommitHook(updates);
      });

  const int64_t start = NowNs();
  wall.ScheduleAfter(0, [&client] {
    for (int i = 0; i < kInFlight; ++i) client.StartOne();
  });
  wall.Run();
  result.run_s = static_cast<double>(client.last_ack_ns() - start) * 1e-9;
  result.events = wall.events_processed();
  result.acked = client.acked();
  result.kills = client.killed();
  result.commit_p50_ms = Percentile(client.latency_ms(), 50);
  result.commit_p99_ms = Percentile(client.latency_ms(), 99);
  const elog::EphemeralLogManager& el = *stack->managers.el;
  el.CheckInvariants();
  result.relocated = el.records_forwarded() + el.records_recirculated();
  result.discarded = el.records_discarded();
  result.table_bytes = static_cast<int64_t>(
      el.lot_table_bytes() + el.ltt_table_bytes() + el.cell_arena().bytes());
  result.device_writes = stack->device->writes_completed();

  report->attempted += client.issued();
  report->failed += client.issued() - client.acked();
  report->Gate(client.acked() == kCommits,
               "wal_commit: " + std::to_string(client.acked()) + " of " +
                   std::to_string(kCommits) + " commits acknowledged");
  report->Gate(client.killed() == 0, "wal_commit: transactions killed");
  report->Gate(stack->device->write_errors() == 0, "wal_commit: write errors");

  const elog::disk::FileGeometry geometry = stack->geometry;
  int64_t t = NowNs();
  stack.reset();  // manager, then the device (joins its worker) and drives
  teardown_samples.push_back(SecondsSince(t));
  result.teardown_s = Median(teardown_samples);

  if (args.inject == "drop_last_block") {
    report->Gate(DropLastBlock(path, geometry), "cannot drop the last block");
  }

  t = NowNs();
  elog::disk::FileRecoveryResult file = elog::disk::RecoverFromFile(path);
  result.scan_s = SecondsSince(t);
  report->Gate(file.status.ok(), "RecoverFromFile: " + file.status.message());
  report->Gate(!file.stopped_early,
               "RecoverFromFile stopped early: " + file.stop_reason);
  t = NowNs();
  elog::db::RecoveryResult recovered =
      elog::db::RecoveryManager::Recover(file.storage, stable);
  result.recover_s = SecondsSince(t);

  int64_t misses = 0;
  for (const auto& [oid, version] : client.acked_versions()) {
    auto it = recovered.state.find(oid);
    if (it == recovered.state.end() || it->second.lsn != version.first ||
        it->second.value_digest != version.second) {
      ++misses;
    }
  }
  report->failed += misses;
  report->Gate(misses == 0, "wal_commit: recovery lost " +
                                std::to_string(misses) +
                                " acknowledged versions");
  result.stable_objects = static_cast<int64_t>(stable.materialized_objects());
  result.shadow_objects = static_cast<int64_t>(client.acked_versions().size());
  return result;
}

}  // namespace

void RunWalCommit(const TrialArgs& args, Report* report) {
  const std::string path = args.dir + "/wal_commit.wal";
  report->Note("fs_type_wal", FilesystemType(args.dir));
  report->Note("in_flight", std::to_string(kInFlight));
  report->Note("commits", std::to_string(kCommits));
  report->Note("max_hold_us", std::to_string(kMaxHold));
  report->Note("flush_transfer_us", std::to_string(kFlushTransfer));

  Ledger off(false);
  TraceStats unused;
  const LoopResult plain = RunLoop(args, path, &off, &unused, report);
  report->Note("direct_io_active", plain.direct_io ? "1" : "0");
  report->Note("io_uring_active", plain.io_uring ? "1" : "0");
  if (!args.trace) {
    report->Add("setup_s", plain.setup_s, "s");
    report->Add("run_s", plain.run_s, "s");
    report->Add("txn_per_s", static_cast<double>(plain.acked) / plain.run_s,
                "1/s");
    report->Add("teardown_s", plain.teardown_s, "s");
    report->Add("recover_ms", (plain.scan_s + plain.recover_s) * 1000.0, "ms");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    report->Note("commit_p50_ms", std::to_string(plain.commit_p50_ms));
    report->Note("commit_p99_ms", std::to_string(plain.commit_p99_ms));
    return;
  }

  // Traced loop, compared with the untraced one above.
  Ledger ledger(true);
  TraceStats stats;
  const LoopResult traced = RunLoop(args, path, &ledger, &stats, report);
  const std::vector<double> self = ledger.SelfSeconds();
  LayerSums sums;
  for (size_t i = 0; i < self.size(); ++i) sums.self_s[i] = self[i];
  double spans_s = 0;
  for (double s : self) spans_s += s;
  sums.replica_traced_s = traced.run_s;
  sums.replica_untraced_s = plain.run_s;
  sums.facade_run_s = plain.run_s;  // no facade on this path: no residual
  // The executor loop (wakeups and the waits for fdatasync) is what no
  // span covers; on this path it stands in for the event kernel.
  sums.kernel_s = traced.run_s - spans_s;
  sums.events = static_cast<int64_t>(traced.events);
  sums.kills = traced.kills;
  sums.relocated = traced.relocated;
  sums.discarded = traced.discarded;
  sums.commits = traced.acked;
  sums.device_writes = traced.device_writes;
  sums.table_bytes = traced.table_bytes;
  sums.stable_objects = traced.stable_objects;
  sums.shadow_objects = traced.shadow_objects;
  sums.recover_s = traced.recover_s;
  sums.blocks = stats.blocks_submitted;
  sums.payload_bytes = stats.payload_bytes;
  sums.hold_wait_us = stats.hold_wait_us;
  sums.write_us = stats.write_us;
  sums.commit_p50_ms = traced.commit_p50_ms;
  sums.commit_p99_ms = traced.commit_p99_ms;
  sums.queue_depth_max = stats.in_flight_max;
  sums.flush_backlog_max = static_cast<int64_t>(stats.flush_backlog_max);
  sums.spans = ledger.span_count();
  report->Gate(ledger.WriteFile(args.dir + "/spans_wal_commit.bin"),
               "cannot write the span file");
  EmitLayerMetrics(sums, 0, 0.0, traced.scan_s, report);
}

}  // namespace perfbench
