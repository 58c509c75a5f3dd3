#include "replica.h"

#include <utility>

#include "util/check.h"
#include "util/random.h"
#include "wal/block_format.h"

namespace perfbench {

using elog::SimTime;
using elog::TxId;

// --- TimedExecutor ---------------------------------------------------------

uint32_t TimedExecutor::Park(elog::sim::EventCallback callback) {
  if (free_.empty()) {
    parked_.push_back(std::move(callback));
    return static_cast<uint32_t>(parked_.size() - 1);
  }
  const uint32_t slot = free_.back();
  free_.pop_back();
  parked_[slot] = std::move(callback);
  return slot;
}

void TimedExecutor::Fire(uint32_t slot) {
  elog::sim::EventCallback callback = std::move(parked_[slot]);
  free_.push_back(slot);
  ScopedSpan span(ledger_, layer_);
  callback();
}

elog::sim::EventId TimedExecutor::ScheduleAt(SimTime time,
                                             elog::sim::EventCallback callback) {
  if (!ledger_->enabled()) return inner_->ScheduleAt(time, std::move(callback));
  const uint32_t slot = Park(std::move(callback));
  return inner_->ScheduleAt(time, [this, slot] { Fire(slot); });
}

elog::sim::EventId TimedExecutor::ScheduleAfter(
    SimTime delay, elog::sim::EventCallback callback) {
  if (!ledger_->enabled()) {
    return inner_->ScheduleAfter(delay, std::move(callback));
  }
  const uint32_t slot = Park(std::move(callback));
  return inner_->ScheduleAfter(delay, [this, slot] { Fire(slot); });
}

void TimedExecutor::PostFromAnyThread(std::function<void()> fn) {
  if (!ledger_->enabled()) {
    inner_->PostFromAnyThread(std::move(fn));
    return;
  }
  // The wrapper is built on the posting thread but runs, and records its
  // span, on the executor thread.
  inner_->PostFromAnyThread([this, fn = std::move(fn)] {
    ScopedSpan span(ledger_, layer_);
    fn();
  });
}

// --- TimedPort -------------------------------------------------------------

void TimedPort::Instrument(elog::disk::LogWriteRequest* request) {
  if (!ledger_->enabled()) return;
  const SimTime now = clock_->Now();
  {
    ScopedSpan span(ledger_, Layer::kTraceOnly);
    auto decoded = elog::wal::DecodeBlock(request->image);
    ELOG_CHECK(decoded.ok()) << "submitted block does not decode";
    ++stats_->blocks_submitted;
    for (const elog::wal::LogRecord& record : decoded->records) {
      stats_->payload_bytes += record.logged_size;
      if (record.type != elog::wal::RecordType::kCommit) continue;
      auto it = stats_->commit_at.find(record.tid);
      if (it == stats_->commit_at.end()) continue;  // a relocated copy
      stats_->hold_wait_us.push_back(static_cast<double>(now - it->second));
      stats_->commit_at.erase(it);
    }
    stats_->in_flight_max = std::max(stats_->in_flight_max, ++stats_->in_flight);
  }
  request->on_complete = [this, inner = std::move(request->on_complete),
                          now](const elog::Status& status) {
    {
      ScopedSpan span(ledger_, Layer::kTraceOnly);
      stats_->write_us.push_back(static_cast<double>(clock_->Now() - now));
      --stats_->in_flight;
      if (stats_->drives != nullptr) {
        stats_->flush_backlog_max =
            std::max(stats_->flush_backlog_max, stats_->drives->total_pending());
      }
    }
    ScopedSpan span(ledger_, Layer::kCoreCompletion);
    inner(status);
  };
}

void TimedPort::Submit(elog::disk::LogWriteRequest request) {
  Instrument(&request);
  ScopedSpan span(ledger_, Layer::kDiskSubmit);
  inner_->Submit(std::move(request));
}

void TimedPort::SubmitFront(elog::disk::LogWriteRequest request) {
  Instrument(&request);
  ScopedSpan span(ledger_, Layer::kDiskSubmit);
  inner_->SubmitFront(std::move(request));
}

// --- TimedSink -------------------------------------------------------------

TxId TimedSink::BeginTransaction(const elog::workload::TransactionType& type) {
  ScopedSpan span(ledger_, Layer::kCoreFg);
  return inner_->BeginTransaction(type);
}

void TimedSink::WriteUpdate(TxId tid, elog::Oid oid, uint32_t logged_size) {
  ScopedSpan span(ledger_, Layer::kCoreFg);
  inner_->WriteUpdate(tid, oid, logged_size);
}

void TimedSink::Commit(TxId tid, elog::workload::CommitCallback on_durable) {
  if (!ledger_->enabled()) {
    inner_->Commit(tid, std::move(on_durable));
    return;
  }
  uint32_t slot;
  {
    ScopedSpan span(ledger_, Layer::kTraceOnly);
    stats_->commit_at[tid] = clock_->Now();
    if (free_.empty()) {
      parked_.push_back(std::move(on_durable));
      slot = static_cast<uint32_t>(parked_.size() - 1);
    } else {
      slot = free_.back();
      free_.pop_back();
      parked_[slot] = std::move(on_durable);
    }
  }
  ScopedSpan span(ledger_, Layer::kCoreFg);
  inner_->Commit(tid, [this, slot](TxId acked) { Ack(slot, acked); });
}

void TimedSink::Ack(uint32_t slot, TxId tid) {
  elog::workload::CommitCallback callback = std::move(parked_[slot]);
  free_.push_back(slot);
  ScopedSpan span(ledger_, Layer::kWorkload);
  callback(tid);
}

void TimedSink::Abort(TxId tid) {
  ScopedSpan span(ledger_, Layer::kCoreFg);
  inner_->Abort(tid);
}

// --- Counters --------------------------------------------------------------

std::string Counters::Diff(const Counters& o) const {
  struct Field {
    const char* name;
    int64_t a, b;
  };
  const Field fields[] = {
      {"started", started, o.started},
      {"committed", committed, o.committed},
      {"killed", killed, o.killed},
      {"updates_written", updates_written, o.updates_written},
      {"records_appended", records_appended, o.records_appended},
      {"records_relocated", records_relocated, o.records_relocated},
      {"device_writes", device_writes, o.device_writes},
      {"flushes_completed", flushes_completed, o.flushes_completed},
      {"events", events, o.events},
      {"end_time", end_time, o.end_time},
      {"stable_objects", stable_objects, o.stable_objects},
      {"shadow_objects", shadow_objects, o.shadow_objects},
  };
  for (const Field& f : fields) {
    if (f.a != f.b) {
      return std::string(f.name) + " " + std::to_string(f.a) +
             "!=" + std::to_string(f.b);
    }
  }
  return "";
}

namespace {

void ManagerCounters(const elog::EphemeralLogManager* el,
                     const elog::HybridLogManager* hybrid, Counters* c) {
  if (el != nullptr) {
    c->records_appended = el->records_appended();
    c->records_relocated = el->records_forwarded() + el->records_recirculated();
  } else {
    c->records_appended = hybrid->records_appended();
    c->records_relocated = hybrid->records_regenerated();
  }
}

}  // namespace

Counters FacadeCounters(elog::db::Database& database) {
  Counters c;
  c.started = database.generator().started();
  c.committed = database.generator().committed();
  c.killed = database.generator().killed();
  c.updates_written = database.generator().updates_written();
  ManagerCounters(database.el_manager(), database.hybrid_manager(), &c);
  c.device_writes = database.device().writes_completed();
  c.flushes_completed = database.drives().total_flushes_completed();
  c.events = static_cast<int64_t>(database.simulator().events_processed());
  c.end_time = database.simulator().Now();
  c.stable_objects =
      static_cast<int64_t>(database.stable().materialized_objects());
  c.shadow_objects = static_cast<int64_t>(database.expected_state().size());
  return c;
}

// --- SimReplica ------------------------------------------------------------

SimReplica::SimReplica(const elog::db::DatabaseConfig& config, Ledger* ledger,
                       TraceStats* stats)
    : config_(config),
      ledger_(ledger),
      storage_(config.log.generation_blocks),
      device_exec_(&simulator_, ledger, Layer::kDiskEvent),
      drive_exec_(&simulator_, ledger, Layer::kCoreCompletion),
      manager_exec_(&simulator_, ledger, Layer::kCoreCompletion) {
  ELOG_CHECK(config.log.shards == 1 && !config.log.backend.is_file() &&
             !config.faults.enabled() && !config.duplex_log &&
             !config.health.enabled && !config.admission.enabled)
      << "the replica covers single-shard simulated runs only";
  storage_.set_block_pool(&block_pool_);
  device_ = std::make_unique<elog::disk::LogDevice>(
      &device_exec_, &storage_, config.log.log_write_latency, &metrics_);
  device_->ApplyHooks(elog::disk::DeviceHooks{}.WithBlockPool(&block_pool_));
  port_ = std::make_unique<TimedPort>(device_.get(), &simulator_, ledger, stats);
  drives_ = std::make_unique<elog::disk::DriveArray>(
      &drive_exec_, config.log.num_flush_drives, config.log.num_objects,
      config.log.flush_transfer_time, &metrics_);
  stats->drives = drives_.get();
  managers_ = elog::MakeLogManager(config.manager, config.log, &manager_exec_,
                                   port_.get(), drives_.get(), &metrics_);
  managers_.manager->set_block_pool(&block_pool_);
  sink_ = std::make_unique<TimedSink>(managers_.manager.get(), &simulator_,
                                      ledger, stats);
  generator_ = std::make_unique<elog::workload::WorkloadGenerator>(
      &simulator_, config.workload, sink_.get(), &metrics_);

  // The facade's hooks, doing the same work on the same container types.
  elog::LogManager* manager = managers_.manager.get();
  manager->set_kill_listener(this);
  manager->set_flush_apply_hook([this](elog::Oid oid, elog::Lsn lsn,
                                       uint64_t digest) {
    ScopedSpan span(ledger_, Layer::kDbHook);
    stable_.ApplyFlush(oid, lsn, digest);
  });
  manager->set_version_query([this](elog::Oid oid) {
    ScopedSpan span(ledger_, Layer::kDbHook);
    elog::db::ObjectVersion version = stable_.Get(oid);
    if (version.provisional) {
      return std::make_pair(version.prev_lsn, version.prev_digest);
    }
    return std::make_pair(version.lsn, version.value_digest);
  });
  manager->set_commit_hook(
      [this](TxId tid, const std::vector<elog::wal::LogRecord>& updates) {
        ScopedSpan span(ledger_, Layer::kDbHook);
        committed_tids_.insert(tid);
        for (const elog::wal::LogRecord& record : updates) {
          elog::db::ObjectVersion& version = shadow_[record.oid];
          if (record.lsn > version.lsn) {
            version.lsn = record.lsn;
            version.value_digest = record.value_digest;
          }
        }
      });
}

SimReplica::~SimReplica() = default;

void SimReplica::OnTransactionKilled(TxId tid) {
  generator_->NotifyKilled(tid);
  if (config_.stop_on_first_kill) simulator_.Stop();
}

void SimReplica::Run() {
  generator_->Start();
  // The facade's window snapshot: the same event at the same instant (its
  // few counter reads are not replicated).
  simulator_.ScheduleAt(config_.workload.runtime, [] {});
  simulator_.ScheduleAt(config_.workload.runtime + config_.drain_interval,
                        [this] { DrainStep(); });
  simulator_.Run();
}

void SimReplica::DrainStep() {
  ScopedSpan span(ledger_, Layer::kDbHook);
  if (generator_->active() == 0) return;
  managers_.manager->ForceWriteOpenBuffers();
  simulator_.ScheduleAfter(config_.drain_interval, [this] { DrainStep(); });
}

Counters SimReplica::counters() const {
  Counters c;
  c.started = generator_->started();
  c.committed = generator_->committed();
  c.killed = generator_->killed();
  c.updates_written = generator_->updates_written();
  ManagerCounters(managers_.el, managers_.hybrid, &c);
  c.device_writes = device_->writes_completed();
  c.flushes_completed = drives_->total_flushes_completed();
  c.events = static_cast<int64_t>(simulator_.events_processed());
  c.end_time = simulator_.Now();
  c.stable_objects = static_cast<int64_t>(stable_.materialized_objects());
  c.shadow_objects = static_cast<int64_t>(shadow_.size());
  return c;
}

double CalibrateKernelNsPerEvent(uint64_t events, uint32_t pending,
                                 uint64_t seed) {
  elog::sim::Simulator simulator;
  elog::Rng rng(seed);
  uint64_t fired = 0;
  struct Tick {
    elog::sim::Simulator* simulator;
    elog::Rng* rng;
    uint64_t* fired;
    uint64_t limit;
    uint32_t spread;
    void operator()() const {
      if (++*fired >= limit) return;
      simulator->ScheduleAfter(1 + static_cast<SimTime>(rng->NextBounded(spread)),
                               *this);
    }
  };
  const Tick tick{&simulator, &rng, &fired, events, 2 * pending};
  for (uint32_t i = 0; i < pending; ++i) {
    simulator.ScheduleAt(static_cast<SimTime>(i), tick);
  }
  const int64_t start = NowNs();
  simulator.Run();
  return static_cast<double>(NowNs() - start) /
         static_cast<double>(simulator.events_processed());
}

}  // namespace perfbench
