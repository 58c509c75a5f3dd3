// Shared pieces of the benchmark driver: timing, statistics, the result
// record every workload fills in, the run fingerprint, and the span ledger
// the traced runs use.
//
// A workload produces one Report per process run. The report carries the
// correctness gates (a failed gate makes the run incorrect and the driver
// exits non-zero), the attempted/failed transaction counts, the metrics
// in the order the workload added them, and a fingerprint of the host and
// build. Report::PrintJson writes it as a single JSON line for run.py.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns` (a NowNs() reading).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

/// Set-up time of the objects `make()` returns: the median over `batches`
/// batches of the mean time to construct one of `per_batch` objects. A
/// batch is kept alive until it is timed and destroyed untimed, so the
/// figure is construction alone, averaged above the clock's resolution.
template <typename Make>
double SetupSeconds(Make make, int batches, int per_batch) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    std::vector<decltype(make())> batch;
    batch.reserve(static_cast<size_t>(per_batch));
    const int64_t start = NowNs();
    for (int i = 0; i < per_batch; ++i) batch.push_back(make());
    samples.push_back(SecondsSince(start) / per_batch);
  }
  return Median(samples);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Records a correctness gate; a false `ok` marks the run incorrect and
  /// keeps `what` for the error report.
  void Gate(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);
  /// Context for the human reader (printed, never compared).
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// One JSON object on one line: correct, attempted, failed, failures,
  /// metrics (name -> {value, unit}) and notes.
  void PrintJson(std::ostream& out) const;

 private:
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Records nproc, the build type, the CRC32C implementation Extend()
/// dispatches to, and the filesystem type under `dir`. The build type
/// must be Release: any other build fails the run.
void AddFingerprint(Report* report, const std::string& dir);

/// Filesystem type name of the mount holding `path` (statfs magic).
std::string FilesystemType(const std::string& path);

// --- Tracing ---------------------------------------------------------------

/// Layers a span can be charged to. Each span's self time (its duration
/// minus the time its child spans cover) is charged to its layer.
enum class Layer : uint8_t {
  kCoreFg,          // manager Begin/WriteUpdate/Commit/Abort
  kCoreCompletion,  // manager work on device/flush completions and timers
  kDiskSubmit,      // LogWritePort::Submit/SubmitFront into the device
  kDiskEvent,       // the device's own completion handling
  kDbHook,          // flush/commit hooks and the facade's drain events
  kWorkload,        // workload code reached through a wrapper (commit acks)
  kTraceOnly,       // bookkeeping only the traced run does (overhead)
  kCount,
};

/// In-memory span store. Spans nest strictly (single thread); self times
/// are computed from the stored spans when the run ends, and the spans
/// can be written out as a binary file at exit.
class Ledger {
 public:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, -1 at top level
    Layer layer;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int32_t Open(Layer layer) {
    if (!enabled_) return -1;
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{NowNs(), 0, open_, layer});
    open_ = index;
    return index;
  }
  void Close(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }

  /// Self seconds per layer, indexed by Layer.
  std::vector<double> SelfSeconds() const;
  size_t span_count() const { return spans_.size(); }

  /// Writes the spans as packed little-endian records
  /// (start_ns i64, end_ns i64, parent i32, layer u8). Returns false on an
  /// I/O error.
  bool WriteFile(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Ledger* ledger, Layer layer)
      : ledger_(ledger), index_(ledger->Open(layer)) {}
  ~ScopedSpan() { ledger_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Ledger* ledger_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
