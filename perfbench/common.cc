#include "common.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/crc32c.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Gate(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::PrintJson(std::ostream& out) const {
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures_[i]);
  }
  out << "], \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics_[i].name)
        << ": {\"value\": " << JsonNumber(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  out << "}, \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(notes_[i].first) << ": "
        << JsonString(notes_[i].second);
  }
  out << "}}\n";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  struct Known {
    unsigned long magic;
    const char* name;
  };
  static constexpr Known kKnown[] = {
      {0xEF53, "ext4"},        {0x01021994, "tmpfs"},
      {0x58465342, "xfs"},     {0x9123683E, "btrfs"},
      {0x794C7630, "overlayfs"}, {0x6969, "nfs"},
      {0x65735546, "fuse"},    {0x2FC12FC1, "zfs"},
      {0xF2F52010, "f2fs"},
  };
  const unsigned long magic = static_cast<unsigned long>(fs.f_type);
  for (const Known& known : kKnown) {
    if (known.magic == magic) return known.name;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << magic;
  return hex.str();
}

void AddFingerprint(Report* report, const std::string& dir) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  report->Gate(build_type == "Release",
               "build type is '" + build_type + "', not Release");
  report->Note("build_type", build_type);
  report->Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Note("crc32c_impl", elog::crc32c::ImplName());
  report->Note("fs_type", FilesystemType(dir));
}

std::vector<double> Ledger::SelfSeconds() const {
  std::vector<int64_t> self_ns(static_cast<size_t>(Layer::kCount), 0);
  for (const Span& span : spans_) {
    const int64_t duration = span.end_ns - span.start_ns;
    self_ns[static_cast<size_t>(span.layer)] += duration;
    if (span.parent >= 0) {
      self_ns[static_cast<size_t>(spans_[span.parent].layer)] -= duration;
    }
  }
  std::vector<double> seconds;
  seconds.reserve(self_ns.size());
  for (int64_t ns : self_ns) seconds.push_back(static_cast<double>(ns) * 1e-9);
  return seconds;
}

bool Ledger::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans_) {
    out.write(reinterpret_cast<const char*>(&span.start_ns), 8);
    out.write(reinterpret_cast<const char*>(&span.end_ns), 8);
    out.write(reinterpret_cast<const char*>(&span.parent), 4);
    const uint8_t layer = static_cast<uint8_t>(span.layer);
    out.write(reinterpret_cast<const char*>(&layer), 1);
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
