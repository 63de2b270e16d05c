#pragma once

/// \file util.h
/// \brief Clocks, order statistics, fingerprints and the result record of
/// the lshclust benchmark.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// FNV-1a over the assignment: the "results unchanged" stamp a later
/// change compares against.
inline uint64_t Fingerprint(std::span<const uint32_t> assignment) {
  uint64_t hash = 1469598103934665603ULL;
  for (const uint32_t value : assignment) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

inline std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Peak resident set of this process so far, in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// \brief Everything one run reports: metrics with units, the output
/// checks, and informational fields (fingerprints, sizes, counters).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  /// One output check. A failed check counts as a failed operation.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }

  /// Operations (fits, routed batches, ingests, publishes) attempted and
  /// failed outside the explicit checks.
  void Operations(uint64_t attempted, uint64_t failed,
                  const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) failures_.push_back(what);
  }

  void Info(const std::string& key, const std::string& value) {
    info_[key] = "\"" + value + "\"";
  }
  void Info(const std::string& key, double value) {
    info_[key] = Number(value);
  }

  std::string ToJson() const {
    std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out += (i ? ", \"" : "\"") + failures_[i] + "\"";
    }
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
             Number(metric.first) + ", \"unit\": \"" + metric.second + "\"}";
      first = false;
    }
    out += "}, \"info\": {";
    first = true;
    for (const auto& [key, value] : info_) {
      out += (first ? "\"" : ", \"") + key + "\": " + value;
      first = false;
    }
    return out + "}}";
  }

 private:
  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }

  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
