#pragma once

#include <cstdint>
#include <string>

#include "trace.h"
#include "util.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: also runs the span-instrumented engine and reports the
  /// per-layer split.
  bool trace = false;
  /// Seconds-long inputs for the benchmark's own tests; same checks.
  bool smoke = false;
  /// serve-live only: instead of the workload, measure the session's
  /// unpaced IngestBatch throughput, from which the writer's pace is set.
  bool calibrate = false;
  /// Where model files and the span dump go.
  std::string out_dir = ".";
};

/// Runs one workload into `report` (and `tracer` when traced). Returns
/// false for an unknown workload name.
bool RunWorkload(const RunOptions& options, Report& report, Tracer& tracer);

}  // namespace perfbench
