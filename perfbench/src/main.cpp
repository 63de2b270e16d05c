/// \file main.cpp
/// \brief lshclust_perfbench: runs one benchmark workload and prints one
/// JSON record (metrics, checks, fingerprints, provenance) as its last
/// stdout line. perfbench/run.py builds this binary and drives it.
///
///   lshclust_perfbench --workload=<fit-numeric|fit-categorical|serve-live>
///       --seed=<n> --seconds=<s> [--trace=0|1] [--smoke=0|1]
///       [--out-dir=<dir>] [--calibrate=0|1]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "simd/dispatch.h"
#include "util.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t length = std::strlen(name);
  if (std::strncmp(arg, name, length) != 0 || arg[length] != '=') return false;
  *value = arg + length + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions run;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (Flag(argv[i], "--workload", &value)) {
      run.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &value)) {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &value)) {
      run.trace = value == "1";
    } else if (Flag(argv[i], "--smoke", &value)) {
      run.smoke = value == "1";
    } else if (Flag(argv[i], "--out-dir", &value)) {
      run.out_dir = value;
    } else if (Flag(argv[i], "--calibrate", &value)) {
      run.calibrate = value == "1";
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (!(run.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  perfbench::Tracer tracer;
  if (!perfbench::RunWorkload(run, report, tracer)) {
    std::fprintf(stderr, "unknown workload: %s\n", run.workload.c_str());
    return 2;
  }
  report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  if (run.trace) {
    const std::string path = run.out_dir + "/spans-" + run.workload + "-" +
                             std::to_string(run.seed) + ".jsonl";
    report.Check(tracer.Write(path), "span dump written");
    report.Info("spans", path);
  }
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("compiler", __VERSION__);
  report.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("simd_tier",
              lshclust::simd::TierName(lshclust::simd::ActiveTier()));
  report.Info("cpu_features", lshclust::simd::CpuFeatureString());
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
