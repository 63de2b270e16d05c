#pragma once

/// \file trace.h
/// \brief The traced run's span recorder and the two wrappers that let the
/// benchmark instantiate the library's public `ClusteringEngine` template
/// with timing around each layer's calls — nothing inside the library is
/// instrumented.
///
///  * `TimedTraits<Base>` derives from a library traits class and times
///    seeding, centroid updates and cost evaluation; the distance kernel
///    is inherited untouched.
///  * `TimedProvider<Family>` wraps `ShortlistProvider<Family>` and times
///    `Prepare` and every `GetCandidates` call. Each worker's calls are
///    summed into its own slot (bound to the worker's scratch, so no two
///    threads share one); the gap between consecutive calls on one worker
///    is that worker's exact-distance scan of the previous shortlist.
///
/// Both wrappers forward to the library unchanged, so a traced Fit assigns
/// bit-identically to the facade Fit with the same spec (the benchmark
/// checks the fingerprints).
///
/// Accounting of a parallel assignment pass of wall time W on P pool
/// workers: candidates = sum of GetCandidates time / P, distance = sum of
/// inter-call gaps / P, pass wait = W - (both sums) / P. Every other layer
/// is a span on the calling thread. Pass wait, the initial pass and
/// Prepare's rest are residuals: they absorb whatever the timed pieces
/// leave (idle workers, pool wake-ups, the per-pass assignment copy, the
/// scan after each worker's last GetCandidates). Unattributed time, the
/// traced Fit's wall time minus every layer's share, is therefore close
/// to 0 by construction: it shows the spans tile the Fit, not that each
/// piece is attributed to the right layer.

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/shortlist_provider.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util.h"

namespace perfbench {

/// One recorded interval. Aggregate spans fold many calls of one worker:
/// `busy_ns` is their summed duration and `count` the number of calls.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int worker = -1;  ///< -1 = the benchmark's main thread
  int64_t busy_ns = 0;
  uint64_t count = 1;
};

/// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  int Add(Span span) {
    if (span.busy_ns == 0 && span.count == 1) {
      span.busy_ns = span.end_ns - span.start_ns;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent = -1) {
    return Add(Span{name, start_ns, end_ns, parent});
  }

  /// JSON lines, one span per line, times relative to the first span.
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"worker\": %d, "
                   "\"busy_us\": %.3f, \"count\": %llu}\n",
                   i, s.name.c_str(), (s.start_ns - origin) * 1e-3,
                   (s.end_ns - origin) * 1e-3, s.parent, s.worker,
                   s.busy_ns * 1e-3, static_cast<unsigned long long>(s.count));
    }
    return std::fclose(file) == 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-worker GetCandidates accumulator of the current pass. Cache-line
/// aligned: each is written per item by one worker.
struct alignas(64) WorkerSlot {
  int64_t first_start = -1;
  int64_t last_end = 0;
  int64_t busy = 0;
  uint64_t calls = 0;
};

/// Self time per layer of one traced Fit, in seconds.
struct FitLayers {
  double total = 0;
  double seed = 0;
  double initial_pass = 0;
  double sign = 0;
  double index_build = 0;
  double prepare_other = 0;
  double candidates = 0;
  double distance = 0;
  double pass_wait = 0;
  double update = 0;
  double cost_eval = 0;

  double Unattributed() const {
    return total - (seed + initial_pass + sign + index_build + prepare_other +
                    candidates + distance + pass_wait + update + cost_eval);
  }
};

/// Timeline of one traced engine run. The engine calls back (through the
/// wrappers) in a fixed order on the calling thread: seeding, the initial
/// pass (closed by the first UpdateCentroids), Prepare, then per iteration
/// a pass (closed by UpdateCentroids) and a cost evaluation. Each
/// callback closes the interval since the previous one.
class FitTrace {
 public:
  FitTrace(Tracer* tracer, std::string prefix, uint32_t workers)
      : tracer_(tracer), prefix_(std::move(prefix)), workers_(workers) {}

  void BeginRun() { run_span_start_ = NowNs(); }
  void EndRun() {
    const int64_t end = NowNs();
    layers_.total = (end - run_span_start_) * 1e-9;
    tracer_->Add(Span{prefix_ + ".fit", run_span_start_, end, -1});
  }

  void SeedBegin() { seed_start_ = NowNs(); }
  void SeedEnd() { seed_end_ = NowNs(); }

  WorkerSlot* NewSlot() {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_.emplace_back();
    return &slots_.back();
  }

  void Prepare(int64_t start, int64_t end, double sign_s, double index_s) {
    const int span = tracer_->Add(prefix_ + ".prepare", start, end);
    const int64_t sign_end = start + static_cast<int64_t>(sign_s * 1e9);
    tracer_->Add("hashing.sign", start, sign_end, span);
    tracer_->Add("lsh.index_build", sign_end,
                 sign_end + static_cast<int64_t>(index_s * 1e9), span);
    layers_.sign += sign_s;
    layers_.index_build += index_s;
    layers_.prepare_other += (end - start) * 1e-9 - sign_s - index_s;
    mark_ = end;
  }

  void UpdateBegin() {
    const int64_t now = NowNs();
    if (updates_ == 0) {
      tracer_->Add(prefix_ + ".seed", seed_start_, seed_end_);
      layers_.seed += (seed_end_ - seed_start_) * 1e-9;
      tracer_->Add(prefix_ + ".initial_pass", seed_end_, now);
      layers_.initial_pass += (now - seed_end_) * 1e-9;
    } else {
      ClosePass(mark_, now);
    }
    update_start_ = now;
  }

  void UpdateEnd() {
    mark_ = NowNs();
    tracer_->Add(prefix_ + ".update", update_start_, mark_);
    layers_.update += (mark_ - update_start_) * 1e-9;
    ++updates_;
  }

  void CostBegin() { cost_start_ = NowNs(); }
  void CostEnd() {
    mark_ = NowNs();
    tracer_->Add(prefix_ + ".cost_eval", cost_start_, mark_);
    layers_.cost_eval += (mark_ - cost_start_) * 1e-9;
  }

  const FitLayers& layers() const { return layers_; }

 private:
  /// Folds the worker slots of the pass [start, end) into the layer
  /// totals. A pass without slots is an exhaustive pass: all of it is
  /// exact-distance scanning.
  void ClosePass(int64_t start, int64_t end) {
    const int pass = tracer_->Add(prefix_ + ".pass", start, end);
    const double wall = (end - start) * 1e-9;
    int64_t candidates = 0;
    int64_t distance = 0;
    bool any = false;
    int worker = 0;
    for (WorkerSlot& slot : slots_) {
      if (slot.calls > 0) {
        any = true;
        const int64_t gaps = slot.last_end - slot.first_start - slot.busy;
        candidates += slot.busy;
        distance += gaps;
        tracer_->Add(Span{"core.candidates", slot.first_start, slot.last_end,
                          pass, worker, slot.busy, slot.calls});
        tracer_->Add(Span{prefix_ + ".distance", slot.first_start,
                          slot.last_end, pass, worker, gaps, slot.calls});
      }
      slot = WorkerSlot{};
      ++worker;
    }
    if (!any) {
      layers_.distance += wall;
      return;
    }
    const double busy = static_cast<double>(candidates + distance) * 1e-9 /
                        static_cast<double>(workers_);
    layers_.candidates += candidates * 1e-9 / workers_;
    layers_.distance += distance * 1e-9 / workers_;
    layers_.pass_wait += wall - busy;
  }

  Tracer* tracer_;
  std::string prefix_;
  uint32_t workers_;
  FitLayers layers_;
  int64_t run_span_start_ = 0;
  int64_t seed_start_ = 0;
  int64_t seed_end_ = 0;
  int64_t update_start_ = 0;
  int64_t cost_start_ = 0;
  int64_t mark_ = 0;
  uint32_t updates_ = 0;
  std::mutex slots_mutex_;
  std::deque<WorkerSlot> slots_;  // stable addresses for the scratches
};

/// Library traits with seeding, centroid updates and cost evaluation
/// timed into `trace` (set before each engine run; traced runs are
/// sequential).
template <typename Base>
struct TimedTraits : Base {
  using typename Base::Centroids;
  using typename Base::Dataset;
  using typename Base::Options;

  static inline FitTrace* trace = nullptr;

  static lshclust::Result<std::vector<uint32_t>> SelectSeedItems(
      const Dataset& dataset, const Options& options, lshclust::Rng& rng) {
    trace->SeedBegin();
    return Base::SelectSeedItems(dataset, options, rng);
  }

  static void SeedCentroid(Centroids& centroids, uint32_t cluster,
                           const Dataset& dataset, uint32_t item) {
    Base::SeedCentroid(centroids, cluster, dataset, item);
    trace->SeedEnd();
  }

  static void UpdateCentroids(const Dataset& dataset, Centroids& centroids,
                              std::span<const uint32_t> assignment,
                              const Options& options, lshclust::Rng& rng) {
    trace->UpdateBegin();
    Base::UpdateCentroids(dataset, centroids, assignment, options, rng);
    trace->UpdateEnd();
  }

  static double ComputeCost(const Dataset& dataset, const Centroids& centroids,
                            const Options& options,
                            std::span<const uint32_t> assignment) {
    trace->CostBegin();
    const double cost = Base::ComputeCost(dataset, centroids, options,
                                          assignment);
    trace->CostEnd();
    return cost;
  }
};

/// ShortlistProvider<Family> with Prepare and GetCandidates timed. It
/// offers no MakeReplica, so the engine queries it through its plain
/// provider reference — the same calls the library provider receives.
template <typename Family>
class TimedProvider {
 public:
  using Dataset = typename Family::Dataset;
  using Inner = lshclust::ShortlistProvider<Family>;

  static constexpr bool kExhaustive = false;

  struct Scratch {
    lshclust::ClusterDedupScratch dedup;
    WorkerSlot* slot = nullptr;
    uint64_t last_pruned = 0;  ///< read by the engine's pruned counter
  };

  TimedProvider(const typename Family::Options& options, uint32_t k,
                FitTrace* trace)
      : inner_(options, k), trace_(trace) {}

  Scratch MakeScratch() const {
    return Scratch{inner_.MakeScratch(), trace_->NewSlot(), 0};
  }

  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     Scratch& scratch, std::vector<uint32_t>* out) const {
    const int64_t start = NowNs();
    inner_.GetCandidates(item, assignment, scratch.dedup, out);
    const int64_t end = NowNs();
    scratch.last_pruned = scratch.dedup.last_pruned;
    WorkerSlot& slot = *scratch.slot;
    if (slot.first_start < 0) slot.first_start = start;
    slot.last_end = end;
    slot.busy += end - start;
    ++slot.calls;
  }

  [[nodiscard]] lshclust::Status Prepare(
      const Dataset& dataset, lshclust::ThreadPool* pool,
      const std::function<bool()>* cancel) {
    const int64_t start = NowNs();
    lshclust::Status status = inner_.Prepare(dataset, pool, cancel);
    trace_->Prepare(start, NowNs(), inner_.signature_seconds(),
                    inner_.index_seconds());
    return status;
  }

  const Inner& inner() const { return inner_; }

 private:
  Inner inner_;
  FitTrace* trace_;
};

}  // namespace perfbench
