#include "workloads.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "api/clusterer.h"
#include "clustering/kmeans.h"
#include "data.h"
#include "persist/model_io.h"
#include "serving/model_server.h"

namespace perfbench {
namespace {

using lshclust::Accelerator;
using lshclust::CategoricalDataset;
using lshclust::Clusterer;
using lshclust::ClustererSpec;
using lshclust::FitReport;
using lshclust::Modality;
using lshclust::NumericDataset;
using lshclust::serving::FrozenModel;
using lshclust::serving::ModelServer;

/// Engine threads of every Fit: the 4-core box the benchmark targets.
constexpr uint32_t kThreads = 4;
/// Queries per RouteInto call, unless a workload sets its own.
constexpr uint32_t kBatch = 64;
/// Fixed-seed sample sizes of the health and peer-replay probes.
constexpr uint32_t kRecallSample = 256;
constexpr uint32_t kReplaySample = 1024;

/// The serve-live writer's pace. The micro-batch and the publish period
/// are those of the repository's serving benchmark (bench/serving_qps.cpp:
/// 256-row IngestBatch chunks, --publish-rows default 2000). The rate is a
/// tenth of the session's unpaced IngestBatch throughput on this
/// workload's data, as `run.py --calibrate` measures it (README.md, "The
/// writer's pace").
constexpr uint32_t kIngestRows = 256;
constexpr uint32_t kPublishRows = 2000;
constexpr double kIngestRowsPerSecond = 5500;
/// Rows the unpaced calibration ingests.
constexpr uint32_t kCalibrationRows = 40960;

/// Input shape of one workload.
struct Sizes {
  uint32_t train = 0;    ///< items fitted (serve-live: the warm-up half)
  uint32_t heldout = 0;  ///< held-out queries, a multiple of batch
  uint32_t width = 0;    ///< dimensions / attributes
  uint32_t groups = 0;   ///< mixture components / conjunctive rules
  uint32_t domain = 0;   ///< categorical values per attribute
  uint32_t k = 0;
  uint32_t max_iterations = 0;
  uint32_t batch = kBatch;  ///< queries per RouteInto call
};

template <typename T>
std::vector<T> GatherRows(const std::vector<T>& values, uint32_t width,
                          std::span<const uint32_t> rows) {
  std::vector<T> out;
  out.reserve(rows.size() * width);
  for (const uint32_t row : rows) {
    const auto first = values.begin() + size_t{row} * width;
    out.insert(out.end(), first, first + width);
  }
  return out;
}

template <typename T>
std::vector<T> RowRange(const std::vector<T>& values, uint32_t width,
                        uint32_t begin, uint32_t count) {
  const auto first = values.begin() + size_t{begin} * width;
  return std::vector<T>(first, first + size_t{count} * width);
}

/// K-Means cell: numeric data, SimHash shortlists.
struct NumericCell {
  using Dataset = NumericDataset;
  using Traits = lshclust::NumericClusteringTraits;
  using Family = lshclust::SimHashShortlistFamily;
  using Arrays = NumericArrays;
  static constexpr Modality kModality = Modality::kNumeric;
  static constexpr Accelerator kAccelerator = Accelerator::kSimHash;

  static Arrays Generate(uint64_t seed, uint32_t rows, const Sizes& s) {
    return GaussianMixture(seed, rows, s.width, s.groups);
  }
  static Traits::Options EngineOptionsOf(const ClustererSpec& spec) {
    lshclust::KMeansOptions options;
    static_cast<lshclust::EngineOptions&>(options) = spec.engine;
    return options;
  }
  static const Family::Options& IndexOptionsOf(const ClustererSpec& spec) {
    return spec.simhash;
  }
  static lshclust::Result<Dataset> Make(const Arrays& a, uint32_t begin,
                                        uint32_t count) {
    return Dataset::FromValues(count, a.dims,
                               RowRange(a.values, a.dims, begin, count));
  }
  static lshclust::Result<Dataset> Gather(const Arrays& a,
                                          std::span<const uint32_t> rows) {
    return Dataset::FromValues(static_cast<uint32_t>(rows.size()), a.dims,
                               GatherRows(a.values, a.dims, rows));
  }
};

/// K-Modes cell: categorical data, MinHash shortlists.
struct CategoricalCell {
  using Dataset = CategoricalDataset;
  using Traits = lshclust::CategoricalClusteringTraits;
  using Family = lshclust::MinHashShortlistFamily;
  using Arrays = CategoricalArrays;
  static constexpr Modality kModality = Modality::kCategorical;
  static constexpr Accelerator kAccelerator = Accelerator::kMinHash;

  static Arrays Generate(uint64_t seed, uint32_t rows, const Sizes& s) {
    return ConjunctiveRules(seed, rows, s.width, s.groups, s.domain);
  }
  static Traits::Options EngineOptionsOf(const ClustererSpec& spec) {
    return spec.engine;
  }
  static const Family::Options& IndexOptionsOf(const ClustererSpec& spec) {
    return spec.minhash;
  }
  static lshclust::Result<Dataset> Make(const Arrays& a, uint32_t begin,
                                        uint32_t count) {
    return Dataset::FromCodes(count, a.attrs, a.num_codes,
                              RowRange(a.codes, a.attrs, begin, count));
  }
  static lshclust::Result<Dataset> Gather(const Arrays& a,
                                          std::span<const uint32_t> rows) {
    return Dataset::FromCodes(static_cast<uint32_t>(rows.size()), a.attrs,
                              a.num_codes, GatherRows(a.codes, a.attrs, rows));
  }
};

/// Library defaults except k, the iteration cap, the seed and the thread
/// count, so later default changes show up here unedited.
ClustererSpec MakeSpec(Modality modality, Accelerator accelerator,
                       const Sizes& sizes, uint64_t seed) {
  ClustererSpec spec;
  spec.modality = modality;
  spec.accelerator = accelerator;
  spec.engine.num_clusters = sizes.k;
  spec.engine.max_iterations = sizes.max_iterations;
  spec.engine.seed = seed;
  spec.engine.num_threads = kThreads;
  return spec;
}

/// Distinct fixed-seed sample of `count` row ids below `bound`, ascending.
std::vector<uint32_t> SampleRows(uint64_t seed, uint32_t bound,
                                 uint32_t count) {
  std::vector<uint32_t> rows(bound);
  std::iota(rows.begin(), rows.end(), 0u);
  uint64_t state = seed ^ 0xD1B54A32D192ED03ULL;
  count = std::min(count, bound);
  for (uint32_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t j = i + static_cast<uint32_t>((state >> 33) % (bound - i));
    std::swap(rows[i], rows[j]);
  }
  rows.resize(count);
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool InRange(std::span<const uint32_t> ids, uint32_t k) {
  return std::all_of(ids.begin(), ids.end(),
                     [k](uint32_t id) { return id < k; });
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// CPUs this process may run on, ascending; {-1} (unpinned) when the
/// affinity mask cannot be read.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Pins the calling thread to `cpu`; leaves it unpinned when `cpu` is -1
/// or pinning fails.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Runs `fn` on a new thread pinned to `cpu` and waits for it to end.
template <typename Fn>
void RunPinned(int cpu, Fn&& fn) {
  std::thread thread([cpu, &fn] {
    PinTo(cpu);
    fn();
  });
  thread.join();
}

double Agreement(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  uint64_t same = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) same += a[i] == b[i];
  return Share(same, std::max(a.size(), b.size()));
}

// --------------------------------------------------------------- fitting --

/// Peers visited per query and the share of them that only repeated a
/// cluster already on the shortlist, replayed through the index's public
/// visit call for a fixed sample against the final assignment.
struct PeerReplay {
  double peer_visits = 0;
  double dedup_hit_frac = 0;
};

struct TracedFit {
  FitLayers layers;
  uint64_t fingerprint = 0;
  bool ok = false;
  PeerReplay replay;
};

/// The facade's Fit re-instantiated from benchmark code with the timing
/// wrappers of trace.h around the library's own traits and provider.
template <typename Cell>
TracedFit RunTracedFit(const ClustererSpec& spec,
                       const typename Cell::Dataset& data, Tracer& tracer,
                       bool accelerated, uint64_t replay_seed) {
  using Traits = TimedTraits<typename Cell::Traits>;
  FitTrace trace(&tracer, accelerated ? "clustering" : "baseline",
                 lshclust::ResolveThreadCount(spec.engine.num_threads));
  Traits::trace = &trace;
  const auto options = Cell::EngineOptionsOf(spec);
  TracedFit out;
  if (accelerated) {
    using Provider = TimedProvider<typename Cell::Family>;
    Provider provider(Cell::IndexOptionsOf(spec), spec.engine.num_clusters,
                      &trace);
    trace.BeginRun();
    auto result =
        lshclust::ClusteringEngine<Traits, Provider>::Run(data, options,
                                                          provider);
    trace.EndRun();
    Traits::trace = nullptr;
    if (!result.ok() || provider.inner().index() == nullptr) return out;
    out.ok = true;
    out.fingerprint = Fingerprint(result->assignment);
    const std::vector<uint32_t>& assignment = result->assignment;
    std::vector<uint32_t> stamp(spec.engine.num_clusters, 0);
    uint64_t visits = 0;
    uint64_t distinct = 0;
    uint32_t epoch = 0;
    for (const uint32_t item :
         SampleRows(replay_seed, data.num_items(), kReplaySample)) {
      ++epoch;
      provider.inner().index()->VisitCandidates(item, [&](uint32_t peer) {
        ++visits;
        const uint32_t cluster = assignment[peer];
        if (stamp[cluster] != epoch) {
          stamp[cluster] = epoch;
          ++distinct;
        }
      });
    }
    out.replay.peer_visits =
        Share(visits, std::min(kReplaySample, data.num_items()));
    out.replay.dedup_hit_frac = 1.0 - Share(distinct, visits);
  } else {
    lshclust::ExhaustiveProvider provider;
    trace.BeginRun();
    auto result =
        lshclust::ClusteringEngine<Traits, lshclust::ExhaustiveProvider>::Run(
            data, options, provider);
    trace.EndRun();
    Traits::trace = nullptr;
    if (!result.ok()) return out;
    out.ok = true;
    out.fingerprint = Fingerprint(result->assignment);
  }
  out.layers = trace.layers();
  return out;
}

/// Repeated accelerated and exhaustive facade Fits of one dataset,
/// reported as medians. Each Rep() alternates which side goes first, then
/// repeats the faster side until it has run as long as the slower one, so
/// both medians rest on similar time; traced runs add one span-traced
/// engine run of each side per rep.
template <typename Cell>
class FitSampler {
 public:
  FitSampler(const RunOptions& run, const ClustererSpec& spec,
             const typename Cell::Dataset& train, Clusterer& lsh,
             Clusterer& exhaustive, Report& report, Tracer& tracer)
      : run_(run), spec_(spec), train_(train), lsh_(lsh),
        exhaustive_(exhaustive), report_(report), tracer_(tracer) {}

  /// One rep; returns its wall time.
  double Rep() {
    const int64_t start = NowNs();
    const bool lsh_first = reps_ % 2 == 0;
    double spent[2] = {0, 0};  // [exhaustive, accelerated]
    spent[lsh_first] = Fit(lsh_first);
    spent[!lsh_first] = Fit(!lsh_first);
    const bool faster = spent[1] < spent[0];
    for (int extra = 0; extra < 8 && spent[faster] < spent[!faster];
         ++extra) {
      const double seconds = Fit(faster);
      if (seconds <= 0) break;
      spent[faster] += seconds;
    }
    if (run_.trace) {
      for (const bool accelerated : {true, false}) {
        ClustererSpec spec = spec_;
        if (!accelerated) spec.accelerator = Accelerator::kExhaustive;
        TracedFit traced =
            RunTracedFit<Cell>(spec, train_, tracer_, accelerated, run_.seed);
        report_.Check(traced.ok && traced.fingerprint ==
                                       (accelerated ? lsh_fp_ : exh_fp_),
                      "traced fit assigns like the facade fit");
        (accelerated ? traced_lsh_ : traced_exh_).push_back(traced);
      }
    }
    ++reps_;
    return SecondsSince(start);
  }

  uint64_t accelerated_fingerprint() const { return lsh_fp_; }

  /// End-to-end fit metrics, and with tracing the per-layer split.
  void Finish() {
    if (lsh_s_.empty() || exh_s_.empty()) return;
    const double fit_s = Median(lsh_s_);
    const double exhaustive_fit_s = Median(exh_s_);
    report_.Metric("fit_s", fit_s, "s");
    report_.Metric("exhaustive_fit_s", exhaustive_fit_s, "s");
    report_.Metric("cost_ratio",
                   lsh_report_.result.final_cost /
                       exh_report_.result.final_cost,
                   "ratio");
    report_.Info("accelerated_fingerprint", Hex(lsh_fp_));
    report_.Info("exhaustive_fingerprint", Hex(exh_fp_));
    report_.Info("accelerated_fits", static_cast<double>(lsh_s_.size()));
    report_.Info("exhaustive_fits", static_cast<double>(exh_s_.size()));
    report_.Info("accelerated_iterations",
                 static_cast<double>(lsh_report_.result.iterations.size()));
    report_.Info("exhaustive_iterations",
                 static_cast<double>(exh_report_.result.iterations.size()));
    if (!run_.trace) return;

    // The per-layer split of the traced run whose wall time is the median.
    const auto median_run = [](std::vector<TracedFit> runs) {
      std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
        return a.layers.total < b.layers.total;
      });
      return runs[runs.size() / 2];
    };
    const TracedFit t = median_run(traced_lsh_);
    const FitLayers b = median_run(traced_exh_).layers;
    const FitLayers& l = t.layers;
    report_.Metric("clustering.seed_s", l.seed, "s");
    report_.Metric("clustering.initial_pass_s", l.initial_pass, "s");
    report_.Metric("hashing.sign_s", l.sign, "s");
    report_.Metric("lsh.index_build_s", l.index_build, "s");
    report_.Metric("lsh.prepare_other_s", l.prepare_other, "s");
    report_.Metric("core.candidates_s", l.candidates, "s");
    report_.Metric("clustering.distance_s", l.distance, "s");
    report_.Metric("clustering.pass_wait_s", l.pass_wait, "s");
    report_.Metric("clustering.update_s", l.update, "s");
    report_.Metric("clustering.cost_eval_s", l.cost_eval, "s");
    report_.Metric("baseline.initial_pass_s", b.initial_pass, "s");
    report_.Metric("baseline.distance_s", b.distance, "s");
    report_.Metric("baseline.update_s", b.update, "s");
    report_.Metric("baseline.cost_eval_s", b.cost_eval, "s");
    report_.Metric("trace.fit_s", l.total, "s");
    report_.Metric("trace.overhead_s", l.total - fit_s, "s");
    report_.Metric("trace.unattributed_s", l.Unattributed(), "s");
    report_.Metric("trace.unattributed_frac", l.Unattributed() / l.total,
                   "ratio");
    report_.Metric("core.peer_visits", t.replay.peer_visits, "count");
    report_.Metric("core.dedup_hit_frac", t.replay.dedup_hit_frac, "ratio");
    report_.Metric("health.lsh_vs_exhaustive", fit_s / exhaustive_fit_s,
                   "ratio");

    const lshclust::ClusteringResult& r = lsh_report_.result;
    const double iterations = static_cast<double>(r.iterations.size());
    report_.Metric("clustering.iterations", iterations, "count");
    report_.Metric("clustering.moves", static_cast<double>(r.TotalMoves()),
                   "count");
    report_.Metric("clustering.refine_s", r.RefinementSeconds(), "s");
    report_.Metric("clustering.distances",
                   static_cast<double>(r.exact_distances_evaluated), "count");
    report_.Metric("core.mean_shortlist",
                   iterations == 0
                       ? 0.0
                       : static_cast<double>(r.exact_distances_evaluated) /
                             (iterations * train_.num_items()),
                   "count");
    report_.Metric("lsh.index_bytes",
                   static_cast<double>(lsh_report_.index_memory_bytes), "B");
    auto handle = lsh_.index();
    report_.Check(handle.ok(), "accelerated fit retains its index");
    if (!handle.ok()) return;
    const auto stats = handle->ComputeStats();
    report_.Metric("lsh.bucket_mean", stats.mean_bucket_size, "count");
    report_.Metric("lsh.bucket_max", static_cast<double>(stats.largest_bucket),
                   "count");
  }

 private:
  /// One untraced facade Fit; checks its output (completed status,
  /// assignment of size n with ids < k, finite non-negative cost, the same
  /// assignment as every earlier Fit of the spec). Returns its wall time,
  /// 0 on failure.
  double Fit(bool accelerated) {
    const int64_t start = NowNs();
    auto fit = (accelerated ? lsh_ : exhaustive_).Fit(train_);
    const double seconds = SecondsSince(start);
    const bool ok =
        fit.ok() && fit->status.ok() &&
        fit->result.assignment.size() == train_.num_items() &&
        InRange(fit->result.assignment, spec_.engine.num_clusters) &&
        std::isfinite(fit->result.final_cost) && fit->result.final_cost >= 0;
    report_.Check(ok, accelerated ? "accelerated fit output"
                                  : "exhaustive fit output");
    if (!ok) return 0;
    const uint64_t fp = Fingerprint(fit->result.assignment);
    uint64_t& first = accelerated ? lsh_fp_ : exh_fp_;
    if (first != 0) report_.Check(fp == first, "fit is deterministic");
    first = fp;
    (accelerated ? lsh_s_ : exh_s_).push_back(seconds);
    (accelerated ? lsh_report_ : exh_report_) = std::move(*fit);
    return seconds;
  }

  const RunOptions& run_;
  const ClustererSpec& spec_;
  const typename Cell::Dataset& train_;
  Clusterer& lsh_;
  Clusterer& exhaustive_;
  Report& report_;
  Tracer& tracer_;
  uint32_t reps_ = 0;
  std::vector<double> lsh_s_, exh_s_;
  std::vector<TracedFit> traced_lsh_, traced_exh_;
  FitReport lsh_report_, exh_report_;
  uint64_t lsh_fp_ = 0, exh_fp_ = 0;
};

/// health.shortlist_recall of the fitted accelerated model: the share of
/// a fixed-seed sample of fitted items whose exhaustive nearest cluster
/// is on their shortlist against the final assignment.
template <typename Cell>
void RecallProbe(const RunOptions& run, const typename Cell::Arrays& data,
                 uint32_t train_rows, Clusterer& lsh, Report& report) {
  auto handle = lsh.index();
  if (!handle.ok()) return;
  const std::vector<uint32_t> sample =
      SampleRows(run.seed + 1, train_rows, kRecallSample);
  auto queries = Cell::Gather(data, sample);
  auto nearest = queries.ok() ? lsh.Predict(*queries)
                              : lshclust::Result<std::vector<uint32_t>>(
                                    queries.status());
  report.Check(nearest.ok(), "recall sample predicts");
  if (!nearest.ok()) return;
  uint64_t hits = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const std::vector<uint32_t> shortlist =
        handle->CandidateClustersOf(sample[i]);
    hits += std::binary_search(shortlist.begin(), shortlist.end(),
                               (*nearest)[i]);
  }
  report.Metric("health.shortlist_recall", Share(hits, sample.size()),
                "ratio");
}

// --------------------------------------------------------------- serving --

/// Saves `model`, loads it back, and checks the loaded model routes
/// `queries` exactly as `expected`.
template <typename Dataset>
void PersistRoundTrip(const FrozenModel& model, const Dataset& queries,
                      std::span<const uint32_t> expected,
                      const std::string& path, Report& report,
                      Tracer& tracer) {
  const int64_t save_start = NowNs();
  const lshclust::Status saved =
      lshclust::serving::SaveFrozenModel(model, path);
  const int64_t save_end = NowNs();
  report.Check(saved.ok(), "model saves");
  if (!saved.ok()) return;
  std::error_code error;
  const auto bytes = std::filesystem::file_size(path, error);
  const int64_t load_start = NowNs();
  auto loaded = lshclust::serving::LoadFrozenModel(path);
  const int64_t load_end = NowNs();
  std::filesystem::remove(path, error);
  report.Check(loaded.ok(), "model loads");
  if (!loaded.ok()) return;
  auto routed = (*loaded)->Route(queries);
  report.Check(routed.ok() && *routed == std::vector<uint32_t>(
                                             expected.begin(), expected.end()),
               "loaded model routes like the saved one");
  tracer.Add("persist.save", save_start, save_end);
  tracer.Add("persist.load", load_start, load_end);
  report.Metric("persist.save_ms", (save_end - save_start) * 1e-6, "ms");
  report.Metric("persist.load_ms", (load_end - load_start) * 1e-6, "ms");
  report.Metric("persist.file_bytes", static_cast<double>(bytes), "B");
}

std::string ModelPath(const RunOptions& run) {
  return run.out_dir + "/model-" + run.workload + "-" +
         std::to_string(run.seed) + ".lshm";
}

/// One reader thread's routing state and record.
template <typename Dataset>
class ReaderLoop {
 public:
  explicit ReaderLoop(const ModelServer& server) : reader_(server) {}

  /// Current(), then one RouteInto of `batch`, timed unless `timed` is
  /// false (a warm-up batch, checked but not counted as routed work). On a
  /// new model version the refresh is recorded and, when given, `probe` is
  /// routed and fingerprinted.
  void Step(const Dataset& batch, const Dataset* probe, bool timed = true) {
    const int64_t current_start = NowNs();
    const std::shared_ptr<const FrozenModel>& model = reader_.Current();
    const int64_t current_end = NowNs();
    if (model->version() != version_) {
      version_ = model->version();
      ++swaps;
      refresh_us.push_back((current_end - current_start) * 1e-3);
      if (scratch_ == nullptr) scratch_ = model->MakeScratch();
      if (probe != nullptr) {
        std::vector<uint32_t> probe_out(probe->num_items());
        const bool ok = model->RouteInto(*probe, *scratch_, probe_out).ok();
        probe_fingerprints[version_] = ok ? Fingerprint(probe_out) : 0;
      }
    }
    out_.resize(batch.num_items());
    const int64_t start = NowNs();
    const bool ok = model->RouteInto(batch, *scratch_, out_).ok();
    const int64_t end = NowNs();
    bad_batches += !(ok && InRange(out_, model->num_clusters()));
    ++batches;
    if (!timed) return;
    route_busy_ns += end - start;
    batch_us.push_back((end - start) * 1e-3);
    queries += out_.size();
    if (batch_us.size() - block_begin_ == kBlockBatches) CloseBlock();
  }

  /// Ends the open latency block: every kBlockBatches timed batches, and
  /// at the end of each pinned slice on fit-*.
  void CloseBlock() {
    const auto first = batch_us.begin() + static_cast<ptrdiff_t>(block_begin_);
    if (first == batch_us.end()) return;
    block_median_sum += Median(std::vector<double>(first, batch_us.end())) *
                        static_cast<double>(batch_us.end() - first);
    block_begin_ = batch_us.size();
  }

  /// Timed batches per latency block: 15-35 ms of routing, over which a
  /// CPU keeps one speed.
  static constexpr size_t kBlockBatches = 64;

  uint64_t queries = 0;
  uint64_t batches = 0;
  uint64_t bad_batches = 0;  ///< RouteInto errors or ids >= k
  uint64_t swaps = 0;
  int64_t route_busy_ns = 0;
  std::vector<double> batch_us;
  double block_median_sum = 0;  ///< Σ closed blocks' median × block size
  std::vector<double> refresh_us;  ///< Current() calls that saw a new version
  std::map<uint64_t, uint64_t> probe_fingerprints;  ///< version -> routes

 private:
  ModelServer::Reader reader_;
  std::unique_ptr<FrozenModel::RouteScratch> scratch_;
  std::vector<uint32_t> out_;
  uint64_t version_ = 0;
  size_t block_begin_ = 0;  ///< first batch of the open latency block
};

/// Route metrics of readers that routed for `route_s` seconds of wall
/// time (concurrent readers count once). route_batch_p50_us is the median
/// latency of each block of 64 consecutive batches of one reader, averaged
/// over the blocks weighted by size. On a shared host a CPU runs either at
/// full speed or ~1.5x slower for seconds at a time, so the pooled batch
/// latencies form two humps with the pooled median in the gap between
/// them: it jumps from one hump to the other as the slow share crosses a
/// half. The block average moves in step with that share, as the Fits'
/// times and route_qps do.
template <typename Dataset>
void ReportReaders(std::vector<ReaderLoop<Dataset>>& readers,
                   double route_s, Report& report, Tracer& tracer) {
  uint64_t queries = 0, batches = 0, bad = 0, swaps = 0;
  int64_t busy = 0;
  std::vector<double> batch_us, refresh_us;
  double block_median_sum = 0;
  const int64_t now = NowNs();
  for (size_t r = 0; r < readers.size(); ++r) {
    auto& reader = readers[r];
    reader.CloseBlock();
    block_median_sum += reader.block_median_sum;
    queries += reader.queries;
    batches += reader.batches;
    bad += reader.bad_batches;
    swaps += reader.swaps;
    busy += reader.route_busy_ns;
    batch_us.insert(batch_us.end(), reader.batch_us.begin(),
                    reader.batch_us.end());
    refresh_us.insert(refresh_us.end(), reader.refresh_us.begin(),
                      reader.refresh_us.end());
    tracer.Add(Span{"serving.route", now - static_cast<int64_t>(route_s * 1e9),
                    now, -1, static_cast<int>(r), reader.route_busy_ns,
                    reader.batches});
  }
  report.Operations(batches, bad, "routed batches");
  report.Metric("route_qps", static_cast<double>(queries) / route_s, "1/s");
  report.Metric("route_batch_p50_us",
                block_median_sum / static_cast<double>(batch_us.size()), "us");
  report.Info("route_batch_pooled_p50_us", Quantile(batch_us, 0.50));
  report.Metric("route_batch_p99_us", Quantile(batch_us, 0.99), "us");
  report.Metric("serving.route_s", busy * 1e-9, "s");
  report.Metric("serving.reader_refresh_us", Median(refresh_us), "us");
  report.Metric("serving.swaps_observed", static_cast<double>(swaps),
                "count");
  report.Info("route_batches", static_cast<double>(batches));
}

/// Timed Snapshot() + Publish stalls.
struct PublishLog {
  std::vector<double> publish_ms, snapshot_ms, publish_us;
  uint64_t attempted = 0, failed = 0;

  /// Times `snapshot()` + server.Publish; returns the published model
  /// (null when the snapshot failed).
  template <typename SnapshotFn>
  std::shared_ptr<const FrozenModel> Publish(SnapshotFn&& snapshot,
                                             ModelServer& server,
                                             Tracer& tracer) {
    ++attempted;
    const int64_t start = NowNs();
    auto model = snapshot();
    const int64_t taken = NowNs();
    if (!model.ok()) {
      ++failed;
      return nullptr;
    }
    server.Publish(*model);
    const int64_t end = NowNs();
    tracer.Add("serving.snapshot", start, taken);
    tracer.Add("serving.publish", taken, end);
    publish_ms.push_back((end - start) * 1e-6);
    snapshot_ms.push_back((taken - start) * 1e-6);
    publish_us.push_back((end - taken) * 1e-3);
    return *model;
  }

  void ReportTo(Report& report) const {
    report.Operations(attempted, failed, "publishes");
    report.Metric("publish_p50_ms", Median(publish_ms), "ms");
    report.Metric("serving.snapshot_ms", Median(snapshot_ms), "ms");
    report.Metric("serving.publish_us", Median(publish_us), "us");
  }
};

// ------------------------------------------------------------ workloads --

template <typename Cell>
struct Prepared {
  std::optional<typename Cell::Dataset> train;
  std::optional<typename Cell::Dataset> heldout;
  std::vector<typename Cell::Dataset> batches;
  std::optional<Clusterer> lsh;
  std::optional<Clusterer> exhaustive;
};

/// Dataset factories + Clusterer::Create: the program-side set-up of a
/// workload. Rows [0, train) are fitted and the next `heldout` rows are
/// the held-out queries. False when any factory or Create fails.
template <typename Cell>
bool Prepare(const typename Cell::Arrays& data, const Sizes& sizes,
             const ClustererSpec& spec, Prepared<Cell>& out) {
  auto train = Cell::Make(data, 0, sizes.train);
  auto heldout = Cell::Make(data, sizes.train, sizes.heldout);
  ClustererSpec exhaustive_spec = spec;
  exhaustive_spec.accelerator = Accelerator::kExhaustive;
  auto lsh = Clusterer::Create(spec);
  auto exhaustive = Clusterer::Create(exhaustive_spec);
  if (!train.ok() || !heldout.ok() || !lsh.ok() || !exhaustive.ok()) {
    return false;
  }
  for (uint32_t b = 0; b < sizes.heldout / sizes.batch; ++b) {
    auto batch = Cell::Make(data, sizes.train + b * sizes.batch, sizes.batch);
    if (!batch.ok()) return false;
    out.batches.push_back(std::move(*batch));
  }
  out.train.emplace(std::move(*train));
  out.heldout.emplace(std::move(*heldout));
  out.lsh.emplace(std::move(*lsh));
  out.exhaustive.emplace(std::move(*exhaustive));
  return true;
}

/// fit-numeric / fit-categorical. Reps of (accelerated + exhaustive Fits,
/// two Snapshot() + Publish stalls, a window of held-out routing by one
/// reader, set-ups into throwaway state) fill the run, so every metric
/// samples all of it; then the routes are checked and the model is
/// persisted. The routing window is split evenly over every CPU the
/// process may use, on one pinned thread after another: a single unpinned
/// thread samples whichever CPU the scheduler leaves it on, and on a
/// shared host one CPU can run ~1.5x slower than the others for seconds
/// at a time, while the 4-thread Fits always sample all of them.
template <typename Cell>
void FitWorkload(const RunOptions& run, const Sizes& sizes, Report& report,
                 Tracer& tracer) {
  // Share of each rep's fit time spent routing afterwards.
  constexpr double kRouteShare = 0.35;
  // Set-ups timed per rep. Timing them between reps, rather than all up
  // front, makes their median sample the machine across the whole run,
  // as the fit times do.
  constexpr int kSetupsPerRep = 5;
  const typename Cell::Arrays data =
      Cell::Generate(run.seed, sizes.train + sizes.heldout, sizes);
  const ClustererSpec spec =
      MakeSpec(Cell::kModality, Cell::kAccelerator, sizes, run.seed);
  std::vector<double> setup_s;
  const auto set_up = [&](Prepared<Cell>& into) {
    const int64_t start = NowNs();
    const bool ok = Prepare<Cell>(data, sizes, spec, into);
    setup_s.push_back(SecondsSince(start));
    report.Check(ok, "set-up");
    return ok;
  };
  Prepared<Cell> prepared;
  if (!set_up(prepared)) return;

  FitSampler<Cell> fits(run, spec, *prepared.train, *prepared.lsh,
                        *prepared.exhaustive, report, tracer);
  ModelServer server;
  PublishLog publishes;
  const std::vector<int> cpus = AllowedCpus();
  std::vector<ReaderLoop<typename Cell::Dataset>> readers;
  for (size_t r = 0; r < cpus.size(); ++r) readers.emplace_back(server);
  std::shared_ptr<const FrozenModel> model;
  double route_s = 0;
  size_t next = 0;  // the held-out batches are routed round-robin
  const int64_t start = NowNs();
  for (uint32_t rep = 0; rep < 3 || SecondsSince(start) < run.seconds;
       ++rep) {
    const double fit_time = fits.Rep();
    for (int p = 0; p < 2; ++p) {
      model = publishes.Publish([&] { return prepared.lsh->Snapshot(); },
                                server, tracer);
      if (model == nullptr) {
        publishes.ReportTo(report);
        return;
      }
    }
    const double slice_s = kRouteShare * fit_time / cpus.size();
    for (size_t r = 0; r < cpus.size(); ++r) {
      RunPinned(cpus[r], [&] {
        // One untimed batch first: the thread starts on cold caches, and
        // the model published since the last slice is new to this reader.
        readers[r].Step(prepared.batches[next], nullptr, /*timed=*/false);
        next = (next + 1) % prepared.batches.size();
        const int64_t slice_start = NowNs();
        do {
          readers[r].Step(prepared.batches[next], nullptr);
          next = (next + 1) % prepared.batches.size();
        } while (SecondsSince(slice_start) < slice_s);
        route_s += SecondsSince(slice_start);
        readers[r].CloseBlock();
      });
    }
    for (int s = 0; s < kSetupsPerRep; ++s) {
      Prepared<Cell> spare;
      if (!set_up(spare)) return;
    }
  }
  report.Metric("setup_s", Median(setup_s), "s");
  fits.Finish();
  publishes.ReportTo(report);
  ReportReaders(readers, route_s, report, tracer);
  report.Metric("serving.model_bytes",
                static_cast<double>(model->memory_bytes()), "B");
  if (run.trace) {
    RecallProbe<Cell>(run, data, sizes.train, *prepared.lsh, report);
  }

  auto routed = model->Route(*prepared.heldout);
  auto predicted = prepared.lsh->Predict(*prepared.heldout);
  auto predicted_routed = prepared.lsh->PredictRouted(*prepared.heldout);
  const bool ok = routed.ok() && predicted.ok() && predicted_routed.ok();
  report.Check(ok && InRange(*routed, model->num_clusters()),
               "held-out routes in range");
  if (!ok) return;
  report.Check(*routed == *predicted_routed,
               "snapshot routes like PredictRouted");
  report.Metric("route_agreement", Agreement(*routed, *predicted), "ratio");
  report.Info("route_fingerprint", Hex(Fingerprint(*routed)));
  PersistRoundTrip(*model, *prepared.heldout, *routed, ModelPath(run), report,
                   tracer);
}

/// Nearest mode by exact mismatch count, lowest id on ties: the
/// exhaustive answer a routed query is compared against.
uint32_t NearestMode(std::span<const uint32_t> row,
                     const lshclust::StreamingSession& session) {
  uint32_t best = 0;
  uint32_t best_distance = ~0u;
  for (uint32_t c = 0; c < session.num_clusters(); ++c) {
    const std::span<const uint32_t> mode = session.ModeOf(c);
    uint32_t distance = 0;
    for (size_t a = 0; a < row.size(); ++a) distance += row[a] != mode[a];
    if (distance < best_distance) {
      best_distance = distance;
      best = c;
    }
  }
  return best;
}

/// Micro-batch `batch` of the ingest pool that starts at row `pool_begin`.
std::span<const uint32_t> PoolRows(const CategoricalArrays& data,
                                   uint32_t pool_begin, uint32_t batch) {
  const size_t first = size_t{pool_begin} + size_t{batch} * kIngestRows;
  return {data.codes.data() + first * data.attrs,
          size_t{kIngestRows} * data.attrs};
}

/// What one serve-live set-up builds: the dataset factories and
/// Clusterer::Create, the session bootstrap and the first publish.
struct LiveState {
  Prepared<CategoricalCell> prepared;
  std::optional<lshclust::StreamingSession> session;
  ModelServer server;
};

/// serve-live: two closed-loop readers route while one paced writer
/// ingests micro-batches into a live session and republishes snapshots.
/// With `run.calibrate` it measures the writer's unpaced throughput
/// instead.
void ServeLive(const RunOptions& run, const Sizes& sizes, Report& report,
               Tracer& tracer) {
  constexpr size_t kReaders = 2;
  const double window_s = 0.7 * run.seconds;
  const int64_t interval_ns =
      static_cast<int64_t>(kIngestRows / kIngestRowsPerSecond * 1e9);
  // The pool holds exactly the rows the run ingests, so every ingested
  // row is a fresh draw and none repeats a row the session holds.
  const uint32_t ingest_batches =
      run.calibrate ? kCalibrationRows / kIngestRows
                    : static_cast<uint32_t>(std::ceil(
                          window_s * 1e9 / static_cast<double>(interval_ns)));
  // Rows: [0, train) warm-up | held-out queries | ingest pool. Rows are
  // drawn one after another, so the pool's size changes no other row.
  const uint32_t pool_begin = sizes.train + sizes.heldout;
  const CategoricalArrays data = CategoricalCell::Generate(
      run.seed, pool_begin + ingest_batches * kIngestRows, sizes);
  const ClustererSpec spec = MakeSpec(Modality::kCategorical,
                                      Accelerator::kMinHash, sizes, run.seed);

  std::vector<double> setup_s, bootstrap_s;
  const auto set_up = [&](LiveState& into) {
    const int64_t start = NowNs();
    bool ok = Prepare<CategoricalCell>(data, sizes, spec, into.prepared);
    const int64_t bootstrap_start = NowNs();
    if (ok) {
      auto opened =
          into.prepared.lsh->MakeStreamingSession(*into.prepared.train);
      ok = opened.ok();
      if (ok) into.session.emplace(std::move(*opened));
    }
    bootstrap_s.push_back(SecondsSince(bootstrap_start));
    if (ok) {
      auto first = into.session->Snapshot();
      ok = first.ok();
      if (ok) into.server.Publish(*first);
    }
    setup_s.push_back(SecondsSince(start));
    report.Check(ok, "set-up");
    return ok;
  };
  LiveState live;
  if (!set_up(live)) return;
  lshclust::StreamingSession& session = *live.session;
  Prepared<CategoricalCell>& prepared = live.prepared;

  if (run.calibrate) {
    int64_t busy_ns = 0;
    uint64_t failed = 0;
    for (uint32_t batch = 0; batch < ingest_batches; ++batch) {
      const int64_t start = NowNs();
      failed += !session.IngestBatch(PoolRows(data, pool_begin, batch)).ok();
      busy_ns += NowNs() - start;
    }
    report.Operations(ingest_batches, failed, "ingested batches");
    report.Info("ingest_rows_per_s", static_cast<double>(kCalibrationRows) /
                                         (static_cast<double>(busy_ns) * 1e-9));
    return;
  }

  // Fit phase: reps until the facade Fits have taken 30% of --seconds,
  // each followed by one set-up into throwaway state (see FitWorkload).
  FitSampler<CategoricalCell> fits(run, spec, *prepared.train, *prepared.lsh,
                                   *prepared.exhaustive, report, tracer);
  double fit_phase_s = 0;
  for (uint32_t rep = 0; rep < 2 || fit_phase_s < 0.3 * run.seconds; ++rep) {
    fit_phase_s += fits.Rep();
    LiveState spare;
    if (!set_up(spare)) return;
  }
  report.Metric("setup_s", Median(setup_s), "s");
  report.Info("bootstrap_s", Median(bootstrap_s));
  fits.Finish();
  report.Check(Fingerprint(session.bootstrap_result().assignment) ==
                   fits.accelerated_fingerprint(),
               "session bootstrap assigns like the facade fit");
  if (run.trace) {
    RecallProbe<CategoricalCell>(run, data, sizes.train, *prepared.lsh,
                                 report);
  }

  // Live phase: one micro-batch due every interval_ns for window_s.
  std::atomic<bool> stop{false};
  std::vector<ReaderLoop<CategoricalDataset>> readers;
  for (size_t r = 0; r < kReaders; ++r) readers.emplace_back(live.server);
  const CategoricalDataset& probe = prepared.batches.front();
  const std::vector<int> cpus = AllowedCpus();
  std::vector<std::thread> threads;
  const int64_t live_start = NowNs();
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Readers start at different batches so they do not walk in step.
      // Every half second both move on to the next CPU, in step so that
      // they never share one, and each CPU carries an equal share of the
      // reading (see FitWorkload).
      constexpr int64_t kNsPerCpu = 500'000'000;
      int64_t pinned_period = -1;
      size_t next = r * prepared.batches.size() / kReaders;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t period = (NowNs() - live_start) / kNsPerCpu;
        if (period != pinned_period) {
          pinned_period = period;
          readers[r].CloseBlock();
          PinTo(cpus[(r + static_cast<size_t>(period)) % cpus.size()]);
        }
        readers[r].Step(prepared.batches[next], &probe);
        next = (next + 1) % prepared.batches.size();
      }
    });
  }

  std::vector<double> late_ms, due_ms, service_ms;
  PublishLog publishes;
  uint64_t failed_ingests = 0, since_publish = 0;
  for (uint32_t batch = 0; batch < ingest_batches; ++batch) {
    const int64_t due = live_start + batch * interval_ns;
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::nanoseconds(due))));
    const int64_t start = NowNs();
    auto ingested = session.IngestBatch(PoolRows(data, pool_begin, batch));
    const int64_t end = NowNs();
    failed_ingests += !(ingested.ok() && ingested->size() == kIngestRows &&
                        InRange(*ingested, sizes.k));
    tracer.Add("core.ingest_batch", start, end);
    late_ms.push_back((start - due) * 1e-6);
    due_ms.push_back((end - due) * 1e-6);
    service_ms.push_back((end - start) * 1e-6);
    since_publish += kIngestRows;
    if (since_publish >= kPublishRows) {
      since_publish = 0;
      publishes.Publish([&] { return session.Snapshot(); }, live.server,
                        tracer);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const double live_s = SecondsSince(live_start);

  report.Operations(ingest_batches, failed_ingests, "ingested batches");
  publishes.ReportTo(report);
  ReportReaders(readers, live_s, report, tracer);
  // Both readers must route the probe set identically under every model
  // version they both saw.
  for (const auto& [version, fingerprint] : readers[0].probe_fingerprints) {
    const auto other = readers[1].probe_fingerprints.find(version);
    if (other != readers[1].probe_fingerprints.end()) {
      report.Check(fingerprint != 0 && fingerprint == other->second,
                   "readers route the probe set identically");
    }
  }
  // Write-path timings exist on this workload only, so they go into the
  // record rather than the metric set every workload reports.
  report.Info("core.ingest_batch_ms", Median(service_ms));
  report.Info("core.ingest_due_p99_ms", Quantile(due_ms, 0.99));
  report.Info("gen.late_p99_ms", Quantile(late_ms, 0.99));
  const double writer_busy_ms =
      std::accumulate(service_ms.begin(), service_ms.end(), 0.0) +
      std::accumulate(publishes.publish_ms.begin(),
                      publishes.publish_ms.end(), 0.0);
  report.Info("writer_busy_frac", writer_busy_ms * 1e-3 / live_s);
  const auto& stats = session.stats();
  report.Metric("core.ingest_rewalked_frac",
                Share(stats.rewalked, stats.ingested), "ratio");
  report.Metric("core.ingest_fallback_frac",
                Share(stats.exhaustive_fallbacks, stats.ingested), "ratio");
  report.Metric("core.ingest_mean_shortlist", stats.mean_shortlist(), "count");
  report.Info("ingested_rows", static_cast<double>(stats.ingested));

  // The final model: routed held-out queries against the exhaustive
  // nearest mode of the same state, then a persistence round trip.
  auto final_model = session.Snapshot();
  report.Check(final_model.ok(), "final snapshot");
  if (!final_model.ok()) return;
  report.Metric("serving.model_bytes",
                static_cast<double>((*final_model)->memory_bytes()), "B");
  auto routed = (*final_model)->Route(*prepared.heldout);
  report.Check(routed.ok() && InRange(*routed, sizes.k),
               "held-out routes in range");
  if (!routed.ok()) return;
  std::vector<uint32_t> nearest(prepared.heldout->num_items());
  for (uint32_t i = 0; i < nearest.size(); ++i) {
    nearest[i] = NearestMode(prepared.heldout->Row(i), session);
  }
  report.Metric("route_agreement", Agreement(*routed, nearest), "ratio");
  report.Info("route_fingerprint", Hex(Fingerprint(*routed)));
  PersistRoundTrip(**final_model, *prepared.heldout, *routed, ModelPath(run),
                   report, tracer);
}

/// The ingest counters a fit workload does not exercise read 0.
void ZeroIngestLayers(Report& report) {
  for (const auto& [name, unit] :
       {std::pair{"core.ingest_rewalked_frac", "ratio"},
        {"core.ingest_fallback_frac", "ratio"},
        {"core.ingest_mean_shortlist", "count"}}) {
    report.Metric(name, 0.0, unit);
  }
}

}  // namespace

bool RunWorkload(const RunOptions& run, Report& report, Tracer& tracer) {
  const bool smoke = run.smoke;
  if (run.workload == "fit-numeric") {
    // 16-query batches: a query walks ~12,000 peers here, so a 64-query
    // batch takes ~2.5 ms, and its p99 would rest on the costliest of only
    // 64 distinct batches and on every few-ms stall of the host.
    const Sizes sizes = smoke ? Sizes{3000, 512, 16, 50, 0, 50, 4, 16}
                              : Sizes{10000, 4096, 16, 200, 0, 200, 5, 16};
    FitWorkload<NumericCell>(run, sizes, report, tracer);
  } else if (run.workload == "fit-categorical") {
    const Sizes sizes = smoke ? Sizes{4000, 512, 24, 100, 4000, 100, 3}
                              : Sizes{50000, 4096, 24, 500, 4000, 500, 3};
    FitWorkload<CategoricalCell>(run, sizes, report, tracer);
  } else if (run.workload == "serve-live") {
    const Sizes sizes = smoke ? Sizes{4000, 512, 10, 40, 4000, 40, 3}
                              : Sizes{45000, 4096, 10, 200, 4000, 200, 5};
    ServeLive(run, sizes, report, tracer);
    return true;
  } else {
    return false;
  }
  ZeroIngestLayers(report);
  return true;
}

}  // namespace perfbench
