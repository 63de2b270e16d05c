// Thread-scaling baseline for the batch-parallel assignment step of the
// unified clustering engine: one synthetic workload per dataset family,
// run at 1/2/4/8 worker threads, reporting refinement (assignment-phase)
// wall time and throughput. Results are bit-identical across thread
// counts, shard counts and chunk sizes by construction (see
// clustering/engine.h), so the only thing that may change with those
// knobs is the numbers printed here — future PRs can use this as the
// scaling baseline. Machine-readable records land in --json
// (BENCH_engine.json by default; see bench/common.h).
//
// Every workload additionally runs through the lshclust::Clusterer front
// door (api/clusterer.h): the facade record carries via="facade" and a
// `facade_overhead` field (facade refine time / direct engine refine
// time). The type-erasure boundary is one virtual call per Fit — the hot
// loops are the same templated code — so the overhead must stay within
// timing noise; the bench asserts the results are bit-identical and
// flags overheads above 10%.
//
// Each LSH cell additionally runs a routed-predict throughput workload:
// the fitted Clusterer's model keeps its index, every item
// is then routed out-of-sample through PredictRouted (sign -> probe the
// fit-time buckets -> nearest-of-shortlist) and through the exhaustive
// Predict, and the record carries both timings plus their ratio
// (method="routed-predict"). The fitted dataset is hard-asserted to be
// signed exactly once (IndexHandle::dataset_sign_passes).
//
// Flags: --items, --clusters, --attrs, --dims, --iters, --seed,
//        --threads (comma list, default 1,2,4,8),
//        --shards (item-space shards, default 1),
//        --chunk (items per work unit, default 1024),
//        --json (output path, empty = off)

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/clusterer.h"
#include "bench/common.h"
#include "util/stopwatch.h"
#include "clustering/kmodes.h"
#include "clustering/kprototypes.h"
#include "core/lsh_kmeans.h"
#include "core/lsh_kprototypes.h"
#include "core/mh_kmodes.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using namespace lshclust;

struct BenchFlags {
  int64_t items = 20000;
  int64_t clusters = 200;
  int64_t attrs = 24;
  int64_t dims = 16;
  int64_t iters = 5;
  int64_t seed = 42;
  int64_t shards = 1;
  int64_t chunk = 1024;
  std::string threads = "1,2,4,8";
  std::string json = "BENCH_engine.json";
};

bool ParseThreadList(const std::string& spec,
                     std::vector<uint32_t>* threads) {
  threads->clear();
  for (const auto& field : Split(spec, ',')) {
    if (field.empty()) continue;
    size_t consumed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(field, &consumed);
    } catch (const std::exception&) {
      return false;
    }
    if (consumed != field.size() || value == 0 || value > 1024) return false;
    threads->push_back(static_cast<uint32_t>(value));
  }
  return !threads->empty();
}

void Report(bench::JsonBenchWriter* writer, const char* family,
            const char* name, const EngineOptions& engine, int64_t items,
            const ClusteringResult& result) {
  const double refine_seconds = result.RefinementSeconds();
  const double items_per_second =
      refine_seconds > 0
          ? static_cast<double>(items) * result.iterations.size() /
                refine_seconds
          : 0.0;
  std::printf(
      "%-18s threads=%u  iters=%zu  refine=%8.3fs  assign-throughput=%12.0f "
      "items/s  moves=%" PRIu64 "\n",
      name, engine.num_threads, result.iterations.size(), refine_seconds,
      items_per_second, result.TotalMoves());
  writer->BeginRecord();
  writer->Add("bench", "engine_threads");
  writer->Add("family", family);
  writer->Add("method", name);
  writer->Add("threads", engine.num_threads);
  writer->Add("shards", engine.num_shards);
  writer->Add("chunk_size", engine.chunk_size);
  writer->Add("items", static_cast<int64_t>(items));
  writer->Add("iterations", static_cast<uint64_t>(result.iterations.size()));
  writer->Add("refine_seconds", refine_seconds);
  writer->Add("assign_items_per_second", items_per_second);
  writer->Add("moves", result.TotalMoves());
}

/// Runs the same workload through the Clusterer facade and records the
/// dispatch overhead against the direct engine run. Bit-identity is a
/// hard assertion; the timing ratio is recorded (and flagged above 10%)
/// rather than asserted — wall-clock noise on a loaded box is not a
/// regression.
template <typename Dataset>
void ReportFacade(bench::JsonBenchWriter* writer, const char* family,
                  const char* name, const ClustererSpec& spec,
                  const Dataset& dataset, int64_t items,
                  const ClusteringResult& direct) {
  auto clusterer = Clusterer::Create(spec);
  LSHC_CHECK_OK(clusterer.status());
  auto report = clusterer->Fit(dataset);
  LSHC_CHECK_OK(report.status());
  const ClusteringResult& facade = report->result;
  LSHC_CHECK(facade.assignment == direct.assignment)
      << "facade run diverged from the direct engine (" << family << "/"
      << name << ")";
  const double direct_refine = direct.RefinementSeconds();
  const double facade_refine = facade.RefinementSeconds();
  const double overhead =
      direct_refine > 0 ? facade_refine / direct_refine : 1.0;
  std::printf("%-18s threads=%u  facade refine=%8.3fs  overhead=%.3fx%s\n",
              name, spec.engine.num_threads, facade_refine, overhead,
              overhead > 1.10 ? "  [above noise budget]" : "");
  writer->BeginRecord();
  writer->Add("bench", "engine_threads");
  writer->Add("family", family);
  writer->Add("method", name);
  writer->Add("via", "facade");
  writer->Add("threads", spec.engine.num_threads);
  writer->Add("shards", spec.engine.num_shards);
  writer->Add("chunk_size", spec.engine.chunk_size);
  writer->Add("items", static_cast<int64_t>(items));
  writer->Add("refine_seconds", facade_refine);
  writer->Add("direct_refine_seconds", direct_refine);
  writer->Add("facade_overhead", overhead);
}

/// Routed-vs-exhaustive out-of-sample assignment throughput through the
/// fitted model's index: Fit once (the model keeps the index), then route
/// every item of `arrivals` via PredictRouted and via the exhaustive
/// Predict. Zero re-signing of the fitted dataset is a hard assertion;
/// the agreement rate is recorded (routing can differ where the probe
/// misses the exhaustive winner — that is the recall/throughput
/// trade-off the record quantifies).
template <typename Dataset>
void ReportRoutedPredict(bench::JsonBenchWriter* writer, const char* family,
                         const ClustererSpec& spec, const Dataset& fit_data,
                         const Dataset& arrivals) {
  auto clusterer = Clusterer::Create(spec);
  LSHC_CHECK_OK(clusterer.status());
  auto report = clusterer->Fit(fit_data);
  LSHC_CHECK_OK(report.status());
  LSHC_CHECK(report->has_index)
      << "routed-predict workload needs a fitted index (" << family << ")";

  Stopwatch watch;
  auto routed = clusterer->PredictRouted(arrivals);
  LSHC_CHECK_OK(routed.status());
  const double routed_seconds = watch.ElapsedSeconds();
  watch.Restart();
  auto exhaustive = clusterer->Predict(arrivals);
  LSHC_CHECK_OK(exhaustive.status());
  const double exhaustive_seconds = watch.ElapsedSeconds();

  auto handle = clusterer->index();
  LSHC_CHECK_OK(handle.status());
  LSHC_CHECK(handle->dataset_sign_passes() == 1)
      << "routed predict re-signed the fitted dataset (" << family << ")";

  uint64_t agree = 0;
  for (size_t i = 0; i < routed->size(); ++i) {
    agree += (*routed)[i] == (*exhaustive)[i] ? 1 : 0;
  }
  const uint32_t n = arrivals.num_items();
  const double items_per_second =
      routed_seconds > 0 ? static_cast<double>(n) / routed_seconds : 0.0;
  const double speedup =
      routed_seconds > 0 ? exhaustive_seconds / routed_seconds : 0.0;
  std::printf("%-18s threads=%u  routed=%8.3fs  exhaustive=%8.3fs  "
              "(%.1fx)  agreement=%.1f%%\n",
              "routed-predict", spec.engine.num_threads, routed_seconds,
              exhaustive_seconds, speedup,
              100.0 * static_cast<double>(agree) / n);
  writer->BeginRecord();
  writer->Add("bench", "engine_threads");
  writer->Add("family", family);
  writer->Add("method", "routed-predict");
  writer->Add("threads", spec.engine.num_threads);
  writer->Add("shards", spec.engine.num_shards);
  writer->Add("chunk_size", spec.engine.chunk_size);
  writer->Add("items", static_cast<int64_t>(n));
  writer->Add("routed_seconds", routed_seconds);
  writer->Add("exhaustive_predict_seconds", exhaustive_seconds);
  writer->Add("routed_speedup", speedup);
  writer->Add("routed_items_per_second", items_per_second);
  writer->Add("agreement",
              static_cast<double>(agree) / static_cast<double>(n));
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags;
  FlagSet flag_set("engine_threads");
  flag_set.AddInt64("items", &flags.items, "items per dataset");
  flag_set.AddInt64("clusters", &flags.clusters, "clusters k");
  flag_set.AddInt64("attrs", &flags.attrs, "categorical attributes");
  flag_set.AddInt64("dims", &flags.dims, "numeric dimensions");
  flag_set.AddInt64("iters", &flags.iters, "refinement iteration cap");
  flag_set.AddInt64("seed", &flags.seed, "master RNG seed");
  flag_set.AddInt64("shards", &flags.shards,
                    "item-space shards of the assignment decomposition");
  flag_set.AddInt64("chunk", &flags.chunk,
                    "items per work unit within a shard");
  flag_set.AddString("threads", &flags.threads,
                     "comma-separated worker-thread counts");
  flag_set.AddString("json", &flags.json,
                     "machine-readable output path (empty = off)");
  if (auto status = flag_set.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.shards < 1 || flags.shards > UINT32_MAX || flags.chunk < 1 ||
      flags.chunk > UINT32_MAX) {
    std::fprintf(stderr,
                 "error: --shards and --chunk must be in [1, 2^32-1]\n");
    return 1;
  }
  std::vector<uint32_t> thread_counts;
  if (!ParseThreadList(flags.threads, &thread_counts)) {
    std::fprintf(stderr,
                 "error: --threads wants a comma list of counts in "
                 "[1, 1024], got \"%s\"\n",
                 flags.threads.c_str());
    return 1;
  }

  const auto n = static_cast<uint32_t>(flags.items);
  const auto k = static_cast<uint32_t>(flags.clusters);
  bench::JsonBenchWriter writer;

  // --- categorical: K-Modes and MH-K-Modes -------------------------------
  ConjunctiveDataOptions categorical;
  categorical.num_items = n;
  categorical.num_attributes = static_cast<uint32_t>(flags.attrs);
  categorical.num_clusters = k;
  categorical.domain_size = 4 * k;
  categorical.seed = static_cast<uint64_t>(flags.seed);
  const auto categorical_data =
      GenerateConjunctiveRuleData(categorical).ValueOrDie();

  std::printf("== categorical: %u items x %u attrs, k=%u ==\n", n,
              categorical.num_attributes, k);
  for (const uint32_t threads : thread_counts) {
    EngineOptions options;
    options.num_clusters = k;
    options.max_iterations = static_cast<uint32_t>(flags.iters);
    options.seed = static_cast<uint64_t>(flags.seed);
    options.compute_cost = false;  // pure assignment timing
    options.num_threads = threads;
    options.num_shards = static_cast<uint32_t>(flags.shards);
    options.chunk_size = static_cast<uint32_t>(flags.chunk);
    const auto kmodes = RunKModes(categorical_data, options).ValueOrDie();
    Report(&writer, "categorical", "kmodes", options, flags.items, kmodes);
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = Accelerator::kExhaustive;
    spec.engine = options;
    ReportFacade(&writer, "categorical", "kmodes", spec, categorical_data,
                 flags.items, kmodes);

    // Direct engine instantiation — the legacy RunMHKModes entry point is
    // itself a facade shim now, so the baseline of the overhead
    // comparison constructs the provider by hand.
    ShortlistIndexOptions index;
    index.banding = {20, 5};
    ClusterShortlistProvider provider(index, options.num_clusters);
    const auto mh =
        RunEngine(categorical_data, options, provider).ValueOrDie();
    Report(&writer, "categorical", "mh-kmodes", options, flags.items, mh);
    spec.accelerator = Accelerator::kMinHash;
    spec.minhash = index;
    ReportFacade(&writer, "categorical", "mh-kmodes", spec, categorical_data,
                 flags.items, mh);
    ReportRoutedPredict(&writer, "categorical", spec, categorical_data,
                        categorical_data);
  }

  // --- numeric: K-Means and LSH-K-Means ----------------------------------
  GaussianMixtureOptions numeric;
  numeric.num_items = n;
  numeric.dimensions = static_cast<uint32_t>(flags.dims);
  numeric.num_clusters = k;
  numeric.seed = static_cast<uint64_t>(flags.seed) + 1;
  const auto numeric_data = GenerateGaussianMixture(numeric).ValueOrDie();

  std::printf("== numeric: %u items x %u dims, k=%u ==\n", n,
              numeric.dimensions, k);
  for (const uint32_t threads : thread_counts) {
    KMeansOptions options;
    options.num_clusters = k;
    options.max_iterations = static_cast<uint32_t>(flags.iters);
    options.seed = static_cast<uint64_t>(flags.seed);
    options.compute_cost = false;
    options.num_threads = threads;
    options.num_shards = static_cast<uint32_t>(flags.shards);
    options.chunk_size = static_cast<uint32_t>(flags.chunk);
    const auto kmeans = RunKMeans(numeric_data, options).ValueOrDie();
    Report(&writer, "numeric", "kmeans", options, flags.items, kmeans);
    ClustererSpec spec;
    spec.modality = Modality::kNumeric;
    spec.accelerator = Accelerator::kExhaustive;
    spec.engine = options;
    ReportFacade(&writer, "numeric", "kmeans", spec, numeric_data,
                 flags.items, kmeans);

    SimHashIndexOptions index;
    index.banding = {16, 4};
    SimHashShortlistProvider provider(index, options.num_clusters);
    const auto lsh =
        RunKMeansEngine(numeric_data, options, provider).ValueOrDie();
    Report(&writer, "numeric", "lsh-kmeans", options, flags.items, lsh);
    spec.accelerator = Accelerator::kSimHash;
    spec.simhash = index;
    ReportFacade(&writer, "numeric", "lsh-kmeans", spec, numeric_data,
                 flags.items, lsh);
    ReportRoutedPredict(&writer, "numeric", spec, numeric_data,
                        numeric_data);
  }

  // --- mixed: K-Prototypes and LSH-K-Prototypes --------------------------
  MixedDataOptions mixed;
  mixed.categorical.num_items = n;
  mixed.categorical.num_attributes = static_cast<uint32_t>(flags.attrs);
  mixed.categorical.num_clusters = k;
  mixed.categorical.domain_size = 4 * k;
  mixed.categorical.seed = static_cast<uint64_t>(flags.seed) + 2;
  mixed.numeric_dimensions = static_cast<uint32_t>(flags.dims);
  const auto mixed_data = GenerateMixedData(mixed).ValueOrDie();

  std::printf("== mixed: %u items, %u attrs + %u dims, k=%u ==\n", n,
              mixed.categorical.num_attributes, mixed.numeric_dimensions, k);
  for (const uint32_t threads : thread_counts) {
    KPrototypesOptions options;
    options.num_clusters = k;
    options.max_iterations = static_cast<uint32_t>(flags.iters);
    options.seed = static_cast<uint64_t>(flags.seed);
    options.gamma = 0.5;
    options.compute_cost = false;
    options.num_threads = threads;
    options.num_shards = static_cast<uint32_t>(flags.shards);
    options.chunk_size = static_cast<uint32_t>(flags.chunk);
    const auto kprototypes = RunKPrototypes(mixed_data, options).ValueOrDie();
    Report(&writer, "mixed", "kprototypes", options, flags.items,
           kprototypes);
    ClustererSpec spec;
    spec.modality = Modality::kMixed;
    spec.accelerator = Accelerator::kExhaustive;
    spec.engine = options;
    spec.gamma = options.gamma;
    ReportFacade(&writer, "mixed", "kprototypes", spec, mixed_data,
                 flags.items, kprototypes);

    MixedIndexOptions index;
    MixedShortlistProvider provider(index, options.num_clusters);
    const auto lsh =
        RunKPrototypesEngine(mixed_data, options, provider).ValueOrDie();
    Report(&writer, "mixed", "lsh-kprototypes", options, flags.items, lsh);
    spec.accelerator = Accelerator::kMixedConcat;
    spec.mixed_index = index;
    ReportFacade(&writer, "mixed", "lsh-kprototypes", spec, mixed_data,
                 flags.items, lsh);
    ReportRoutedPredict(&writer, "mixed", spec, mixed_data, mixed_data);
  }

  if (!flags.json.empty() && writer.WriteFile(flags.json)) {
    std::printf("wrote %zu records to %s\n", writer.num_records(),
                flags.json.c_str());
  }
  return 0;
}
