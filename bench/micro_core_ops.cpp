// google-benchmark microbenchmarks for the hot kernels: MinHash signature
// generation (Algorithm 1, both derivation modes, plus one-permutation),
// mismatch distance (plain and early-exit), banding index build and query,
// mode recomputation, the exhaustive argmin (per-pair loop vs all-clusters
// scan), and the flat hash map.
//
// With --json=<path> the binary instead emits machine-readable records: a
// provenance record, per-kernel timings at every supported SIMD dispatch
// tier (with speedup_vs_scalar on the vector tiers), and, at perfbench's
// two fit shapes and per tier, the exhaustive argmin per-pair vs scan and
// one routed query (FrozenModel::RouteInto) vs the item-walk route it
// replaced, and at the fit-numeric shape one Fit refinement pass, cluster
// bitmasks vs the cluster-list walk. Once, at the detected tier, it times the freeze of a live
// streaming index and the whole StreamingSession::Snapshot() at
// perfbench's serve-live shape, as the live index grows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "api/clusterer.h"
#include "bench/common.h"
#include "clustering/dissimilarity.h"
#include "clustering/engine.h"
#include "clustering/kmeans.h"
#include "clustering/modes.h"
#include "core/cluster_shortlist_index.h"
#include "core/simhash_shortlist_index.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "hashing/minhash.h"
#include "hashing/one_permutation_minhash.h"
#include "lsh/banded_index.h"
#include "lsh/dynamic_banded_index.h"
#include "lsh/flat_hash_table.h"
#include "serving/frozen_model_impl.h"
#include "simd/dispatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace lshclust;

std::vector<uint32_t> MakeTokens(uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> tokens(count);
  for (auto& token : tokens) token = static_cast<uint32_t>(rng.Below(1u << 30));
  return tokens;
}

// ------------------------------------------------- signature generation --

void BM_MinHashSignature_DoubleHashing(benchmark::State& state) {
  const uint32_t num_hashes = static_cast<uint32_t>(state.range(0));
  const uint32_t num_tokens = static_cast<uint32_t>(state.range(1));
  const MinHasher hasher(num_hashes, 42, MinHashMode::kDoubleHashing);
  const auto tokens = MakeTokens(num_tokens, 1);
  std::vector<uint64_t> signature(num_hashes);
  for (auto _ : state) {
    hasher.ComputeSignature(tokens, signature.data());
    benchmark::DoNotOptimize(signature.data());
  }
  state.SetItemsProcessed(state.iterations() * num_tokens);
}
BENCHMARK(BM_MinHashSignature_DoubleHashing)
    ->Args({100, 100})
    ->Args({100, 400})
    ->Args({250, 100})
    ->Args({250, 400});

void BM_MinHashSignature_Independent(benchmark::State& state) {
  const uint32_t num_hashes = static_cast<uint32_t>(state.range(0));
  const uint32_t num_tokens = static_cast<uint32_t>(state.range(1));
  const MinHasher hasher(num_hashes, 42, MinHashMode::kIndependent);
  const auto tokens = MakeTokens(num_tokens, 1);
  std::vector<uint64_t> signature(num_hashes);
  for (auto _ : state) {
    hasher.ComputeSignature(tokens, signature.data());
    benchmark::DoNotOptimize(signature.data());
  }
  state.SetItemsProcessed(state.iterations() * num_tokens);
}
BENCHMARK(BM_MinHashSignature_Independent)->Args({100, 100})->Args({250, 100});

void BM_OnePermutationSignature(benchmark::State& state) {
  const uint32_t num_bins = static_cast<uint32_t>(state.range(0));
  const uint32_t num_tokens = static_cast<uint32_t>(state.range(1));
  const OnePermutationMinHasher hasher(num_bins, 42);
  const auto tokens = MakeTokens(num_tokens, 1);
  std::vector<uint64_t> signature(num_bins);
  for (auto _ : state) {
    hasher.ComputeSignature(tokens, signature.data());
    benchmark::DoNotOptimize(signature.data());
  }
  state.SetItemsProcessed(state.iterations() * num_tokens);
}
BENCHMARK(BM_OnePermutationSignature)
    ->Args({100, 100})
    ->Args({250, 100})
    ->Args({250, 400});

// ------------------------------------------------------ distance kernels --

void BM_MismatchDistance(benchmark::State& state) {
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  const auto a = MakeTokens(m, 1);
  const auto b = MakeTokens(m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MismatchDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_MismatchDistance)->Arg(100)->Arg(200)->Arg(400)->Arg(2000);

void BM_BoundedMismatchDistance_TightBound(benchmark::State& state) {
  // The common case in a converged clustering: the bound is small and the
  // kernel exits within the first blocks.
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  const auto a = MakeTokens(m, 1);
  const auto b = MakeTokens(m, 2);  // ~100% mismatches
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BoundedMismatchDistance(a.data(), b.data(), m, 8));
  }
}
BENCHMARK(BM_BoundedMismatchDistance_TightBound)->Arg(100)->Arg(400)->Arg(2000);

void BM_BoundedMismatchDistance_LooseBound(benchmark::State& state) {
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  const auto a = MakeTokens(m, 1);
  auto b = a;  // identical: never exits early
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BoundedMismatchDistance(a.data(), b.data(), m, m + 1));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_BoundedMismatchDistance_LooseBound)->Arg(100)->Arg(400);

// --------------------------------------------------------- banding index --

CategoricalDataset BenchDataset(uint32_t n, uint32_t m, uint32_t k,
                                uint32_t domain = 1000) {
  ConjunctiveDataOptions options;
  options.num_items = n;
  options.num_attributes = m;
  options.num_clusters = k;
  options.domain_size = domain;
  options.seed = 3;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

// Prepare (signing + index build) of n items on `threads` threads; 1 runs
// in-line without a pool, as the engine does.
void BM_IndexBuild(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const auto dataset = BenchDataset(n, 100, std::max(8u, n / 10));
  ShortlistIndexOptions options;
  options.banding = {20, 5};
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  for (auto _ : state) {
    ClusterShortlistProvider provider(options, std::max(8u, n / 10));
    benchmark::DoNotOptimize(
        provider.Prepare(dataset, pool ? &*pool : nullptr).ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexBuild)
    ->ArgNames({"items", "threads"})
    ->ArgsProduct({{1000, 5000}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_ShortlistQuery(benchmark::State& state) {
  const uint32_t n = 5000;
  const uint32_t k = 500;
  const auto dataset = BenchDataset(n, 100, k);
  ShortlistIndexOptions options;
  options.banding = {static_cast<uint32_t>(state.range(0)),
                     static_cast<uint32_t>(state.range(1))};
  ClusterShortlistProvider provider(options, k);
  if (!provider.Prepare(dataset).ok()) {
    state.SkipWithError("Prepare failed");
    return;
  }
  std::vector<uint32_t> assignment(n);
  for (uint32_t i = 0; i < n; ++i) assignment[i] = i % k;
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  uint32_t item = 0;
  for (auto _ : state) {
    provider.GetCandidates(item, assignment, scratch, &shortlist);
    benchmark::DoNotOptimize(shortlist.data());
    item = (item + 1) % n;
  }
}
BENCHMARK(BM_ShortlistQuery)->Args({1, 1})->Args({20, 5})->Args({50, 5});

// ------------------------------------------------------------ mode update --

void BM_ModeRecompute(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint32_t m = static_cast<uint32_t>(state.range(1));
  const uint32_t k = static_cast<uint32_t>(state.range(2));
  const auto dataset =
      BenchDataset(n, m, k, static_cast<uint32_t>(state.range(3)));
  ModeTable modes(k, m);
  Rng rng(5);
  std::vector<uint32_t> assignment(n);
  for (uint32_t i = 0; i < n; ++i) assignment[i] = i % k;
  for (auto _ : state) {
    modes.RecomputeFromAssignment(dataset, assignment,
                                  EmptyClusterPolicy::kKeepPreviousMode, rng);
    benchmark::DoNotOptimize(modes.ModeData(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ModeRecompute)
    ->ArgNames({"items", "attributes", "k", "domain"})
    ->Args({1000, 100, 100, 1000})
    ->Args({10000, 100, 1000, 1000})
    // perfbench's fit-categorical shape.
    ->Args({50000, 24, 500, 4000})
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------- exhaustive argmin --

// The exhaustive argmin of one item over all k clusters at perfbench's two
// fit shapes: fit-categorical (24 attributes x 500 clusters, conjunctive
// rules over a 4,000-code domain) and fit-numeric (16 dimensions x 200
// clusters, a Gaussian mixture). The centroids are items of the same
// data; the timed queries are the kScanQueries items before them.
constexpr uint32_t kScanQueries = 256;

template <typename Traits>
struct ScanShape {
  typename Traits::Dataset dataset;
  typename Traits::Centroids centroids;
  typename Traits::Options options;
};

template <typename Traits>
ScanShape<Traits> MakeScanShape(typename Traits::Dataset dataset,
                                uint32_t k) {
  typename Traits::Options options;
  options.num_clusters = k;
  typename Traits::Centroids centroids =
      Traits::MakeCentroids(dataset, options);
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    Traits::SeedCentroid(centroids, cluster, dataset, kScanQueries + cluster);
  }
  return {std::move(dataset), std::move(centroids), std::move(options)};
}

const ScanShape<CategoricalClusteringTraits>& CategoricalScanShape() {
  static const auto shape = MakeScanShape<CategoricalClusteringTraits>(
      BenchDataset(kScanQueries + 500, 24, 500, 4000), 500);
  return shape;
}

const ScanShape<NumericClusteringTraits>& NumericScanShape() {
  static const auto shape = [] {
    GaussianMixtureOptions options;
    options.num_items = kScanQueries + 200;
    options.dimensions = 16;
    options.num_clusters = 200;
    return MakeScanShape<NumericClusteringTraits>(
        GenerateGaussianMixture(options).ValueOrDie(), 200);
  }();
  return shape;
}

/// The per-pair loop the all-clusters scan replaced: the seed cluster's
/// exact distance, then one early-exit kernel call per other cluster,
/// bounded by the running best.
template <typename Traits>
uint32_t PerPairArgmin(const ScanShape<Traits>& shape, uint32_t item) {
  uint32_t best_cluster = 0;
  auto best_distance = Traits::template ComputeDistance<false>(
      shape.dataset, shape.centroids, shape.options, item, 0,
      Traits::kInfiniteDistance);
  for (uint32_t cluster = 1; cluster < shape.options.num_clusters;
       ++cluster) {
    const auto distance = Traits::template ComputeDistance<true>(
        shape.dataset, shape.centroids, shape.options, item, cluster,
        best_distance);
    if (distance < best_distance) {
      best_distance = distance;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

/// Sum of the argmins of every query, per-pair (`scan` false) or through
/// BestClusterExhaustive's one all-clusters scan.
template <typename Traits>
uint64_t ArgminSweep(const ScanShape<Traits>& shape, bool scan,
                     DistanceScratch& scratch) {
  uint64_t sum = 0;
  for (uint32_t item = 0; item < kScanQueries; ++item) {
    sum += scan ? BestClusterExhaustive<Traits>(shape.dataset,
                                                shape.centroids,
                                                shape.options, item, 0,
                                                scratch)
                : PerPairArgmin(shape, item);
  }
  return sum;
}

// Args: {shape (0 = fit-categorical, 1 = fit-numeric), scan (0/1)}; items
// processed = queries, so items_per_second compares the two paths.
void BM_ExhaustiveScan(benchmark::State& state) {
  const bool numeric = state.range(0) != 0;
  const bool scan = state.range(1) != 0;
  DistanceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        numeric ? ArgminSweep(NumericScanShape(), scan, scratch)
                : ArgminSweep(CategoricalScanShape(), scan, scratch));
  }
  state.SetItemsProcessed(state.iterations() * kScanQueries);
}
BENCHMARK(BM_ExhaustiveScan)
    ->ArgNames({"numeric", "scan"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// ---------------------------------------------------------- flat hash map --

void BM_FlatHashMapInsert(benchmark::State& state) {
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    FlatHashMap64 map(count);
    for (uint32_t i = 0; i < count; ++i) {
      *map.FindOrInsert(Mix64(i), 0) = i;
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_FlatHashMapInsert)->Arg(1000)->Arg(100000);

void BM_FlatHashMapFind(benchmark::State& state) {
  const uint32_t count = 100000;
  FlatHashMap64 map(count);
  for (uint32_t i = 0; i < count; ++i) *map.FindOrInsert(Mix64(i), 0) = i;
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(Mix64(key)));
    key = (key + 1) % count;
  }
}
BENCHMARK(BM_FlatHashMapFind);

// ------------------------------------ machine-readable records (--json) --

using Clock = std::chrono::steady_clock;

/// Timed batches per record; records report their median and quartiles.
constexpr int kReps = 11;

/// Median and quartiles of kReps timings, in ns per call.
struct Quartiles {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

Quartiles QuartilesOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return {samples[n / 2], samples[n / 4], samples[3 * n / 4]};
}

/// ns per call of `op` over one batch of `batch` calls.
template <typename Op>
double BatchNsPerOp(const Op& op, uint64_t batch) {
  const auto start = Clock::now();
  for (uint64_t i = 0; i < batch; ++i) op();
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
             .count() /
         static_cast<double>(batch);
}

/// Calls per batch of `op`, grown 4x at a time until a batch takes
/// >= 10 ms.
template <typename Op>
uint64_t CalibratedBatch(const Op& op) {
  uint64_t batch = 1;
  while (BatchNsPerOp(op, batch) * static_cast<double>(batch) < 1e7) {
    batch *= 4;
  }
  return batch;
}

/// Median and quartiles of kReps calibrated batches of `op`.
template <typename Op>
Quartiles TimeNsPerOp(const Op& op) {
  const uint64_t batch = CalibratedBatch(op);
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    samples.push_back(BatchNsPerOp(op, batch));
  }
  return QuartilesOf(std::move(samples));
}

struct KernelTiming {
  const char* kernel;
  Quartiles ns;
};

/// Times every dispatched kernel once through the *currently active* tier
/// (force a tier first). Input shapes mirror the hot paths: m=2000 codes
/// (fig2's widest mode scan), d=512 doubles, 128-hash MinHash scans.
std::vector<KernelTiming> TimeKernelsAtActiveTier() {
  const simd::KernelTable& k = simd::ActiveKernels();
  constexpr uint32_t kM = 2000;
  constexpr uint32_t kD = 512;
  constexpr uint32_t kHashes = 128;
  static const std::vector<uint32_t> a = MakeTokens(kM, 1);
  static const std::vector<uint32_t> b = [] {
    std::vector<uint32_t> out = a;
    for (uint32_t i = 0; i < kM; i += 2) out[i] ^= 1;  // 50% mismatches
    return out;
  }();
  static const std::vector<double> x = [] {
    Rng rng(7);
    std::vector<double> out(kD);
    for (auto& v : out) v = rng.NextDouble() - 0.5;
    return out;
  }();
  static const std::vector<double> y = [] {
    Rng rng(8);
    std::vector<double> out(kD);
    for (auto& v : out) v = rng.NextDouble() - 0.5;
    return out;
  }();
  static std::vector<uint64_t> scan(kHashes, ~0ull);
  static std::vector<uint64_t> mixed(kHashes);

  std::vector<KernelTiming> timings;
  timings.push_back({"mismatch", TimeNsPerOp([&] {
                       benchmark::DoNotOptimize(
                           k.mismatch(a.data(), b.data(), kM));
                     })});
  timings.push_back({"bounded_mismatch", TimeNsPerOp([&] {
                       benchmark::DoNotOptimize(k.bounded_mismatch(
                           a.data(), b.data(), kM, kM + 1));
                     })});
  timings.push_back({"bounded_sql2", TimeNsPerOp([&] {
                       benchmark::DoNotOptimize(k.bounded_sql2(
                           x.data(), y.data(), kD, 1e300));
                     })});
  timings.push_back({"dot", TimeNsPerOp([&] {
                       benchmark::DoNotOptimize(
                           k.dot(x.data(), y.data(), kD));
                     })});
  timings.push_back({"minhash_scan", TimeNsPerOp([&] {
                       k.minhash_scan(scan.data(), kHashes,
                                      0x12345678abcdef01ull,
                                      0x9E3779B97F4A7C15ull);
                       benchmark::DoNotOptimize(scan.data());
                     })});
  timings.push_back({"mix64_batch", TimeNsPerOp([&] {
                       k.mix64_batch(a.data(), kHashes, 42, mixed.data());
                       benchmark::DoNotOptimize(mixed.data());
                     })});
  return timings;
}

/// `timing` (ns) in ms.
Quartiles InMs(const Quartiles& timing) {
  return {timing.median * 1e-6, timing.q1 * 1e-6, timing.q3 * 1e-6};
}

/// Writes `prefix` + _median / _q1 / _q3.
void AddQuartiles(bench::JsonBenchWriter& writer, const std::string& prefix,
                  const Quartiles& timing) {
  writer.Add((prefix + "_median").c_str(), timing.median);
  writer.Add((prefix + "_q1").c_str(), timing.q1);
  writer.Add((prefix + "_q3").c_str(), timing.q3);
}

/// One exhaustive-argmin record at the active tier: ns per query of the
/// per-pair loop and of the scan, kReps batches each (the two paths
/// alternate batch by batch, so host drift hits both), and whether both
/// picked the same clusters.
template <typename Traits>
void AddExhaustiveScanRecord(bench::JsonBenchWriter& writer,
                             const char* shape_name,
                             const ScanShape<Traits>& shape) {
  DistanceScratch scratch;
  const auto per_pair_op = [&] {
    benchmark::DoNotOptimize(ArgminSweep(shape, false, scratch));
  };
  const auto scan_op = [&] {
    benchmark::DoNotOptimize(ArgminSweep(shape, true, scratch));
  };
  const uint64_t per_pair_batch = CalibratedBatch(per_pair_op);
  const uint64_t scan_batch = CalibratedBatch(scan_op);
  std::vector<double> per_pair, scan;
  for (int rep = 0; rep < kReps; ++rep) {
    per_pair.push_back(BatchNsPerOp(per_pair_op, per_pair_batch) /
                       kScanQueries);
    scan.push_back(BatchNsPerOp(scan_op, scan_batch) / kScanQueries);
  }
  const Quartiles per_pair_ns = QuartilesOf(std::move(per_pair));
  const Quartiles scan_ns = QuartilesOf(std::move(scan));
  bool same = true;
  for (uint32_t item = 0; item < kScanQueries; ++item) {
    same = same && PerPairArgmin(shape, item) ==
                       BestClusterExhaustive<Traits>(shape.dataset,
                                                     shape.centroids,
                                                     shape.options, item, 0,
                                                     scratch);
  }
  writer.BeginRecord();
  writer.Add("record", "exhaustive_scan");
  writer.Add("shape", shape_name);
  writer.Add("clusters", shape.options.num_clusters);
  writer.Add("queries", kScanQueries);
  writer.Add("reps", static_cast<uint32_t>(kReps));
  AddQuartiles(writer, "per_pair_ns_per_item", per_pair_ns);
  AddQuartiles(writer, "scan_ns_per_item", scan_ns);
  writer.Add("speedup_vs_per_pair", per_pair_ns.median / scan_ns.median);
  writer.Add("identical_argmins", same ? "true" : "false");
}

// Routed queries at perfbench's two fit shapes: a model fitted with the
// library defaults except k and the iteration cap (perfbench's) and seed 1,
// routing kRoutedQueries held-out items drawn from the same generator.
constexpr uint32_t kRoutedQueries = 1024;

template <typename Traits, typename Family>
struct RoutedShape {
  using Model = serving::internal::FrozenModelImpl<Traits, Family>;
  std::shared_ptr<const serving::FrozenModel> model;
  typename Traits::Dataset queries;

  const Model& impl() const { return dynamic_cast<const Model&>(*model); }
};

/// Items [begin, begin + count) of `all`.
CategoricalDataset Rows(const CategoricalDataset& all, uint32_t begin,
                        uint32_t count) {
  const uint32_t m = all.num_attributes();
  std::vector<uint32_t> codes(
      all.codes().begin() + static_cast<size_t>(begin) * m,
      all.codes().begin() + static_cast<size_t>(begin + count) * m);
  return CategoricalDataset::FromCodes(count, m, all.num_codes(),
                                       std::move(codes))
      .ValueOrDie();
}

NumericDataset Rows(const NumericDataset& all, uint32_t begin,
                    uint32_t count) {
  std::vector<double> values;
  for (uint32_t item = begin; item < begin + count; ++item) {
    values.insert(values.end(), all.Row(item).begin(), all.Row(item).end());
  }
  return NumericDataset::FromValues(count, all.dimensions(),
                                    std::move(values))
      .ValueOrDie();
}

/// Fits `spec` on the first `fitted` items of `all` and keeps the next
/// kRoutedQueries as queries.
template <typename Traits, typename Family>
RoutedShape<Traits, Family> MakeRoutedShape(const ClustererSpec& spec,
                                            const typename Traits::Dataset& all,
                                            uint32_t fitted) {
  auto clusterer = Clusterer::Create(spec).ValueOrDie();
  LSHC_CHECK(clusterer.Fit(Rows(all, 0, fitted)).ok());
  return {clusterer.Snapshot().ValueOrDie(),
          Rows(all, fitted, kRoutedQueries)};
}

ClustererSpec RoutedSpec(Modality modality, Accelerator accelerator,
                         uint32_t k, uint32_t max_iterations) {
  ClustererSpec spec;
  spec.modality = modality;
  spec.accelerator = accelerator;
  spec.engine.num_clusters = k;
  spec.engine.max_iterations = max_iterations;
  spec.engine.seed = 1;
  return spec;
}

const RoutedShape<NumericClusteringTraits, SimHashShortlistFamily>&
NumericRoutedShape() {
  static const auto shape = [] {
    GaussianMixtureOptions options;
    options.num_items = 10000 + kRoutedQueries;
    options.dimensions = 16;
    options.num_clusters = 200;
    return MakeRoutedShape<NumericClusteringTraits, SimHashShortlistFamily>(
        RoutedSpec(Modality::kNumeric, Accelerator::kSimHash, 200, 5),
        GenerateGaussianMixture(options).ValueOrDie(), 10000);
  }();
  return shape;
}

const RoutedShape<CategoricalClusteringTraits, MinHashShortlistFamily>&
CategoricalRoutedShape() {
  static const auto shape =
      MakeRoutedShape<CategoricalClusteringTraits, MinHashShortlistFamily>(
          RoutedSpec(Modality::kCategorical, Accelerator::kMinHash, 500, 3),
          BenchDataset(50000 + kRoutedQueries, 24, 500, 4000), 50000);
  return shape;
}

/// The routed query as it ran before per-bucket cluster lists: walk every
/// co-bucketed fitted item through the fit assignment, sort the distinct
/// clusters and score them pair by pair with the early-exit kernels; an
/// empty probe takes the exhaustive scan. Also counts the shortlist.
template <typename Traits, typename Family>
uint32_t ItemWalkRoute(const RoutedShape<Traits, Family>& shape,
                       uint32_t item, serving::RoutedScratch& scratch,
                       uint64_t* shortlisted) {
  const auto& model = shape.impl();
  model.SignQuery(shape.queries, item, scratch);
  scratch.shortlist.clear();
  BumpDedupEpoch(scratch.dedup);
  model.index()->VisitCandidatesOfSignature(
      scratch.signature, [&](uint32_t other) {
        const uint32_t cluster = model.fit_assignment()[other];
        if (scratch.dedup.cluster_stamp[cluster] == scratch.dedup.epoch) {
          return;
        }
        scratch.dedup.cluster_stamp[cluster] = scratch.dedup.epoch;
        scratch.shortlist.push_back(cluster);
      });
  *shortlisted += scratch.shortlist.size();
  if (scratch.shortlist.empty()) {
    return BestClusterExhaustive<Traits>(shape.queries, model.centroids(),
                                         model.options(), item, 0,
                                         scratch.distances);
  }
  std::sort(scratch.shortlist.begin(), scratch.shortlist.end());
  uint32_t best_cluster = scratch.shortlist.front();
  auto best_distance = Traits::template ComputeDistance<false>(
      shape.queries, model.centroids(), model.options(), item, best_cluster,
      Traits::kInfiniteDistance);
  for (size_t i = 1; i < scratch.shortlist.size(); ++i) {
    const uint32_t cluster = scratch.shortlist[i];
    const auto distance = Traits::template ComputeDistance<true>(
        shape.queries, model.centroids(), model.options(), item, cluster,
        best_distance);
    if (distance < best_distance) {
      best_distance = distance;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

/// One routed-query record at the active tier: ns per query of RouteInto
/// and of the item-walk route, kReps batches of all queries each (the two
/// alternate batch by batch), whether both routed every query alike, and
/// the model's shape: mean bucket, cluster-list entries, mean shortlist.
template <typename Traits, typename Family>
void AddRoutedQueryRecord(bench::JsonBenchWriter& writer,
                          const char* shape_name,
                          const RoutedShape<Traits, Family>& shape) {
  const auto& model = shape.impl();
  const uint32_t queries = shape.queries.num_items();
  std::vector<uint32_t> routed(queries);
  std::vector<uint32_t> walked(queries);
  auto route_scratch = shape.model->MakeScratch();
  serving::RoutedScratch walk_scratch = model.NewRoutedScratch();
  uint64_t shortlisted = 0;
  const auto route_op = [&] {
    LSHC_CHECK(
        shape.model->RouteInto(shape.queries, *route_scratch, routed).ok());
  };
  const auto walk_op = [&] {
    for (uint32_t item = 0; item < queries; ++item) {
      walked[item] = ItemWalkRoute(shape, item, walk_scratch, &shortlisted);
    }
  };
  const uint64_t route_batch = CalibratedBatch(route_op);
  const uint64_t walk_batch = CalibratedBatch(walk_op);
  std::vector<double> route_ns, walk_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    route_ns.push_back(BatchNsPerOp(route_op, route_batch) / queries);
    walk_ns.push_back(BatchNsPerOp(walk_op, walk_batch) / queries);
  }
  shortlisted = 0;
  walk_op();
  route_op();
  const Quartiles route = QuartilesOf(std::move(route_ns));
  const Quartiles walk = QuartilesOf(std::move(walk_ns));
  const BandedIndex& index = *model.index();
  writer.BeginRecord();
  writer.Add("record", "routed_query");
  writer.Add("shape", shape_name);
  writer.Add("clusters", model.num_clusters());
  writer.Add("fitted_items", index.num_items());
  writer.Add("bands", index.num_bands());
  writer.Add("mean_bucket", static_cast<double>(index.num_items()) *
                                index.num_bands() /
                                static_cast<double>(index.num_buckets()));
  writer.Add("cluster_list_entries", shape.model->cluster_list_entries());
  writer.Add("mean_shortlist",
             static_cast<double>(shortlisted) / static_cast<double>(queries));
  writer.Add("queries", queries);
  writer.Add("reps", static_cast<uint32_t>(kReps));
  AddQuartiles(writer, "item_walk_ns_per_query", walk);
  AddQuartiles(writer, "route_ns_per_query", route);
  writer.Add("speedup_vs_item_walk", walk.median / route.median);
  writer.Add("identical_routes", routed == walked ? "true" : "false");
}

// One Fit refinement pass at perfbench's fit-numeric shape (10,000 items
// of the 16-d, 200-component Gaussian mixture, k = 200, SimHash at the
// library's default banding), from the state after the initial exhaustive
// pass and its centroid update: every item scored against its shortlist,
// single-threaded, the pass's own per-bucket state built first.
struct ShortlistPassShape {
  NumericDataset dataset;
  CentroidTable centroids{1, 1};
  KMeansOptions options;
  std::vector<uint32_t> assignment;
  std::unique_ptr<ShortlistProvider<SimHashShortlistFamily>> provider;
};

/// Built per record, not kept in a static like the other shapes: a shape
/// left on the heap shifts where the later live-snapshot records' large
/// arrays land, and with it their page-fault cost.
ShortlistPassShape MakeNumericShortlistPassShape() {
  GaussianMixtureOptions data;
  data.num_items = 10000;
  data.dimensions = 16;
  data.num_clusters = 200;
  ShortlistPassShape out;
  out.dataset = GenerateGaussianMixture(data).ValueOrDie();
  out.options.num_clusters = 200;
  out.options.max_iterations = 0;  // the initial pass and update only
  out.options.seed = 1;
  ExhaustiveProvider exhaustive;
  out.assignment =
      RunKMeansEngine(out.dataset, out.options, exhaustive, &out.centroids)
          .ValueOrDie()
          .assignment;
  out.provider = std::make_unique<ShortlistProvider<SimHashShortlistFamily>>(
      SimHashIndexOptions{}, 200);
  LSHC_CHECK(out.provider->Prepare(out.dataset).ok());
  return out;
}

/// The shortlist walk's argmin (the engine's BestClusterShortlist): the
/// seed cluster, then each listed cluster with the early-exit kernel,
/// replacing the best only on a strictly smaller distance.
uint32_t ListedArgmin(const ShortlistPassShape& shape, uint32_t item,
                      uint32_t seed_cluster,
                      const std::vector<uint32_t>& shortlist) {
  using Traits = NumericClusteringTraits;
  uint32_t best_cluster = seed_cluster;
  double best_distance = Traits::ComputeDistance<false>(
      shape.dataset, shape.centroids, shape.options, item, seed_cluster,
      Traits::kInfiniteDistance);
  for (const uint32_t cluster : shortlist) {
    if (cluster == seed_cluster) continue;
    const double distance = Traits::ComputeDistance<true>(
        shape.dataset, shape.centroids, shape.options, item, cluster,
        best_distance);
    if (distance < best_distance) {
      best_distance = distance;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

/// One shortlist_pass record at the active tier: ns per pass of the mask
/// path (cluster bitmasks per bucket, one masked all-clusters scan per
/// item, the listed walk for an item the set cannot settle) and of the
/// list walk it replaces at this shape (buckets compacted to cluster
/// lists, each item's shortlist collected from them and scored pair by
/// pair), kReps batches each, alternating; whether both assigned every
/// item alike; and the pass's mean shortlist and walked items.
void AddShortlistPassRecord(bench::JsonBenchWriter& writer) {
  const ShortlistPassShape shape = MakeNumericShortlistPassShape();
  using Traits = NumericClusteringTraits;
  ShortlistProvider<SimHashShortlistFamily>& provider = *shape.provider;
  const BandedIndex& index = *provider.index();
  const uint32_t n = shape.dataset.num_items();
  const uint32_t k = shape.options.num_clusters;
  const std::span<const uint32_t> reference = shape.assignment;
  std::vector<uint32_t> masked(n), listed(n);
  std::vector<uint64_t> mask((k + 63) / 64);
  std::vector<uint32_t> shortlist;
  DistanceScratch distances;
  ClusterDedupScratch scratch = provider.MakeScratch();
  BucketClusterTable table;
  uint64_t shortlisted = 0;
  uint64_t walked = 0;

  const auto mask_op = [&] {
    provider.BeginPass(reference, nullptr);
    for (uint32_t item = 0; item < n; ++item) {
      const uint32_t seed_cluster = reference[item];
      LSHC_CHECK(provider.CandidateMask(item, reference, mask));
      uint64_t size = 0;
      for (const uint64_t word : mask) size += std::popcount(word);
      shortlisted += size;
      uint32_t best = seed_cluster;
      if (!MaskedArgminFromSeed(
              Traits::ScanDistances(shape.dataset, shape.centroids,
                                    shape.options, item, distances),
              std::span<const uint64_t>(mask), seed_cluster, &best)) {
        provider.GetCandidates(item, reference, scratch, &shortlist);
        best = ListedArgmin(shape, item, seed_cluster, shortlist);
        ++walked;
      }
      masked[item] = best;
    }
    provider.EndPass();
  };
  const auto list_op = [&] {
    index.CompactClusters(reference, k, &table, nullptr);
    for (uint32_t item = 0; item < n; ++item) {
      CollectDistinctClusters(reference[item], scratch, &shortlist,
                              [&](auto&& sink) {
                                index.VisitCandidateClusters(item, table,
                                                             sink);
                              });
      listed[item] = ListedArgmin(shape, item, reference[item], shortlist);
    }
  };
  const uint64_t mask_batch = CalibratedBatch(mask_op);
  const uint64_t list_batch = CalibratedBatch(list_op);
  std::vector<double> mask_ns, list_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    mask_ns.push_back(BatchNsPerOp(mask_op, mask_batch));
    list_ns.push_back(BatchNsPerOp(list_op, list_batch));
  }
  shortlisted = 0;
  walked = 0;
  mask_op();
  list_op();
  const Quartiles mask_pass = QuartilesOf(std::move(mask_ns));
  const Quartiles list_pass = QuartilesOf(std::move(list_ns));
  writer.BeginRecord();
  writer.Add("record", "shortlist_pass");
  writer.Add("shape", "fit-numeric");
  writer.Add("clusters", k);
  writer.Add("items", n);
  writer.Add("bands", index.num_bands());
  writer.Add("buckets", index.num_buckets());
  writer.Add("masks_fit", index.ClusterMasksFit(k) ? "true" : "false");
  writer.Add("mean_shortlist",
             static_cast<double>(shortlisted) / static_cast<double>(n));
  writer.Add("walked_items", walked);
  writer.Add("reps", static_cast<uint32_t>(kReps));
  AddQuartiles(writer, "list_walk_ms_per_pass", InMs(list_pass));
  AddQuartiles(writer, "mask_ms_per_pass", InMs(mask_pass));
  writer.Add("speedup_vs_list_walk", list_pass.median / mask_pass.median);
  writer.Add("identical_assignments", masked == listed ? "true" : "false");
}

// The live index at perfbench's serve-live shape: conjunctive-rule data
// with 10 attributes, domain 4,000 and 200 rules, a MinHash session at the
// library's default banding bootstrapped on kLiveWarmUp rows with k = 200,
// then grown by 256-row IngestBatch calls to each of kLiveItems.
constexpr uint32_t kLiveWarmUp = 45000;
constexpr uint32_t kLiveItems[] = {45000, 100000, 160000};
constexpr uint32_t kLiveIngestRows = 256;

/// One live_snapshot record per size in kLiveItems: the median and
/// quartiles of kReps calibrated batches of the freeze
/// (BandedIndex(const DynamicBandedIndex&)) and of the whole
/// StreamingSession::Snapshot(), and whether both the freeze and the
/// snapshot's index dump exactly what BandedIndex builds from the same
/// signatures. The session's live index is not reachable through the
/// facade, so the freeze runs on a replica fed the same signatures in the
/// same way (one InsertBatch of the warm-up, then one insert per row),
/// and the snapshot's index check ties the replica to the session.
void AddLiveSnapshotRecords(bench::JsonBenchWriter& writer) {
  const uint32_t total = kLiveItems[std::size(kLiveItems) - 1];
  const CategoricalDataset all = BenchDataset(total, 10, 200, 4000);
  const CategoricalDataset warmup = Rows(all, 0, kLiveWarmUp);
  const ClustererSpec spec =
      RoutedSpec(Modality::kCategorical, Accelerator::kMinHash, 200, 5);
  auto clusterer = Clusterer::Create(spec).ValueOrDie();
  StreamingSession session =
      clusterer.MakeStreamingSession(warmup).ValueOrDie();

  // Every row's signature, signed as the session signs it: the warm-up
  // by the batch provider's family, later rows over their codes that the
  // warm-up does not mark absent.
  const MinHashShortlistFamily family(spec.minhash);
  const uint32_t width = family.signature_width();
  SignatureMatrix signatures;
  LSHC_CHECK(family.ComputeSignatures(warmup, &signatures).ok());
  signatures.resize(size_t{total} * width);
  const uint32_t m = all.num_attributes();
  std::vector<uint32_t> tokens;
  for (uint32_t item = kLiveWarmUp; item < total; ++item) {
    tokens.clear();
    for (uint32_t a = 0; a < m; ++a) {
      const uint32_t code = all.codes()[size_t{item} * m + a];
      if (warmup.has_absence_semantics() && code < warmup.num_codes() &&
          !warmup.IsPresent(code)) {
        continue;
      }
      tokens.push_back(code);
    }
    family.ComputeQuerySignature(tokens,
                                 signatures.data() + size_t{item} * width);
  }
  DynamicBandedIndex live(spec.minhash.banding, kLiveWarmUp);
  live.InsertBatch({signatures.data(), size_t{kLiveWarmUp} * width},
                   kLiveWarmUp);

  using SnapshotModel =
      serving::internal::FrozenModelImpl<CategoricalClusteringTraits,
                                         MinHashShortlistFamily>;
  uint32_t items = kLiveWarmUp;
  for (const uint32_t target : kLiveItems) {
    for (; items < target; items += kLiveIngestRows) {
      const uint32_t rows = std::min(kLiveIngestRows, target - items);
      LSHC_CHECK(session
                     .IngestBatch({all.codes().data() + size_t{items} * m,
                                   size_t{rows} * m})
                     .ok());
      for (uint32_t row = items; row < items + rows; ++row) {
        live.Insert({signatures.data() + size_t{row} * width, width});
      }
    }
    items = target;
    // Each freeze and snapshot is made while the previous one is still
    // held and dropped after, as a ModelServer holds its last published
    // model while the next is built.
    std::unique_ptr<BandedIndex> frozen;
    const Quartiles freeze =
        TimeNsPerOp([&] { frozen = std::make_unique<BandedIndex>(live); });
    std::shared_ptr<const serving::FrozenModel> model;
    const Quartiles snapshot =
        TimeNsPerOp([&] { model = session.Snapshot().ValueOrDie(); });
    const BandedIndex built({signatures.data(), size_t{target} * width},
                            target, spec.minhash.banding);
    const BandedIndex::Raw want = built.ToRaw();
    const bool identical =
        frozen->ToRaw() == want &&
        dynamic_cast<const SnapshotModel&>(*model).index()->ToRaw() == want;
    writer.BeginRecord();
    writer.Add("record", "live_snapshot");
    writer.Add("shape", "serve-live");
    writer.Add("clusters", session.num_clusters());
    writer.Add("attributes", session.num_attributes());
    writer.Add("bands", spec.minhash.banding.bands);
    writer.Add("rows", spec.minhash.banding.rows);
    writer.Add("live_items", target);
    writer.Add("buckets", built.num_buckets());
    writer.Add("live_index_bytes", live.MemoryUsageBytes());
    writer.Add("reps", static_cast<uint32_t>(kReps));
    AddQuartiles(writer, "freeze_ms", InMs(freeze));
    AddQuartiles(writer, "snapshot_ms", InMs(snapshot));
    writer.Add("identical_to_build", identical ? "true" : "false");
  }
}

/// `git describe --always --dirty` of the working directory, or "unknown"
/// outside a git checkout. "-dirty" marks uncommitted changes: a record
/// regenerated in the change that commits it names that change's parent.
std::string SourceCommit() {
  std::string commit;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
      commit += buffer;
    }
    pclose(pipe);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

/// The --json mode: a provenance record, then kernel timings, the
/// exhaustive argmin, routed-query and shortlist-pass records at every
/// supported dispatch tier, then the live-snapshot records.
bool WriteJsonRecords(const std::string& path) {
  bench::JsonBenchWriter writer;

  // --- provenance of the whole file (the tier fields name the detected
  // tier).
  writer.BeginRecord();
  writer.Add("record", "provenance");
  writer.Add("commit", SourceCommit());
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  writer.Add("build_type", "Release");
#else
  writer.Add("build_type", "Debug");
#endif
  writer.Add("compiler", __VERSION__);
  writer.Add("cores", std::thread::hardware_concurrency());

  // --- kernels x tiers. Scalar runs first so the vector-tier records can
  // carry their speedup inline.
  const simd::SimdTier detected = simd::ActiveTier();
  double scalar_ns[16] = {};
  for (const simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::SimdTier::kSse42,
        simd::SimdTier::kAvx2, simd::SimdTier::kAvx512}) {
    if (!simd::ForceSimdTier(tier)) continue;
    const std::vector<KernelTiming> timings = TimeKernelsAtActiveTier();
    for (size_t i = 0; i < timings.size(); ++i) {
      writer.BeginRecord();
      writer.Add("record", "kernel");
      writer.Add("kernel", timings[i].kernel);
      writer.Add("reps", static_cast<uint32_t>(kReps));
      AddQuartiles(writer, "ns_per_op", timings[i].ns);
      if (tier == simd::SimdTier::kScalar) {
        scalar_ns[i] = timings[i].ns.median;
      } else {
        writer.Add("speedup_vs_scalar", scalar_ns[i] / timings[i].ns.median);
      }
    }
    AddExhaustiveScanRecord(writer, "fit-categorical",
                            CategoricalScanShape());
    AddExhaustiveScanRecord(writer, "fit-numeric", NumericScanShape());
    AddRoutedQueryRecord(writer, "fit-categorical", CategoricalRoutedShape());
    AddRoutedQueryRecord(writer, "fit-numeric", NumericRoutedShape());
    AddShortlistPassRecord(writer);
  }
  simd::ForceSimdTier(detected);
  AddLiveSnapshotRecords(writer);

  return writer.WriteFile(path);
}

}  // namespace

int main(int argc, char** argv) {
  // --json=<path> switches to the machine-readable record mode; every
  // other argument passes through to google-benchmark untouched.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return WriteJsonRecords(json_path) ? 0 : 1;
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
