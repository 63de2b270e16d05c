// google-benchmark microbenchmarks for the hot kernels: MinHash signature
// generation (Algorithm 1, both derivation modes, plus one-permutation),
// mismatch distance (plain and early-exit), banding index build and query,
// mode recomputation, and the flat hash map.
//
// With --json=<path> the driver instead emits machine-readable records:
// per-kernel timings at every supported SIMD dispatch tier (with
// speedup_vs_scalar on the vector tiers).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <optional>

#include "bench/common.h"
#include "clustering/dissimilarity.h"
#include "clustering/modes.h"
#include "core/cluster_shortlist_index.h"
#include "datagen/conjunctive_generator.h"
#include "hashing/minhash.h"
#include "hashing/one_permutation_minhash.h"
#include "lsh/banded_index.h"
#include "lsh/flat_hash_table.h"
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

/// Best-of-five self-calibrated timing of `op`, in ns per invocation.
template <typename Op>
double TimeNsPerOp(const Op& op) {
  const auto elapsed_ns = [](Clock::time_point start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  uint64_t batch = 1;
  for (;;) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) op();
    if (elapsed_ns(start) >= 2e6) break;  // calibrate to >= 2 ms per rep
    batch *= 4;
  }
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) op();
    best = std::min(best, elapsed_ns(start) / static_cast<double>(batch));
  }
  return best;
}

struct KernelTiming {
  const char* kernel;
  double ns;
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

/// The --json mode: kernel timings at every supported dispatch tier (with
/// speedup_vs_scalar on the vector tiers).
bool WriteJsonRecords(const std::string& path) {
  bench::JsonBenchWriter writer;

  // --- kernels x tiers. Scalar runs first so the vector-tier records can
  // carry their speedup inline.
  const simd::SimdTier detected = simd::ActiveTier();
  double scalar_ns[16] = {};
  for (const simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::SimdTier::kSse42,
        simd::SimdTier::kAvx2}) {
    if (!simd::ForceSimdTier(tier)) continue;
    const std::vector<KernelTiming> timings = TimeKernelsAtActiveTier();
    for (size_t i = 0; i < timings.size(); ++i) {
      writer.BeginRecord();
      writer.Add("record", "kernel");
      writer.Add("kernel", timings[i].kernel);
      writer.Add("ns_per_op", timings[i].ns);
      if (tier == simd::SimdTier::kScalar) {
        scalar_ns[i] = timings[i].ns;
      } else {
        writer.Add("speedup_vs_scalar", scalar_ns[i] / timings[i].ns);
      }
    }
  }
  simd::ForceSimdTier(detected);

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
