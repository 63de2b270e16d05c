// Parity tests for the unified clustering engine: the single
// ClusteringEngine body must reproduce the per-algorithm engines it
// replaced bit-for-bit, and the batch-parallel assignment step must be
// invisible — num_threads=1 and num_threads=4 produce identical
// assignments, move counts and costs for every family, exhaustive and
// LSH-accelerated alike.
//
// The golden values below were captured from the pre-unification
// per-algorithm implementations (clustering/engine.h K-Modes,
// clustering/kmeans.h Lloyd, clustering/kprototypes.h) on these exact
// fixtures and seeds. Drift in seeding, distance kernels, update rules
// or iteration structure shows up here. One *deliberate* semantic change
// is invisible on these fixtures: shortlist queries now dereference a
// per-pass snapshot of the assignment instead of the live array (the
// price of thread-count-invariant determinism), which can alter LSH-run
// results on datasets where mid-pass moves would have changed later
// items' shortlists. The exhaustive goldens are exact regardless; the
// LSH goldens double as evidence the fixtures are insensitive to it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "clustering/kmodes.h"
#include "clustering/kprototypes.h"
#include "core/lsh_kmeans.h"
#include "core/lsh_kprototypes.h"
#include "core/mh_kmodes.h"
#include "core/mixed_shortlist_index.h"
#include "core/simhash_shortlist_index.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"

namespace lshclust {
namespace {

// FNV-1a over the assignment vector: a compact bit-for-bit fingerprint.
uint64_t AssignmentFingerprint(const std::vector<uint32_t>& assignment) {
  uint64_t hash = 1469598103934665603ULL;
  for (const uint32_t cluster : assignment) {
    hash ^= cluster;
    hash *= 1099511628211ULL;
  }
  return hash;
}

CategoricalDataset CategoricalFixture() {
  ConjunctiveDataOptions options;
  options.num_items = 300;
  options.num_attributes = 12;
  options.num_clusters = 8;
  options.domain_size = 40;
  options.seed = 17;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

NumericDataset NumericFixture() {
  GaussianMixtureOptions options;
  options.num_items = 240;
  options.dimensions = 6;
  options.num_clusters = 6;
  options.stddev = 0.4;
  options.seed = 31;
  return GenerateGaussianMixture(options).ValueOrDie();
}

MixedDataset MixedFixture() {
  MixedDataOptions options;
  options.categorical.num_items = 200;
  options.categorical.num_attributes = 8;
  options.categorical.num_clusters = 5;
  options.categorical.domain_size = 25;
  options.categorical.seed = 41;
  options.numeric_dimensions = 4;
  options.stddev = 0.5;
  return GenerateMixedData(options).ValueOrDie();
}

void ExpectIdenticalRuns(const ClusteringResult& a, const ClusteringResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.converged, b.converged);
  // Costs must agree to the bit, not within a tolerance: both runs are
  // required to execute the same floating-point operations in the same
  // order.
  EXPECT_EQ(a.final_cost, b.final_cost);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].moves, b.iterations[i].moves);
    EXPECT_EQ(a.iterations[i].cost, b.iterations[i].cost);
    EXPECT_EQ(a.iterations[i].mean_shortlist, b.iterations[i].mean_shortlist);
  }
}

// ------------------------------------------ golden (pre-refactor) parity --

TEST(EngineGoldenParityTest, KModesReproducesPreUnificationResults) {
  const auto dataset = CategoricalFixture();
  EngineOptions options;
  options.num_clusters = 8;
  options.seed = 21;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 1711.0);
  EXPECT_EQ(result.TotalMoves(), 35u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x3423685dafce5648ULL);
}

TEST(EngineGoldenParityTest, MHKModesReproducesPreUnificationResults) {
  const auto dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine.num_clusters = 8;
  options.engine.seed = 21;
  options.index.banding = {8, 2};
  options.index.seed = 77;
  const auto run = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(run.result.iterations.size(), 2u);
  EXPECT_TRUE(run.result.converged);
  EXPECT_EQ(run.result.final_cost, 1711.0);
  EXPECT_EQ(run.result.TotalMoves(), 35u);
  EXPECT_EQ(AssignmentFingerprint(run.result.assignment),
            0x3423685dafce5648ULL);
}

TEST(EngineGoldenParityTest, KMeansReproducesPreUnificationResults) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;
  const auto result = RunKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 5u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 3444.6286874818047);
  EXPECT_EQ(result.TotalMoves(), 14u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x89731a86c434c228ULL);
}

TEST(EngineGoldenParityTest, LshKMeansReproducesPreUnificationResults) {
  const auto dataset = NumericFixture();
  LshKMeansOptions options;
  options.kmeans.num_clusters = 6;
  options.kmeans.seed = 33;
  options.banding = {12, 3};
  options.seed = 55;
  const auto result = RunLshKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 5u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 3444.6286874818047);
  EXPECT_EQ(result.TotalMoves(), 14u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x89731a86c434c228ULL);
}

TEST(EngineGoldenParityTest, KPrototypesReproducesPreUnificationResults) {
  const auto dataset = MixedFixture();
  KPrototypesOptions options;
  options.num_clusters = 5;
  options.seed = 43;
  options.gamma = 0.8;
  const auto result = RunKPrototypes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 1898.1575139585696);
  EXPECT_EQ(result.TotalMoves(), 4u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x5718db93db6e1fd5ULL);
}

TEST(EngineGoldenParityTest, LshKPrototypesReproducesPreUnificationResults) {
  const auto dataset = MixedFixture();
  LshKPrototypesOptions options;
  options.kprototypes.num_clusters = 5;
  options.kprototypes.seed = 43;
  options.kprototypes.gamma = 0.8;
  options.categorical_banding = {10, 2};
  options.numeric_banding = {6, 8};
  options.seed = 91;
  const auto result = RunLshKPrototypes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.iterations.size(), 2u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 1898.1575139585696);
  EXPECT_EQ(result.TotalMoves(), 4u);
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x5718db93db6e1fd5ULL);
}

// -------------------------------------------------- thread-count parity --

TEST(EngineThreadParityTest, KModesExhaustiveAndShortlist) {
  const auto dataset = CategoricalFixture();
  EngineOptions options;
  options.num_clusters = 8;
  options.seed = 21;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKModes(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);

  MHKModesOptions mh;
  mh.engine = options;
  mh.index.banding = {8, 2};
  mh.index.seed = 77;
  mh.engine.num_threads = 1;
  const auto shortlist_1t = RunMHKModes(dataset, mh).ValueOrDie();
  mh.engine.num_threads = 4;
  const auto shortlist_4t = RunMHKModes(dataset, mh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t.result, shortlist_4t.result);
}

TEST(EngineThreadParityTest, KMeansExhaustiveAndShortlist) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKMeans(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKMeans(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);

  LshKMeansOptions lsh;
  lsh.kmeans = options;
  lsh.banding = {12, 3};
  lsh.seed = 55;
  lsh.kmeans.num_threads = 1;
  const auto shortlist_1t = RunLshKMeans(dataset, lsh).ValueOrDie();
  lsh.kmeans.num_threads = 4;
  const auto shortlist_4t = RunLshKMeans(dataset, lsh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t, shortlist_4t);
}

TEST(EngineThreadParityTest, KPrototypesExhaustiveAndShortlist) {
  const auto dataset = MixedFixture();
  KPrototypesOptions options;
  options.num_clusters = 5;
  options.seed = 43;
  options.gamma = 0.8;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKPrototypes(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKPrototypes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);

  LshKPrototypesOptions lsh;
  lsh.kprototypes = options;
  lsh.categorical_banding = {10, 2};
  lsh.numeric_banding = {6, 8};
  lsh.seed = 91;
  lsh.kprototypes.num_threads = 1;
  const auto shortlist_1t = RunLshKPrototypes(dataset, lsh).ValueOrDie();
  lsh.kprototypes.num_threads = 4;
  const auto shortlist_4t = RunLshKPrototypes(dataset, lsh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t, shortlist_4t);
}

// Larger-than-fixture K-Modes run where assignment passes actually split
// into several chunks per worker, with a banding loose enough that
// shortlists stay large and iterations keep moving items — a harder
// determinism target than the tidy fixtures above.
TEST(EngineThreadParityTest, ManyChunksManyMoves) {
  ConjunctiveDataOptions data;
  data.num_items = 5000;
  data.num_attributes = 10;
  data.num_clusters = 40;
  data.domain_size = 25;  // noisy: plenty of moves per iteration
  data.seed = 71;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  MHKModesOptions options;
  options.engine.num_clusters = 40;
  options.engine.seed = 73;
  options.index.banding = {6, 1};  // aggressive recall -> big shortlists
  options.index.seed = 75;

  options.engine.num_threads = 1;
  const auto run_1t = RunMHKModes(dataset, options).ValueOrDie();
  options.engine.num_threads = 4;
  const auto run_4t = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(run_1t.result, run_4t.result);
  EXPECT_GT(run_1t.result.TotalMoves(), 0u);
}

// Numeric twin of ManyChunksManyMoves: floating-point distances across
// several chunks per pass, exhaustive and SimHash-shortlist.
TEST(EngineThreadParityTest, ManyChunksNumeric) {
  GaussianMixtureOptions data;
  data.num_items = 4000;
  data.dimensions = 8;
  data.num_clusters = 25;
  data.stddev = 3.0;  // heavy overlap: moves keep happening
  data.seed = 81;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  KMeansOptions options;
  options.num_clusters = 25;
  options.seed = 83;
  options.max_iterations = 15;

  options.num_threads = 1;
  const auto exhaustive_1t = RunKMeans(dataset, options).ValueOrDie();
  options.num_threads = 4;
  const auto exhaustive_4t = RunKMeans(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(exhaustive_1t, exhaustive_4t);
  EXPECT_GT(exhaustive_1t.TotalMoves(), 0u);

  LshKMeansOptions lsh;
  lsh.kmeans = options;
  lsh.banding = {16, 2};
  lsh.seed = 85;
  lsh.kmeans.num_threads = 1;
  const auto shortlist_1t = RunLshKMeans(dataset, lsh).ValueOrDie();
  lsh.kmeans.num_threads = 4;
  const auto shortlist_4t = RunLshKMeans(dataset, lsh).ValueOrDie();
  ExpectIdenticalRuns(shortlist_1t, shortlist_4t);
}

// --------------------------------------------------------- shard parity --
//
// The two-level (shard -> chunk) decomposition must be invisible in the
// results: every (num_shards x num_threads) combination produces the
// bit-identical run, for exhaustive and shortlist providers alike, and
// S=1 is the historical flat decomposition (the golden tests above pin
// that).

TEST(EngineShardParityTest, ShardSweepMatchesUnshardedAtEveryThreadCount) {
  ConjunctiveDataOptions data;
  data.num_items = 2500;
  data.num_attributes = 10;
  data.num_clusters = 20;
  data.domain_size = 25;  // noisy: plenty of moves per iteration
  data.seed = 91;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  MHKModesOptions options;
  options.engine.num_clusters = 20;
  options.engine.seed = 93;
  options.engine.chunk_size = 256;  // several chunks per shard
  options.index.banding = {6, 1};   // aggressive recall -> big shortlists
  options.index.seed = 95;

  options.engine.num_shards = 1;
  options.engine.num_threads = 1;
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_GT(baseline.result.TotalMoves(), 0u);

  for (const uint32_t shards : {1u, 2u, 3u, 8u}) {
    for (const uint32_t threads : {1u, 2u, 4u}) {
      options.engine.num_shards = shards;
      options.engine.num_threads = threads;
      const auto run = RunMHKModes(dataset, options).ValueOrDie();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectIdenticalRuns(baseline.result, run.result);
    }
  }
}

TEST(EngineShardParityTest, ExhaustiveNumericShardSweep) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;
  const auto baseline = RunKMeans(dataset, options).ValueOrDie();

  for (const uint32_t shards : {2u, 3u, 8u}) {
    for (const uint32_t threads : {1u, 2u, 4u}) {
      options.num_shards = shards;
      options.num_threads = threads;
      options.chunk_size = 50;
      const auto run = RunKMeans(dataset, options).ValueOrDie();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectIdenticalRuns(baseline, run);
    }
  }
}

TEST(EngineShardParityTest, ChunkSizeIsInvisible) {
  // The runtime chunk_size knob (the NUMA/tuning study's subject) must
  // never change results — including chunks of one item and chunks far
  // bigger than the dataset.
  const auto dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine.num_clusters = 8;
  options.engine.seed = 21;
  options.index.banding = {8, 2};
  options.index.seed = 77;
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();

  // ~0u is the overflow regression: a near-2^32 chunk size once wrapped
  // the per-shard chunk count to zero, silently skipping every item.
  for (const uint32_t chunk_size : {1u, 7u, 100u, 4096u, 1000000u, ~0u}) {
    for (const uint32_t threads : {1u, 2u}) {
      options.engine.chunk_size = chunk_size;
      options.engine.num_threads = threads;
      options.engine.num_shards = 2;
      const auto run = RunMHKModes(dataset, options).ValueOrDie();
      SCOPED_TRACE("chunk_size=" + std::to_string(chunk_size) +
                   " threads=" + std::to_string(threads));
      ExpectIdenticalRuns(baseline.result, run.result);
    }
  }
}

TEST(EngineShardParityTest, MoreShardsThanItems) {
  // Shard counts beyond the flat chunk count are clamped (a shard
  // smaller than one chunk cannot split further); the run must still be
  // bit-identical to the unsharded one. Genuinely empty shards are
  // covered at the plan level in tests/shard_test.cpp.
  ConjunctiveDataOptions data;
  data.num_items = 5;
  data.num_attributes = 6;
  data.num_clusters = 3;
  data.domain_size = 12;
  data.seed = 101;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  MHKModesOptions options;
  options.engine.num_clusters = 3;
  options.engine.seed = 103;
  options.index.banding = {4, 2};
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();

  options.engine.num_shards = 8;  // > n = 5
  options.engine.num_threads = 4;
  const auto sharded = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(baseline.result, sharded.result);

  // Degenerate-but-legal extreme: 2^32-1 shards must neither overflow
  // the plan (regression: num_shards + 1 wrapped to 0 and wrote out of
  // bounds) nor allocate per-shard state beyond n shards.
  options.engine.num_shards = ~0u;
  const auto extreme = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(baseline.result, extreme.result);
}

TEST(EngineShardParityTest, SingleClusterDegenerates) {
  // k=1: every shortlist is {0}, every item stays put after the first
  // pass, and the sharded run must agree with the flat one.
  const auto dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine.num_clusters = 1;
  options.engine.seed = 7;
  options.index.banding = {4, 2};
  const auto baseline = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(baseline.result.converged);

  options.engine.num_shards = 3;
  options.engine.num_threads = 2;
  options.engine.chunk_size = 64;
  const auto sharded = RunMHKModes(dataset, options).ValueOrDie();
  ExpectIdenticalRuns(baseline.result, sharded.result);
  for (const uint32_t cluster : sharded.result.assignment) {
    EXPECT_EQ(cluster, 0u);
  }
}

TEST(EngineShardParityTest, RejectsZeroShardsAndZeroChunkSize) {
  const auto dataset = CategoricalFixture();
  EngineOptions options;
  options.num_clusters = 8;
  options.num_shards = 0;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.num_shards = 1;
  options.chunk_size = 0;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
}

// ---------------------------------------------------- mask-path oracle --
//
// Where buckets are few and wide, ShortlistProvider answers the engine's
// mask hook, and the engine scores an item from one all-clusters scan
// masked to its shortlist instead of walking the listed shortlist. The
// oracle is the same provider with the hook hidden: the engine then walks
// every listed shortlist, the path whose first-occurrence tie-breaking
// defines the answer. Both must report the same Fit in every detail.

// Forwards a ShortlistProvider, with the mask hook (kShowMask) or without
// it, and counts which way the engine took each refinement query.
template <typename Family, bool kShowMask>
class MaskProbe {
 public:
  using Inner = ShortlistProvider<Family>;
  using Scratch = typename Inner::Scratch;
  static constexpr bool kExhaustive = false;

  MaskProbe(const typename Family::Options& options, uint32_t k)
      : inner_(options, k) {}

  Scratch MakeScratch() const { return inner_.MakeScratch(); }
  Status Prepare(const typename Family::Dataset& dataset, ThreadPool* pool,
                 const std::function<bool()>* cancel) {
    return inner_.Prepare(dataset, pool, cancel);
  }
  void BeginPass(std::span<const uint32_t> reference, ThreadPool* pool) {
    inner_.BeginPass(reference, pool);
  }
  void EndPass() { inner_.EndPass(); }
  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     Scratch& scratch, std::vector<uint32_t>* out) const {
    ++walks_;
    inner_.GetCandidates(item, assignment, scratch, out);
  }
  bool CandidateMask(uint32_t item, std::span<const uint32_t> assignment,
                     std::span<uint64_t> mask) const
    requires kShowMask
  {
    if (!inner_.CandidateMask(item, assignment, mask)) return false;
    ++answers_;
    return true;
  }

  // Queries that walked a listed shortlist.
  uint64_t walks() const { return walks_; }
  // Queries the mask hook answered.
  uint64_t answers() const { return answers_; }

 private:
  Inner inner_;
  mutable std::atomic<uint64_t> walks_{0};
  mutable std::atomic<uint64_t> answers_{0};
};

// How the masked runs scored their items (the same for every run).
struct MaskPaths {
  uint64_t answers = 0;  // items the mask hook answered
  uint64_t ties = 0;     // ... of which walked: several nearest clusters
};

// Fits `dataset` with and without the mask hook at threads {1, 4} x
// shards {1, 3}; every run must equal the first hook-less one.
template <typename Traits, typename Family>
MaskPaths ExpectMaskPathMatchesWalk(
    const typename Traits::Dataset& dataset, typename Traits::Options options,
    const typename Family::Options& index_options) {
  const uint32_t k = options.num_clusters;
  options.chunk_size = 64;  // enough chunks for three shards
  std::optional<ClusteringResult> reference;
  std::optional<MaskPaths> paths;
  for (const uint32_t threads : {1u, 4u}) {
    for (const uint32_t shards : {1u, 3u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      options.num_threads = threads;
      options.num_shards = shards;
      MaskProbe<Family, false> walked(index_options, k);
      MaskProbe<Family, true> masked(index_options, k);
      const auto walk_run =
          ClusteringEngine<Traits, MaskProbe<Family, false>>::Run(
              dataset, options, walked);
      const auto mask_run =
          ClusteringEngine<Traits, MaskProbe<Family, true>>::Run(
              dataset, options, masked);
      EXPECT_TRUE(walk_run.ok() && mask_run.ok());
      if (!walk_run.ok() || !mask_run.ok()) return {};
      if (!reference.has_value()) reference = *walk_run;
      ExpectIdenticalRuns(*reference, *walk_run);
      ExpectIdenticalRuns(*reference, *mask_run);
      EXPECT_EQ(mask_run->exact_distances_evaluated,
                reference->exact_distances_evaluated);
      EXPECT_EQ(walk_run->exact_distances_evaluated,
                reference->exact_distances_evaluated);

      // The hook answers for every refinement query or for none; each
      // answered item then either settled from its scan or, on a tie,
      // walked once.
      const uint64_t queries =
          uint64_t{dataset.num_items()} * mask_run->iterations.size();
      const bool answered = masked.answers() != 0;
      EXPECT_EQ(masked.answers(), answered ? queries : 0u);
      if (!answered) {
        EXPECT_EQ(masked.walks(), queries);
      }
      const MaskPaths run{masked.answers(), answered ? masked.walks() : 0};
      if (!paths.has_value()) paths = run;
      EXPECT_EQ(run.answers, paths->answers);
      EXPECT_EQ(run.ties, paths->ties);
    }
  }
  return *paths;
}

// 2-d points of a small integer layout, shifted to (50, 50) so that every
// point lies within a few degrees of the others: SimHash buckets then hold
// nearly everything. Written B first so that a listed shortlist meets B's
// cluster before A's.
//   B = (2, 0) and A = (-2, 0), `copies` rows each: clusters 1 and 0;
//   C = (0, 1), one row: cluster 2, whose seed pulls in
//   F = (0, 9) and Y = (0, 0), `copies` rows each.
// After the first update C's centroid sits near (0, 4.4), so Y and C are
// nearer A and B, at exactly the same distance from both: a tie below the
// current cluster's distance, which the listed walk breaks towards B.
struct TieLayout {
  NumericDataset numeric;
  std::vector<uint32_t> seeds;  // rows of A, B, C
};

TieLayout MakeTieLayout(uint32_t copies) {
  std::vector<double> values;
  const auto add = [&](double x, double y, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      values.push_back(50 + x);
      values.push_back(50 + y);
    }
  };
  add(2, 0, copies);   // B: rows [0, copies)
  add(-2, 0, copies);  // A: rows [copies, 2 copies)
  add(0, 1, 1);        // C: row 2 copies
  add(0, 9, copies);
  add(0, 0, copies);
  const uint32_t n = static_cast<uint32_t>(values.size() / 2);
  return {NumericDataset::FromValues(n, 2, std::move(values)).ValueOrDie(),
          {copies, 0, 2 * copies}};
}

TEST(EngineMaskPathTest, SimHashDenseBucketsMatchTheListedWalk) {
  GaussianMixtureOptions data;
  data.num_items = 2000;
  data.dimensions = 8;
  data.num_clusters = 40;
  data.seed = 61;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();
  KMeansOptions options;
  options.num_clusters = 80;  // two mask words
  options.max_iterations = 6;
  options.seed = 63;
  SimHashIndexOptions index;
  index.banding = {6, 5};
  index.seed = 65;
  ShortlistProvider<SimHashShortlistFamily> probe(index, 80);
  ASSERT_TRUE(probe.Prepare(dataset).ok());
  ASSERT_TRUE(probe.index()->ClusterMasksFit(80));

  const MaskPaths paths =
      ExpectMaskPathMatchesWalk<NumericClusteringTraits,
                                SimHashShortlistFamily>(dataset, options,
                                                        index);
  EXPECT_GT(paths.answers, paths.ties) << "no item was scored from a scan";
}

TEST(EngineMaskPathTest, MixedDenseBucketsMatchTheListedWalk) {
  MixedDataOptions data;
  data.categorical.num_items = 1500;
  data.categorical.num_attributes = 6;
  data.categorical.num_clusters = 12;
  data.categorical.domain_size = 10;
  data.categorical.seed = 67;
  data.numeric_dimensions = 4;
  data.stddev = 0.6;
  const auto dataset = GenerateMixedData(data).ValueOrDie();
  KPrototypesOptions options;
  options.num_clusters = 30;
  options.max_iterations = 6;
  options.seed = 69;
  options.gamma = 0.5;
  MixedIndexOptions index;
  index.categorical_banding = {3, 3};
  index.numeric_banding = {3, 4};
  index.seed = 71;

  const MaskPaths paths =
      ExpectMaskPathMatchesWalk<MixedClusteringTraits, MixedShortlistFamily>(
          dataset, options, index);
  EXPECT_GT(paths.answers, paths.ties) << "no item was scored from a scan";
}

TEST(EngineMaskPathTest, TiedNearestClustersTakeTheListedWalk) {
  const TieLayout layout = MakeTieLayout(20);
  const uint32_t n = layout.numeric.num_items();

  KMeansOptions numeric;
  numeric.num_clusters = 3;
  numeric.max_iterations = 4;
  numeric.initial_seeds = layout.seeds;
  SimHashIndexOptions simhash;
  simhash.banding = {8, 2};
  const MaskPaths simhash_paths =
      ExpectMaskPathMatchesWalk<NumericClusteringTraits,
                                SimHashShortlistFamily>(layout.numeric,
                                                        numeric, simhash);
  EXPECT_GT(simhash_paths.ties, 0u) << "no tie reached the listed walk";

  // The same points with one shared categorical row: mismatches are all
  // 0, so the mixed distances tie exactly where the numeric ones do.
  const auto categorical =
      CategoricalDataset::FromCodes(n, 3, 3,
                                    std::vector<uint32_t>(n * 3, 1))
          .ValueOrDie();
  const auto mixed =
      MixedDataset::Combine(categorical, layout.numeric).ValueOrDie();
  KPrototypesOptions prototypes;
  prototypes.num_clusters = 3;
  prototypes.max_iterations = 4;
  prototypes.initial_seeds = layout.seeds;
  MixedIndexOptions mixed_index;
  mixed_index.categorical_banding = {4, 2};
  mixed_index.numeric_banding = {4, 2};
  const MaskPaths mixed_paths =
      ExpectMaskPathMatchesWalk<MixedClusteringTraits, MixedShortlistFamily>(
          mixed, prototypes, mixed_index);
  EXPECT_GT(mixed_paths.ties, 0u) << "no tie reached the listed walk";
}

TEST(EngineMaskPathTest, SparseBucketsKeepTheListedWalk) {
  // 16-row bands give each of n items nearly its own bucket: masks would
  // outweigh the lists, so the hook never answers.
  GaussianMixtureOptions data;
  data.num_items = 600;
  data.dimensions = 8;
  data.num_clusters = 12;
  data.center_box = 1.0;  // mostly noise: directions spread evenly
  data.stddev = 4.0;
  data.seed = 73;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();
  KMeansOptions options;
  options.num_clusters = 12;
  options.max_iterations = 4;
  options.seed = 75;
  SimHashIndexOptions index;
  index.banding = {4, 16};
  ShortlistProvider<SimHashShortlistFamily> probe(index, 12);
  ASSERT_TRUE(probe.Prepare(dataset).ok());
  ASSERT_FALSE(probe.index()->ClusterMasksFit(12));

  const MaskPaths paths =
      ExpectMaskPathMatchesWalk<NumericClusteringTraits,
                                SimHashShortlistFamily>(dataset, options,
                                                        index);
  EXPECT_EQ(paths.answers, 0u);
}

// The unified engine must also accept an exhaustive provider through the
// generic entry point with threads (regression for the provider concept
// detection: ExhaustiveProvider has no scratch and must not be asked for
// one).
TEST(EngineThreadParityTest, ExhaustiveProviderHasNoScratchRequirement) {
  const auto dataset = NumericFixture();
  KMeansOptions options;
  options.num_clusters = 6;
  options.seed = 33;
  options.num_threads = 3;
  ExhaustiveProvider provider;
  const auto result =
      RunKMeansEngine(dataset, options, provider).ValueOrDie();
  EXPECT_EQ(AssignmentFingerprint(result.assignment), 0x89731a86c434c228ULL);
}

}  // namespace
}  // namespace lshclust
