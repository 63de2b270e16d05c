// Tests for src/core: the cluster shortlist provider (against a
// brute-force pairwise-collision oracle), MH-K-Modes, the error-bound
// machinery (Tables I/II + Monte Carlo), LSH-K-Means, the experiment
// harness and the reporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "core/cluster_shortlist_index.h"
#include "core/error_bound.h"
#include "core/experiment.h"
#include "core/lsh_kmeans.h"
#include "core/mh_kmodes.h"
#include "core/mixed_shortlist_index.h"
#include "core/reporters.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "metrics/metrics.h"

namespace lshclust {
namespace {

CategoricalDataset MakeData(uint32_t n, uint32_t m, uint32_t k,
                            uint32_t domain, uint64_t seed,
                            double min_rule = 0.4, double max_rule = 0.8) {
  ConjunctiveDataOptions options;
  options.num_items = n;
  options.num_attributes = m;
  options.num_clusters = k;
  options.domain_size = domain;
  options.min_rule_fraction = min_rule;
  options.max_rule_fraction = max_rule;
  options.seed = seed;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

// -------------------------------------------- ClusterShortlistProvider --

TEST(ShortlistProviderTest, ShortlistAlwaysContainsCurrentCluster) {
  const auto dataset = MakeData(300, 16, 20, 500, 3);
  ShortlistIndexOptions options;
  options.banding = {8, 4};
  ClusterShortlistProvider provider(options, 20);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  std::vector<uint32_t> assignment(dataset.num_items());
  Rng rng(5);
  for (auto& cluster : assignment) {
    cluster = static_cast<uint32_t>(rng.Below(20));
  }
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  for (uint32_t item = 0; item < dataset.num_items(); ++item) {
    provider.GetCandidates(item, assignment, scratch, &shortlist);
    ASSERT_FALSE(shortlist.empty());
    EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), assignment[item]),
              shortlist.end())
        << "item " << item;
  }
}

TEST(ShortlistProviderTest, DedupEpochWrapClearsStaleStamps) {
  // A fresh scratch has all stamps at 0. If the epoch counter is about to
  // wrap, the unguarded ++epoch lands on 0 and every cluster reads as
  // "already seen", silently dropping all peers from the shortlist.
  ClusterDedupScratch scratch = MakeClusterDedupScratch(4);
  scratch.epoch = ~0u;  // next bump wraps

  const std::vector<uint32_t> assignment = {0, 1, 2, 3};
  std::vector<uint32_t> shortlist;
  const auto visit_all = [&](auto&& sink) {
    for (uint32_t peer = 0; peer < 4; ++peer) sink(peer);
  };
  CollectCandidateClusters(0, assignment, scratch, &shortlist, visit_all);
  EXPECT_EQ(shortlist, (std::vector<uint32_t>{0, 1, 2, 3}))
      << "wrapping epoch dropped clusters";
  EXPECT_EQ(scratch.epoch, 1u) << "epoch must restart past the reserved 0";

  // Dedup still works in the epoch right after the wrap.
  CollectCandidateClusters(1, assignment, scratch, &shortlist, visit_all);
  EXPECT_EQ(shortlist, (std::vector<uint32_t>{1, 0, 2, 3}));
}

TEST(ShortlistProviderTest, ExternalQueryReusesProviderBuffers) {
  // GetCandidatesForQuery promises no per-query allocation; at minimum,
  // back-to-back external queries must keep working off the provider's
  // own signature buffer and dedup scratch (including across an epoch
  // wrap) and return deduplicated, in-range clusters.
  const auto dataset = MakeData(300, 16, 20, 500, 7);
  ShortlistIndexOptions options;
  options.banding = {8, 4};
  ClusterShortlistProvider provider(options, 20);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  std::vector<uint32_t> assignment(dataset.num_items());
  Rng rng(5);
  for (auto& cluster : assignment) {
    cluster = static_cast<uint32_t>(rng.Below(20));
  }
  std::vector<uint32_t> tokens, first, again;
  dataset.PresentTokens(7, &tokens);
  provider.GetCandidatesForQuery(tokens, assignment, &first);
  ASSERT_FALSE(first.empty());  // item 7 collides with itself
  for (uint32_t repeat = 0; repeat < 3; ++repeat) {
    provider.GetCandidatesForQuery(tokens, assignment, &again);
    EXPECT_EQ(again, first) << "repeat " << repeat;
  }
  std::set<uint32_t> unique(first.begin(), first.end());
  EXPECT_EQ(unique.size(), first.size()) << "shortlist not deduplicated";
  for (const uint32_t cluster : first) EXPECT_LT(cluster, 20u);
}

TEST(ShortlistProviderTest, ShortlistIsDeduplicatedAndInRange) {
  const auto dataset = MakeData(200, 12, 10, 50, 7);
  ShortlistIndexOptions options;
  options.banding = {10, 1};  // aggressive: big shortlists
  ClusterShortlistProvider provider(options, 10);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  std::vector<uint32_t> assignment(dataset.num_items());
  for (uint32_t i = 0; i < dataset.num_items(); ++i) assignment[i] = i % 10;
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  for (uint32_t item = 0; item < dataset.num_items(); item += 7) {
    provider.GetCandidates(item, assignment, scratch, &shortlist);
    std::set<uint32_t> unique(shortlist.begin(), shortlist.end());
    EXPECT_EQ(unique.size(), shortlist.size()) << "duplicates in shortlist";
    for (const uint32_t cluster : shortlist) EXPECT_LT(cluster, 10u);
  }
}

TEST(ShortlistProviderTest, ShortlistContainsClustersOfIdenticalItems) {
  // Construct a dataset with two identical items assigned to different
  // clusters: each must see the other's cluster in its shortlist.
  auto dataset = CategoricalDataset::FromCodes(
                     4, 3, 30,
                     {1, 2, 3,    // item 0
                      1, 2, 3,    // item 1 (identical to 0)
                      10, 11, 12, // item 2
                      20, 21, 22})// item 3
                     .ValueOrDie();
  ShortlistIndexOptions options;
  options.banding = {4, 4};
  ClusterShortlistProvider provider(options, 4);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  const std::vector<uint32_t> assignment{0, 1, 2, 3};
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  provider.GetCandidates(0, assignment, scratch, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), 1u),
            shortlist.end())
      << "identical item's cluster missing from shortlist";
}

TEST(ShortlistProviderTest, ReflectsLiveAssignmentUpdates) {
  // Moving an item's neighbours must change what the shortlist
  // dereferences — the "update the cluster reference" step of Alg. 2.
  auto dataset = CategoricalDataset::FromCodes(
                     2, 2, 20, {1, 2, 1, 2})  // two identical items
                     .ValueOrDie();
  ShortlistIndexOptions options;
  options.banding = {2, 2};
  ClusterShortlistProvider provider(options, 5);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  std::vector<uint32_t> assignment{0, 3};
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  provider.GetCandidates(0, assignment, scratch, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), 3u),
            shortlist.end());
  assignment[1] = 4;  // the move: just a reference update
  provider.GetCandidates(0, assignment, scratch, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), 4u),
            shortlist.end());
  EXPECT_EQ(std::find(shortlist.begin(), shortlist.end(), 3u),
            shortlist.end());
}

TEST(ShortlistProviderTest, ExternalTokenQueryFindsSimilarItems) {
  const auto dataset = MakeData(100, 10, 5, 40, 11);
  ShortlistIndexOptions options;
  options.banding = {6, 2};
  ClusterShortlistProvider provider(options, 5);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  std::vector<uint32_t> assignment(dataset.num_items());
  for (uint32_t i = 0; i < dataset.num_items(); ++i) assignment[i] = i % 5;

  // Query with item 0's own tokens: its cluster must appear.
  std::vector<uint32_t> tokens;
  dataset.PresentTokens(0, &tokens);
  std::vector<uint32_t> shortlist;
  provider.GetCandidatesForQuery(tokens, assignment, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), assignment[0]),
            shortlist.end());
}

TEST(ShortlistProviderTest, OnePermutationBackendWorks) {
  const auto dataset = MakeData(200, 12, 8, 100, 13);
  ShortlistIndexOptions options;
  options.banding = {8, 2};
  options.algorithm = SignatureAlgorithm::kOnePermutation;
  ClusterShortlistProvider provider(options, 8);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  std::vector<uint32_t> assignment(dataset.num_items());
  for (uint32_t i = 0; i < dataset.num_items(); ++i) assignment[i] = i % 8;
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  provider.GetCandidates(0, assignment, scratch, &shortlist);
  EXPECT_FALSE(shortlist.empty());
  EXPECT_GT(provider.IndexStats().total_buckets, 0u);
}

TEST(ShortlistProviderTest, TimersAndMemoryArePopulated) {
  const auto dataset = MakeData(150, 10, 6, 80, 17);
  ShortlistIndexOptions options;
  options.banding = {4, 3};
  ClusterShortlistProvider provider(options, 6);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  EXPECT_GE(provider.signature_seconds(), 0.0);
  EXPECT_GE(provider.index_seconds(), 0.0);
  EXPECT_GT(provider.MemoryUsageBytes(), 0u);
  ASSERT_NE(provider.index(), nullptr);
  EXPECT_EQ(provider.index()->num_items(), dataset.num_items());
}

// ------------------------------------- brute-force shortlist oracle --

// What the oracle derives for one item under one assignment.
struct OracleLists {
  // Per band, the distinct clusters of the item's co-colliding peers in
  // ascending peer id, bands concatenated in order: what
  // BandedIndex::VisitCandidateClusters must visit.
  std::vector<uint32_t> bucket_clusters;
  // The shortlist: the current cluster, then bucket_clusters deduplicated
  // by first occurrence.
  std::vector<uint32_t> shortlist;
};

// Shortlists from literal pairwise band collisions: for every band and
// every (item, peer) pair the band key of both is recomputed and compared.
// Signs with a separately constructed family, so it shares nothing with
// the provider under test but the family's signing and the band-key hash.
template <typename Family>
std::vector<OracleLists> BruteForceShortlists(
    const typename Family::Options& options,
    const typename Family::Dataset& dataset,
    const std::vector<uint32_t>& assignment) {
  Family family(options);
  SignatureMatrix signatures;
  EXPECT_TRUE(family.ComputeSignatures(dataset, &signatures).ok());
  const std::vector<uint32_t> layout = family.BandLayout();
  const uint32_t width = family.signature_width();
  const uint32_t n = dataset.num_items();
  const auto band_key = [&](uint32_t item, uint32_t band, uint32_t offset) {
    return ComputeBandKey(
        signatures.data() + static_cast<size_t>(item) * width + offset, band,
        layout[band]);
  };
  const auto add_once = [](std::vector<uint32_t>& list, uint32_t cluster,
                           size_t from) {
    if (std::find(list.begin() + static_cast<ptrdiff_t>(from), list.end(),
                  cluster) == list.end()) {
      list.push_back(cluster);
    }
  };
  std::vector<OracleLists> result(n);
  for (uint32_t item = 0; item < n; ++item) {
    OracleLists& lists = result[item];
    lists.shortlist.push_back(assignment[item]);
    uint32_t offset = 0;
    for (uint32_t band = 0; band < layout.size(); ++band) {
      const size_t band_start = lists.bucket_clusters.size();
      for (uint32_t peer = 0; peer < n; ++peer) {
        if (band_key(item, band, offset) != band_key(peer, band, offset)) {
          continue;
        }
        add_once(lists.bucket_clusters, assignment[peer], band_start);
        add_once(lists.shortlist, assignment[peer], 0);
      }
      offset += layout[band];
    }
  }
  return result;
}

// Checks both GetCandidates paths, and the compacted table itself, against
// the oracle for one random assignment into k clusters.
template <typename Family>
void ExpectProviderMatchesOracle(const typename Family::Options& options,
                                 const typename Family::Dataset& dataset,
                                 uint32_t k, uint64_t seed) {
  const uint32_t n = dataset.num_items();
  std::vector<uint32_t> assignment(n);
  Rng rng(seed);
  for (auto& cluster : assignment) {
    cluster = static_cast<uint32_t>(rng.Below(k));
  }
  const std::vector<OracleLists> expected =
      BruteForceShortlists<Family>(options, dataset, assignment);

  ShortlistProvider<Family> provider(options, k);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  auto scratch = provider.MakeScratch();
  std::vector<uint32_t> shortlist;
  // No pass hook has run: the item walk.
  for (uint32_t item = 0; item < n; ++item) {
    provider.GetCandidates(item, assignment, scratch, &shortlist);
    ASSERT_EQ(shortlist, expected[item].shortlist)
        << "item walk, k=" << k << ", item " << item;
  }

  const uint64_t unbound_bytes = provider.MemoryUsageBytes();
  uint64_t table_bytes = 0;
  ThreadPool pool(4);
  for (ThreadPool* hook_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const char* path = hook_pool == nullptr ? "no pool" : "4-thread pool";
    BucketClusterTable table;
    provider.index()->CompactClusters(assignment, k, &table, hook_pool);
    for (uint32_t item = 0; item < n; ++item) {
      std::vector<uint32_t> visited;
      provider.index()->VisitCandidateClusters(
          item, table, [&](uint32_t cluster) { visited.push_back(cluster); });
      ASSERT_EQ(visited, expected[item].bucket_clusters)
          << "compacted table, " << path << ", k=" << k << ", item " << item;
    }

    provider.BeginPass(assignment, hook_pool);
    EXPECT_GT(provider.MemoryUsageBytes(), unbound_bytes)
        << "BeginPass built no table";
    // Later passes reuse the first pass's storage.
    if (table_bytes == 0) table_bytes = provider.MemoryUsageBytes();
    EXPECT_EQ(provider.MemoryUsageBytes(), table_bytes);
    // Few, wide buckets get cluster masks instead of lists; each item's
    // mask must then be its shortlist as a set.
    const bool masked = provider.index()->ClusterMasksFit(k);
    std::vector<uint64_t> mask((k + 63) / 64);
    for (uint32_t item = 0; item < n; ++item) {
      provider.GetCandidates(item, assignment, scratch, &shortlist);
      ASSERT_EQ(shortlist, expected[item].shortlist)
          << "bound walk, " << path << ", k=" << k << ", item " << item;
      ASSERT_EQ(provider.CandidateMask(item, assignment, mask), masked);
      if (!masked) continue;
      std::vector<uint32_t> members;
      for (uint32_t cluster = 0; cluster < k; ++cluster) {
        if ((mask[cluster / 64] >> (cluster % 64)) & 1) {
          members.push_back(cluster);
        }
      }
      std::vector<uint32_t> want = expected[item].shortlist;
      std::sort(want.begin(), want.end());
      ASSERT_EQ(members, want)
          << "cluster mask, " << path << ", k=" << k << ", item " << item;
    }
    provider.EndPass();
    EXPECT_FALSE(provider.CandidateMask(0, assignment, mask));
  }

  // The exact-sized table a fitted model keeps: the same lists, and
  // storage for their entries and offsets only.
  const BandedIndex& index = *provider.index();
  BucketClusterTable exact;
  index.CompactClustersExact(assignment, k, &exact);
  for (uint32_t item = 0; item < n; ++item) {
    std::vector<uint32_t> visited;
    index.VisitCandidateClusters(
        item, exact, [&](uint32_t cluster) { visited.push_back(cluster); });
    ASSERT_EQ(visited, expected[item].bucket_clusters)
        << "exact table, k=" << k << ", item " << item;
  }
  EXPECT_LE(exact.num_entries(), uint64_t{n} * index.num_bands());
  EXPECT_EQ(exact.MemoryUsageBytes(),
            sizeof(BucketClusterTable) +
                (index.num_buckets() + index.num_bands() +
                 exact.num_entries()) *
                    sizeof(uint32_t));
}

// Random token codes over a small domain (3 codes per attribute), so
// MinHash bands collide often; `identical` repeats row 0 everywhere.
CategoricalDataset OracleCategorical(uint32_t n, uint64_t seed,
                                     bool identical) {
  constexpr uint32_t kAttributes = 6;
  Rng rng(seed);
  std::vector<uint32_t> codes(static_cast<size_t>(n) * kAttributes);
  for (uint32_t i = 0; i < codes.size(); ++i) {
    const uint32_t attribute = i % kAttributes;
    codes[i] = identical && i >= kAttributes
                   ? codes[attribute]
                   : attribute * 3 + static_cast<uint32_t>(rng.Below(3));
  }
  return CategoricalDataset::FromCodes(n, kAttributes, kAttributes * 3,
                                       std::move(codes))
      .ValueOrDie();
}

NumericDataset OracleNumeric(uint32_t n, uint64_t seed, bool identical) {
  constexpr uint32_t kDims = 5;
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(n) * kDims);
  for (uint32_t i = 0; i < values.size(); ++i) {
    values[i] = identical && i >= kDims ? values[i % kDims]
                                        : rng.NextDouble() * 2.0 - 1.0;
  }
  return NumericDataset::FromValues(n, kDims, std::move(values))
      .ValueOrDie();
}

template <typename Family>
struct OracleCase;

template <>
struct OracleCase<MinHashShortlistFamily> {
  static ShortlistIndexOptions Options() {
    ShortlistIndexOptions options;
    options.banding = {6, 2};
    return options;
  }
  static CategoricalDataset Make(uint32_t n, uint64_t seed, bool identical) {
    return OracleCategorical(n, seed, identical);
  }
};

template <>
struct OracleCase<SimHashShortlistFamily> {
  static SimHashIndexOptions Options() {
    SimHashIndexOptions options;
    options.banding = {6, 3};
    return options;
  }
  static NumericDataset Make(uint32_t n, uint64_t seed, bool identical) {
    return OracleNumeric(n, seed, identical);
  }
};

template <>
struct OracleCase<MixedShortlistFamily> {
  // Heterogeneous layout: 2-row MinHash bands, then 3-row SimHash bands.
  static MixedIndexOptions Options() {
    MixedIndexOptions options;
    options.categorical_banding = {3, 2};
    options.numeric_banding = {4, 3};
    return options;
  }
  static MixedDataset Make(uint32_t n, uint64_t seed, bool identical) {
    return MixedDataset::Combine(OracleCategorical(n, seed, identical),
                                 OracleNumeric(n, seed + 1, identical))
        .ValueOrDie();
  }
};

template <typename Family>
class ShortlistOracleTest : public ::testing::Test {};

using OracleFamilies = ::testing::Types<MinHashShortlistFamily,
                                        SimHashShortlistFamily,
                                        MixedShortlistFamily>;
TYPED_TEST_SUITE(ShortlistOracleTest, OracleFamilies);

TYPED_TEST(ShortlistOracleTest, RandomAssignments) {
  using Case = OracleCase<TypeParam>;
  constexpr uint32_t kItems = 40;
  const auto dataset = Case::Make(kItems, 21, /*identical=*/false);
  for (const uint32_t k : {1u, 7u, kItems}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ExpectProviderMatchesOracle<TypeParam>(Case::Options(), dataset, k, k);
  }
}

TYPED_TEST(ShortlistOracleTest, SingleItem) {
  using Case = OracleCase<TypeParam>;
  ExpectProviderMatchesOracle<TypeParam>(
      Case::Options(), Case::Make(1, 22, /*identical=*/false), 1, 1);
}

TYPED_TEST(ShortlistOracleTest, WideBucketsAndManyClusters) {
  // k = 130 takes three mask words, the last one partly used; 200 items
  // keep the buckets few enough for masks (each family's coarse bands).
  using Case = OracleCase<TypeParam>;
  constexpr uint32_t kItems = 200;
  const auto dataset = Case::Make(kItems, 24, /*identical=*/false);
  ExpectProviderMatchesOracle<TypeParam>(Case::Options(), dataset, 130, 5);
}

TYPED_TEST(ShortlistOracleTest, EveryItemSharesOneBucket) {
  using Case = OracleCase<TypeParam>;
  constexpr uint32_t kItems = 12;
  const auto dataset = Case::Make(kItems, 23, /*identical=*/true);
  ShortlistProvider<TypeParam> probe(Case::Options(), 1);
  ASSERT_TRUE(probe.Prepare(dataset).ok());
  ASSERT_EQ(probe.IndexStats().total_buckets, probe.index()->num_bands())
      << "each band must hold exactly one bucket";
  for (const uint32_t k : {1u, 7u, kItems}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ExpectProviderMatchesOracle<TypeParam>(Case::Options(), dataset, k, k);
  }
}

// ------------------------------------------- per-pass table lifetime --

// The item-walk shortlist of `item` under `assignment`: the reference any
// GetCandidates call must reproduce, whichever path it takes.
std::vector<uint32_t> ItemWalk(const ClusterShortlistProvider& provider,
                               uint32_t item,
                               std::span<const uint32_t> assignment) {
  ClusterDedupScratch scratch = provider.MakeScratch();
  std::vector<uint32_t> shortlist;
  CollectCandidateClusters(item, assignment, scratch, &shortlist,
                           [&](auto&& sink) {
                             provider.index()->VisitCandidates(item, sink);
                           });
  return shortlist;
}

std::vector<uint32_t> RandomAssignment(uint32_t n, uint32_t k,
                                       uint64_t seed) {
  std::vector<uint32_t> assignment(n);
  Rng rng(seed);
  for (auto& cluster : assignment) {
    cluster = static_cast<uint32_t>(rng.Below(k));
  }
  return assignment;
}

TEST(ShortlistPassTableTest, EngineUnbindsTheSnapshotTableWhenItEnds) {
  // After the engine returns, its snapshot is freed; fresh vectors of the
  // same size allocated right away tend to reuse its address. A table still
  // bound to that address would answer for the engine's last snapshot.
  constexpr uint32_t kItems = 300;
  constexpr uint32_t kClusters = 12;
  const auto dataset = MakeData(kItems, 12, kClusters, 60, 31);
  ShortlistIndexOptions index_options;
  index_options.banding = {8, 2};
  ClusterShortlistProvider provider(index_options, kClusters);
  EngineOptions options;
  options.num_clusters = kClusters;
  options.max_iterations = 3;
  options.num_threads = 2;
  auto result = RunEngine(dataset, options, provider);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->iterations.empty());

  std::vector<std::vector<uint32_t>> fresh;
  for (uint64_t round = 0; round < 8; ++round) {
    fresh.push_back(RandomAssignment(kItems, kClusters, 100 + round));
  }
  auto scratch = provider.MakeScratch();
  std::vector<uint32_t> shortlist;
  for (size_t round = 0; round < fresh.size(); ++round) {
    for (uint32_t item = 0; item < kItems; ++item) {
      provider.GetCandidates(item, fresh[round], scratch, &shortlist);
      ASSERT_EQ(shortlist, ItemWalk(provider, item, fresh[round]))
          << "vector " << round << ", item " << item;
    }
  }
}

TEST(ShortlistPassTableTest, TableAnswersOnlyForTheBoundSpan) {
  constexpr uint32_t kItems = 200;
  constexpr uint32_t kClusters = 9;
  const auto dataset = MakeData(kItems, 12, kClusters, 60, 32);
  ShortlistIndexOptions options;
  options.banding = {8, 2};
  ClusterShortlistProvider provider(options, kClusters);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  const std::vector<uint32_t> bound = RandomAssignment(kItems, kClusters, 1);
  const std::vector<uint32_t> other = RandomAssignment(kItems, kClusters, 2);
  provider.BeginPass(bound, nullptr);
  auto scratch = provider.MakeScratch();
  std::vector<uint32_t> shortlist;
  for (uint32_t item = 0; item < kItems; ++item) {
    provider.GetCandidates(item, other, scratch, &shortlist);
    ASSERT_EQ(shortlist, ItemWalk(provider, item, other)) << "item " << item;
  }
}

TEST(ShortlistPassTableTest, PrepareDropsTheTable) {
  constexpr uint32_t kItems = 200;
  constexpr uint32_t kClusters = 9;
  const auto dataset = MakeData(kItems, 12, kClusters, 60, 33);
  ShortlistIndexOptions options;
  options.banding = {8, 2};
  ClusterShortlistProvider provider(options, kClusters);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  const uint64_t unbound_bytes = provider.MemoryUsageBytes();

  std::vector<uint32_t> assignment = RandomAssignment(kItems, kClusters, 3);
  provider.BeginPass(assignment, nullptr);
  // Rewriting the bound span breaks the table's validity window; a second
  // Prepare must forget the table instead of serving the stale lists.
  assignment = RandomAssignment(kItems, kClusters, 4);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  EXPECT_EQ(provider.MemoryUsageBytes(), unbound_bytes);
  auto scratch = provider.MakeScratch();
  std::vector<uint32_t> shortlist;
  for (uint32_t item = 0; item < kItems; ++item) {
    provider.GetCandidates(item, assignment, scratch, &shortlist);
    ASSERT_EQ(shortlist, ItemWalk(provider, item, assignment))
        << "item " << item;
  }
}

// --------------------------------------------------------- MH-K-Modes --

TEST(MHKModesTest, ProducesValidClusteringWithSmallShortlists) {
  const auto dataset = MakeData(600, 20, 60, 2000, 19);
  MHKModesOptions options;
  options.engine.num_clusters = 60;
  options.engine.seed = 21;
  options.index.banding = {20, 5};
  const auto run = RunMHKModes(dataset, options).ValueOrDie();

  EXPECT_EQ(run.result.assignment.size(), dataset.num_items());
  for (const uint32_t cluster : run.result.assignment) {
    EXPECT_LT(cluster, 60u);
  }
  ASSERT_FALSE(run.result.iterations.empty());
  // The whole point: shortlists are far smaller than k.
  for (const auto& iteration : run.result.iterations) {
    EXPECT_LT(iteration.mean_shortlist, 60.0);
  }
  EXPECT_GT(run.index_stats.total_buckets, 0u);
  EXPECT_GT(run.index_memory_bytes, 0u);
}

TEST(MHKModesTest, CostMonotoneNonIncreasing) {
  const auto dataset = MakeData(400, 16, 30, 300, 23);
  MHKModesOptions options;
  options.engine.num_clusters = 30;
  options.engine.seed = 25;
  options.index.banding = {16, 2};
  const auto run = RunMHKModes(dataset, options).ValueOrDie();
  for (size_t i = 1; i < run.result.iterations.size(); ++i) {
    EXPECT_LE(run.result.iterations[i].cost,
              run.result.iterations[i - 1].cost);
  }
}

TEST(MHKModesTest, MatchesKModesOnWellSeparatedData) {
  // With pure clusters and shared seeds covering each cluster, both
  // algorithms must find the exact ground truth.
  const auto dataset = MakeData(200, 10, 4, 5000, 27, 1.0, 1.0);
  EngineOptions engine;
  engine.num_clusters = 4;
  engine.initial_seeds = {0, 1, 2, 3};

  const auto baseline = RunKModes(dataset, engine).ValueOrDie();

  MHKModesOptions options;
  options.engine = engine;
  options.index.banding = {20, 5};
  const auto accelerated = RunMHKModes(dataset, options).ValueOrDie();

  EXPECT_EQ(baseline.final_cost, 0.0);
  EXPECT_EQ(accelerated.result.final_cost, 0.0);
  EXPECT_EQ(baseline.assignment, accelerated.result.assignment);
}

TEST(MHKModesTest, ComparablePurityToBaseline) {
  // The paper's headline: comparable purity, much less work. On noisy
  // synthetic data require MH purity within 10% of the baseline.
  const auto dataset = MakeData(800, 24, 40, 4000, 29);
  ComparisonOptions options;
  options.num_clusters = 40;
  options.seed = 31;
  const auto runs = RunComparison(
                        dataset, options,
                        {KModesSpec(), MHKModesSpec(20, 5)})
                        .ValueOrDie();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_GE(runs[1].purity, runs[0].purity - 0.1);
}

TEST(MHKModesTest, DeterministicPerSeed) {
  const auto dataset = MakeData(300, 12, 20, 200, 33);
  MHKModesOptions options;
  options.engine.num_clusters = 20;
  options.engine.seed = 35;
  options.index.banding = {10, 3};
  const auto a = RunMHKModes(dataset, options).ValueOrDie();
  const auto b = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(a.result.assignment, b.result.assignment);
  EXPECT_EQ(a.result.final_cost, b.result.final_cost);
}

TEST(MHKModesTest, OneBandOneRowStillClusters) {
  // The paper's 1b 1r setting (used on Yahoo! data): coarse but valid.
  const auto dataset = MakeData(300, 12, 15, 500, 37);
  MHKModesOptions options;
  options.engine.num_clusters = 15;
  options.index.banding = {1, 1};
  const auto run = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(run.result.assignment.size(), dataset.num_items());
}

// §III-C error-bound conformance: the fraction of items whose true best
// cluster is missing from the shortlist must not exceed the analytic bound.
class ErrorBoundConformanceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(ErrorBoundConformanceTest, EmpiricalMissRateBelowBound) {
  const auto [bands, rows] = GetParam();
  const uint32_t k = 25;
  const uint32_t per_cluster = 20;  // |C| for the bound
  const auto dataset =
      MakeData(k * per_cluster, 30, k, 1000, 41, 0.6, 0.9);

  ShortlistIndexOptions options;
  options.banding = {bands, rows};
  ClusterShortlistProvider provider(options, k);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  // Ground-truth assignment; modes = per-cluster majorities.
  const std::vector<uint32_t>& assignment = dataset.labels();
  ModeTable modes(k, dataset.num_attributes());
  Rng rng(43);
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);

  uint32_t misses = 0;
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  for (uint32_t item = 0; item < dataset.num_items(); ++item) {
    // The true best cluster by exhaustive search.
    uint32_t best_cluster = 0;
    uint32_t best_distance = ~0u;
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      const uint32_t d =
          MismatchDistance(dataset.Row(item), modes.Mode(cluster));
      if (d < best_distance) {
        best_distance = d;
        best_cluster = cluster;
      }
    }
    provider.GetCandidates(item, assignment, scratch, &shortlist);
    if (std::find(shortlist.begin(), shortlist.end(), best_cluster) ==
        shortlist.end()) {
      ++misses;
    }
  }
  const double miss_rate =
      static_cast<double>(misses) / dataset.num_items();
  const double bound = AssignmentErrorBound(dataset.num_attributes(),
                                            options.banding, per_cluster);
  // The bound is worst-case (items share >= 1 attribute with their best
  // cluster; real similarity is far higher), so the empirical rate must
  // sit clearly below it. Allow Monte-Carlo slack above tiny bounds.
  EXPECT_LE(miss_rate, std::min(1.0, bound + 0.02))
      << "b=" << bands << " r=" << rows << " bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ErrorBoundConformanceTest,
                         ::testing::Values(std::make_tuple(25u, 1u),
                                           std::make_tuple(20u, 2u),
                                           std::make_tuple(20u, 5u),
                                           std::make_tuple(50u, 5u)));

// -------------------------------------------------------- error bound --

TEST(ErrorBoundTablesTest, Table1MatchesPaperValues) {
  const auto table = MakePaperTable1();
  ASSERT_EQ(table.size(), 13u);
  // Row "10 bands, s=0.1": P=0.65, MH=1.
  EXPECT_EQ(table[1].bands, 10u);
  EXPECT_NEAR(table[1].pair_probability, 0.65, 0.005);
  EXPECT_NEAR(table[1].mh_probability, 1.0, 0.005);
  // Row "800 bands, s=0.0001": P=0.077; the paper prints MH=0.52 because
  // it composes from the rounded 0.07 — the exact value is 0.551.
  EXPECT_NEAR(table[9].pair_probability, 0.07, 0.01);
  EXPECT_NEAR(table[9].mh_probability, 0.5507, 0.005);
}

TEST(ErrorBoundTablesTest, Table2MatchesPaperValues) {
  const auto table = MakePaperTable2();
  ASSERT_EQ(table.size(), 9u);
  // Row "10 bands, s=0.5": P=0.27, MH=0.96.
  EXPECT_EQ(table[2].bands, 10u);
  EXPECT_NEAR(table[2].pair_probability, 0.27, 0.01);
  EXPECT_NEAR(table[2].mh_probability, 0.96, 0.01);
}

TEST(ErrorBoundMonteCarloTest, MatchesAnalyticModel) {
  const BandingParams params{10, 1};
  const double jaccard = 0.2;
  const auto estimate =
      EstimateCollisionProbability(jaccard, params, 10, 64, 400, 7);
  EXPECT_NEAR(estimate.realized_jaccard, jaccard, 0.02);
  const double expected =
      CandidatePairProbability(estimate.realized_jaccard, params);
  EXPECT_NEAR(estimate.pair_probability, expected, 0.08);
  const double expected_cluster = ClusterCandidateProbability(
      estimate.realized_jaccard, params, 10);
  EXPECT_NEAR(estimate.cluster_probability, expected_cluster, 0.08);
}

TEST(ErrorBoundMonteCarloTest, HighSimilarityAlwaysCollides) {
  const BandingParams params{20, 2};
  const auto estimate =
      EstimateCollisionProbability(0.95, params, 5, 64, 100, 9);
  EXPECT_GT(estimate.pair_probability, 0.99);
  EXPECT_GT(estimate.cluster_probability, 0.99);
}

// --------------------------------------------------------- LSH-K-Means --

TEST(LshKMeansTest, MatchesKMeansOnSeparatedBlobs) {
  GaussianMixtureOptions data;
  data.num_items = 400;
  data.dimensions = 8;
  data.num_clusters = 8;
  data.center_box = 50.0;
  data.stddev = 0.5;
  data.seed = 47;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  KMeansOptions kmeans;
  kmeans.num_clusters = 8;
  kmeans.initial_seeds = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto baseline = RunKMeans(dataset, kmeans).ValueOrDie();

  LshKMeansOptions options;
  options.kmeans = kmeans;
  options.banding = {16, 4};
  const auto accelerated = RunLshKMeans(dataset, options).ValueOrDie();

  EXPECT_EQ(baseline.assignment, accelerated.assignment);
  // Shortlists must beat exhaustive k.
  for (const auto& iteration : accelerated.iterations) {
    EXPECT_LT(iteration.mean_shortlist, 8.0);
  }
}

TEST(LshKMeansTest, InertiaMonotone) {
  GaussianMixtureOptions data;
  data.num_items = 500;
  data.dimensions = 6;
  data.num_clusters = 20;
  data.center_box = 5.0;
  data.stddev = 1.5;
  data.seed = 53;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  LshKMeansOptions options;
  options.kmeans.num_clusters = 20;
  options.kmeans.seed = 55;
  options.banding = {12, 3};
  const auto result = RunLshKMeans(dataset, options).ValueOrDie();
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost,
              result.iterations[i - 1].cost + 1e-9);
  }
}

// ----------------------------------------------------------- experiment --

TEST(ExperimentTest, SharedSeedsMakeInitialConditionsEqual) {
  const auto dataset = MakeData(300, 14, 20, 400, 59);
  ComparisonOptions options;
  options.num_clusters = 20;
  options.seed = 61;
  const auto runs =
      RunComparison(dataset, options,
                    {KModesSpec(), MHKModesSpec(20, 5), MHKModesSpec(20, 2)})
          .ValueOrDie();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].spec.label, "K-Modes");
  EXPECT_EQ(runs[1].spec.label, "MH-K-Modes 20b 5r");
  EXPECT_FALSE(runs[0].has_index);
  EXPECT_TRUE(runs[1].has_index);
  for (const auto& run : runs) {
    EXPECT_GE(run.purity, 0.0);
    EXPECT_LE(run.purity, 1.0);
    EXPECT_FALSE(run.result.iterations.empty());
  }
}

TEST(ExperimentTest, RejectsEmptyMethodList) {
  const auto dataset = MakeData(50, 8, 5, 30, 63);
  ComparisonOptions options;
  options.num_clusters = 5;
  EXPECT_TRUE(RunComparison(dataset, options, {})
                  .status().IsInvalidArgument());
}

TEST(ExperimentTest, UnlabeledDatasetYieldsNoPurity) {
  auto dataset = CategoricalDataset::FromCodes(
                     20, 4, 100,
                     [] {
                       std::vector<uint32_t> codes(80);
                       Rng rng(67);
                       for (auto& code : codes) {
                         code = static_cast<uint32_t>(rng.Below(100));
                       }
                       return codes;
                     }())
                     .ValueOrDie();
  ComparisonOptions options;
  options.num_clusters = 4;
  const auto runs =
      RunComparison(dataset, options, {KModesSpec()}).ValueOrDie();
  EXPECT_LT(runs[0].purity, 0.0);  // sentinel -1
}

// ------------------------------------------------------------ reporters --

TEST(ReportersTest, IterationSeriesMentionsMethodsAndValues) {
  const auto dataset = MakeData(200, 10, 10, 100, 71);
  ComparisonOptions options;
  options.num_clusters = 10;
  const auto runs = RunComparison(dataset, options,
                                  {KModesSpec(), MHKModesSpec(10, 2)})
                        .ValueOrDie();
  std::ostringstream out;
  PrintIterationSeries(out, "Fig. X", runs, IterationField::kSeconds);
  PrintIterationSeries(out, "Fig. X", runs, IterationField::kShortlist);
  PrintIterationSeries(out, "Fig. X", runs, IterationField::kMoves);
  PrintIterationSeries(out, "Fig. X", runs, IterationField::kCost);
  const std::string text = out.str();
  EXPECT_NE(text.find("K-Modes"), std::string::npos);
  EXPECT_NE(text.find("MH-K-Modes 10b 2r"), std::string::npos);
  EXPECT_NE(text.find("avg. clusters returned"), std::string::npos);
  EXPECT_NE(text.find("moves"), std::string::npos);
}

TEST(ReportersTest, SummaryTableIncludesSpeedupAndPurity) {
  const auto dataset = MakeData(200, 10, 10, 100, 73);
  ComparisonOptions options;
  options.num_clusters = 10;
  const auto runs = RunComparison(dataset, options,
                                  {KModesSpec(), MHKModesSpec(10, 2)})
                        .ValueOrDie();
  std::ostringstream out;
  PrintSummaryTable(out, "Fig. X", runs);
  const std::string text = out.str();
  EXPECT_NE(text.find("speedup"), std::string::npos);
  EXPECT_NE(text.find("purity"), std::string::npos);
  EXPECT_NE(text.find("index:"), std::string::npos);
}

TEST(ReportersTest, CollisionTablePrintsAnalyticAndMonteCarlo) {
  const auto rows = MakePaperTable1();
  std::vector<MonteCarloEstimate> mc(rows.size());
  std::ostringstream out;
  PrintCollisionTable(out, "Table I", 1, rows, mc);
  const std::string text = out.str();
  EXPECT_NE(text.find("P(pair)"), std::string::npos);
  EXPECT_NE(text.find("MC P(pair)"), std::string::npos);
  EXPECT_NE(text.find("800"), std::string::npos);
}

TEST(ReportersTest, ExperimentHeaderShowsShape) {
  std::ostringstream out;
  PrintExperimentHeader(out, "Figure 2", 90000, 100, 20000);
  EXPECT_NE(out.str().find("90000 items"), std::string::npos);
  EXPECT_NE(out.str().find("20000 clusters"), std::string::npos);
}

}  // namespace
}  // namespace lshclust
