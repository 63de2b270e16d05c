// Unit and property tests for src/lsh: the flat hash map, the analytic
// probability model (Tables I/II values), the banding index, and the
// freeze of the growable index into it.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "hashing/minhash.h"
#include "hashing/simhash.h"
#include "lsh/banded_index.h"
#include "lsh/dynamic_banded_index.h"
#include "lsh/flat_hash_table.h"
#include "lsh/probability.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lshclust {
namespace {

// ---------------------------------------------------------- FlatHashMap64 --

TEST(FlatHashMapTest, InsertAndFind) {
  FlatHashMap64 map;
  EXPECT_EQ(map.size(), 0u);
  *map.FindOrInsert(42, 7) = 7;
  EXPECT_EQ(map.size(), 1u);
  const uint32_t* found = map.Find(42);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 7u);
  EXPECT_EQ(map.Find(43), nullptr);
}

TEST(FlatHashMapTest, FindOrInsertReturnsExistingSlot) {
  FlatHashMap64 map;
  uint32_t* slot = map.FindOrInsert(10, 1);
  EXPECT_EQ(*slot, 1u);
  *slot = 99;
  EXPECT_EQ(*map.FindOrInsert(10, 1), 99u);  // initial ignored when present
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, GrowsPastInitialCapacity) {
  FlatHashMap64 map(4);
  for (uint64_t key = 0; key < 10000; ++key) {
    *map.FindOrInsert(key * 2654435761ULL, 0) =
        static_cast<uint32_t>(key);
  }
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t key = 0; key < 10000; ++key) {
    const uint32_t* found = map.Find(key * 2654435761ULL);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, static_cast<uint32_t>(key));
  }
}

TEST(FlatHashMapTest, HandlesAdversarialKeys) {
  // Keys 0, max, and dense sequences must all round-trip.
  FlatHashMap64 map;
  *map.FindOrInsert(0, 0) = 100;
  *map.FindOrInsert(~0ULL, 0) = 200;
  for (uint64_t key = 1; key <= 1000; ++key) *map.FindOrInsert(key, 0) = 1;
  EXPECT_EQ(*map.Find(0), 100u);
  EXPECT_EQ(*map.Find(~0ULL), 200u);
  EXPECT_EQ(map.size(), 1002u);
}

TEST(FlatHashMapTest, ClearKeepsCapacityDropsEntries) {
  FlatHashMap64 map;
  for (uint64_t key = 0; key < 100; ++key) map.FindOrInsert(key, 1);
  const size_t capacity = map.capacity();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.Find(5), nullptr);
  map.FindOrInsert(5, 3);
  EXPECT_EQ(*map.Find(5), 3u);
}

TEST(FlatHashMapTest, ForEachVisitsAllEntriesOnce) {
  FlatHashMap64 map;
  for (uint64_t key = 100; key < 200; ++key) {
    *map.FindOrInsert(key, 0) = static_cast<uint32_t>(key * 3);
  }
  std::map<uint64_t, uint32_t> seen;
  map.ForEach([&](uint64_t key, uint32_t value) { seen[key] = value; });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen[150], 450u);
}

TEST(FlatHashMapTest, ReserveAvoidsIncrementalGrowth) {
  FlatHashMap64 map;
  map.Reserve(100000);
  const size_t capacity = map.capacity();
  for (uint64_t key = 0; key < 100000; ++key) map.FindOrInsert(key, 0);
  EXPECT_EQ(map.capacity(), capacity);  // no rehash happened
}

TEST(FlatHashMapTest, ReserveStorageKeepsTheMapAndEmptyRehashesStartClean) {
  FlatHashMap64 map;
  for (uint64_t key = 0; key < 100; ++key) map.FindOrInsert(key, 1);
  const size_t capacity = map.capacity();
  map.ReserveStorage(100000);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(*map.Find(99), 1u);

  // An empty map grows in place: no entry of before the Clear survives.
  map.Clear();
  map.Reserve(100000);
  EXPECT_EQ(map.capacity(), FlatHashMap64::CapacityFor(100000));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  map.FindOrInsert(5, 3);
  EXPECT_EQ(*map.Find(5), 3u);
}

TEST(FlatHashMapTest, MatchesStdMapUnderRandomWorkload) {
  FlatHashMap64 map;
  std::map<uint64_t, uint32_t> reference;
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.Below(5000);  // force key reuse
    const uint32_t value = static_cast<uint32_t>(rng.Below(1000));
    *map.FindOrInsert(key, value) = value;
    reference[key] = value;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const uint32_t* found = map.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
}

// ------------------------------------------------------------ probability --

TEST(ProbabilityTest, PaperWorkedExample) {
  // §III-C: m=100, r=1, b=25, cluster of 20 items -> error <= 0.08.
  const double bound =
      AssignmentErrorBound(100, BandingParams{25, 1}, 20);
  EXPECT_NEAR(bound, 0.08, 0.005);
}

TEST(ProbabilityTest, PaperFootnoteExample) {
  // §III-D footnote: pair probability 0.1, 50 items -> 1-(1-0.1)^50 = 0.99.
  // With b=1, r=1 and s=0.1 the pair probability is exactly s.
  const double p =
      ClusterCandidateProbability(0.1, BandingParams{1, 1}, 50);
  EXPECT_NEAR(p, 1.0 - std::pow(0.9, 50), 1e-12);
  EXPECT_NEAR(p, 0.99, 0.005);
}

TEST(ProbabilityTest, TableOneSpotValues) {
  // Rows of Table I (r = 1): bands, jaccard -> P(pair), P(MH) at 10 items.
  // Expected values are the exact evaluations of the paper's own formula
  // 1-(1-s^r)^b (and its composition for the MH column). Note: the paper's
  // printed rows (100, 0.001) and (100, 0.01) contradict that formula
  // (they print 0.009/0.3 where the formula gives 0.095/0.634); all other
  // rows match once the MH column is derived from the *rounded* pair
  // column. We pin the analytic values — see EXPERIMENTS.md (Table I
  // erratum).
  struct Row {
    uint32_t bands;
    double s, pair, mh;
  };
  const Row rows[] = {
      {10, 0.01, 0.0956, 0.6340},  {10, 0.1, 0.6513, 1.0},
      {10, 0.5, 0.9990, 1.0},      {100, 0.001, 0.0952, 0.6326},
      {100, 0.01, 0.6340, 1.0},    {100, 0.1, 1.0, 1.0},
      {800, 0.001, 0.5507, 0.9997}, {800, 0.0001, 0.0769, 0.5507},
  };
  for (const auto& row : rows) {
    const BandingParams params{row.bands, 1};
    EXPECT_NEAR(CandidatePairProbability(row.s, params), row.pair, 0.005)
        << "bands=" << row.bands << " s=" << row.s;
    EXPECT_NEAR(ClusterCandidateProbability(row.s, params, 10), row.mh, 0.005)
        << "bands=" << row.bands << " s=" << row.s;
  }
}

TEST(ProbabilityTest, TableTwoSpotValues) {
  // Rows of Table II (r = 5).
  struct Row {
    uint32_t bands;
    double s, pair, mh;
  };
  const Row rows[] = {
      {10, 0.1, 0.0001, 0.001}, {10, 0.5, 0.27, 0.96}, {10, 0.8, 0.98, 1.0},
      {100, 0.5, 0.95, 1.0},    {800, 0.2, 0.23, 0.93}, {800, 0.3, 0.86, 1.0},
  };
  for (const auto& row : rows) {
    const BandingParams params{row.bands, 5};
    EXPECT_NEAR(CandidatePairProbability(row.s, params), row.pair, 0.011)
        << "bands=" << row.bands << " s=" << row.s;
    EXPECT_NEAR(ClusterCandidateProbability(row.s, params, 10), row.mh, 0.011)
        << "bands=" << row.bands << " s=" << row.s;
  }
}

TEST(ProbabilityTest, ThresholdSimilarityFormula) {
  EXPECT_NEAR(ThresholdSimilarity(BandingParams{20, 5}),
              std::pow(1.0 / 20.0, 0.2), 1e-12);
  EXPECT_DOUBLE_EQ(ThresholdSimilarity(BandingParams{1, 1}), 1.0);
  // More bands lower the threshold; more rows raise it.
  EXPECT_LT(ThresholdSimilarity(BandingParams{50, 5}),
            ThresholdSimilarity(BandingParams{20, 5}));
  EXPECT_GT(ThresholdSimilarity(BandingParams{20, 5}),
            ThresholdSimilarity(BandingParams{20, 2}));
}

TEST(ProbabilityTest, PairProbabilityMonotoneInSimilarityAndBands) {
  const BandingParams base{20, 5};
  double previous = -1;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    const double p = CandidatePairProbability(s, base);
    EXPECT_GE(p, previous);
    previous = p;
  }
  EXPECT_LT(CandidatePairProbability(0.4, BandingParams{10, 5}),
            CandidatePairProbability(0.4, BandingParams{50, 5}));
}

TEST(ProbabilityTest, BoundaryValues) {
  const BandingParams params{20, 5};
  EXPECT_DOUBLE_EQ(CandidatePairProbability(0.0, params), 0.0);
  EXPECT_DOUBLE_EQ(CandidatePairProbability(1.0, params), 1.0);
  EXPECT_DOUBLE_EQ(ClusterCandidateProbability(1.0, params, 5), 1.0);
  EXPECT_DOUBLE_EQ(ClusterCandidateProbability(0.0, params, 5), 0.0);
}

TEST(ProbabilityTest, ClusterProbabilityIncreasesWithClusterSize) {
  const BandingParams params{10, 2};
  EXPECT_LT(ClusterCandidateProbability(0.2, params, 1),
            ClusterCandidateProbability(0.2, params, 10));
  EXPECT_LT(ClusterCandidateProbability(0.2, params, 10),
            ClusterCandidateProbability(0.2, params, 100));
}

TEST(ProbabilityTest, MinJaccardSharedAttribute) {
  EXPECT_DOUBLE_EQ(MinJaccardSharedAttribute(1), 1.0);
  EXPECT_DOUBLE_EQ(MinJaccardSharedAttribute(100), 1.0 / 199.0);
}

TEST(ProbabilityTest, ErrorBoundShrinksWithMoreBandsAndBiggerClusters) {
  EXPECT_GT(AssignmentErrorBound(100, BandingParams{10, 1}, 20),
            AssignmentErrorBound(100, BandingParams{50, 1}, 20));
  EXPECT_GT(AssignmentErrorBound(100, BandingParams{25, 1}, 5),
            AssignmentErrorBound(100, BandingParams{25, 1}, 50));
}

// ------------------------------------------------------------ BandedIndex --

std::vector<uint64_t> MakeSignatures(const std::vector<std::vector<uint32_t>>& sets,
                                     uint32_t num_hashes, uint64_t seed) {
  const MinHasher hasher(num_hashes, seed);
  std::vector<uint64_t> signatures(sets.size() * num_hashes);
  for (size_t i = 0; i < sets.size(); ++i) {
    hasher.ComputeSignature(sets[i], signatures.data() + i * num_hashes);
  }
  return signatures;
}

TEST(BandedIndexTest, ItemIsItsOwnCandidate) {
  const std::vector<std::vector<uint32_t>> sets{
      {1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const BandingParams params{4, 2};
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 1);
  const BandedIndex index(signatures, 3, params);
  for (uint32_t item = 0; item < 3; ++item) {
    bool saw_self = false;
    index.VisitCandidates(item, [&](uint32_t other) {
      if (other == item) saw_self = true;
    });
    EXPECT_TRUE(saw_self) << "item " << item;
  }
}

TEST(BandedIndexTest, IdenticalItemsAlwaysCollide) {
  const std::vector<std::vector<uint32_t>> sets{
      {1, 2, 3}, {1, 2, 3}, {50, 60, 70}};
  const BandingParams params{4, 4};
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 2);
  const BandedIndex index(signatures, 3, params);
  std::set<uint32_t> candidates;
  index.VisitCandidates(0, [&](uint32_t other) { candidates.insert(other); });
  EXPECT_TRUE(candidates.count(1));
}

TEST(BandedIndexTest, DisjointItemsRarelyCollide) {
  // 100 mutually disjoint sets with strict banding (r=8): expect (almost)
  // no cross-candidates.
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t i = 0; i < 100; ++i) {
    sets.push_back({i * 10 + 1000, i * 10 + 1001, i * 10 + 1002,
                    i * 10 + 1003, i * 10 + 1004});
  }
  const BandingParams params{4, 8};
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 3);
  const BandedIndex index(signatures, 100, params);
  size_t cross = 0;
  for (uint32_t item = 0; item < 100; ++item) {
    index.VisitCandidates(item, [&](uint32_t other) {
      if (other != item) ++cross;
    });
  }
  EXPECT_LE(cross, 2u);
}

TEST(BandedIndexTest, QueryByExternalSignatureMatchesMemberQuery) {
  const std::vector<std::vector<uint32_t>> sets{
      {1, 2, 3, 4}, {1, 2, 3, 5}, {100, 200, 300, 400}};
  const BandingParams params{8, 2};
  const MinHasher hasher(params.num_hashes(), 11);
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 11);
  const BandedIndex index(signatures, 3, params);

  // Querying with item 0's own signature must reproduce its bucket mates.
  std::multiset<uint32_t> via_member, via_signature;
  index.VisitCandidates(0, [&](uint32_t other) { via_member.insert(other); });
  const auto sig = hasher.ComputeSignature(sets[0]);
  index.VisitCandidatesOfSignature(sig, [&](uint32_t other) {
    via_signature.insert(other);
  });
  EXPECT_EQ(via_member, via_signature);
}

TEST(BandedIndexTest, UnseenSignatureYieldsNoCandidates) {
  const std::vector<std::vector<uint32_t>> sets{{1, 2, 3}, {4, 5, 6}};
  const BandingParams params{4, 6};
  const MinHasher hasher(params.num_hashes(), 13);
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 13);
  const BandedIndex index(signatures, 2, params);
  const auto foreign =
      hasher.ComputeSignature(std::vector<uint32_t>{900, 901, 902});
  size_t count = 0;
  index.VisitCandidatesOfSignature(foreign, [&](uint32_t) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(BandedIndexTest, StatsAreConsistent) {
  std::vector<std::vector<uint32_t>> sets;
  Rng rng(17);
  for (uint32_t i = 0; i < 500; ++i) {
    std::vector<uint32_t> set;
    for (int t = 0; t < 8; ++t) {
      set.push_back(static_cast<uint32_t>(rng.Below(2000)));
    }
    sets.push_back(std::move(set));
  }
  const BandingParams params{6, 3};
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 19);
  const BandedIndex index(signatures, 500, params);

  const auto stats = index.ComputeStats();
  EXPECT_GT(stats.total_buckets, 0u);
  EXPECT_GE(stats.largest_bucket, 1u);
  EXPECT_LE(stats.largest_bucket, 500u);
  // Every band holds all 500 items, so mean = 500*6 / total_buckets.
  EXPECT_NEAR(stats.mean_bucket_size,
              3000.0 / static_cast<double>(stats.total_buckets), 1e-9);
  EXPECT_GT(index.MemoryUsageBytes(), 0u);

  // Per-band bucket sizes of each item are at least 1 (itself).
  for (uint32_t band = 0; band < params.bands; ++band) {
    EXPECT_GE(index.BucketSize(band, 0), 1u);
  }
}

TEST(BandedIndexTest, SingleItemIndex) {
  const std::vector<std::vector<uint32_t>> sets{{42, 43}};
  const BandingParams params{2, 2};
  const auto signatures = MakeSignatures(sets, params.num_hashes(), 23);
  const BandedIndex index(signatures, 1, params);
  size_t visits = 0;
  index.VisitCandidates(0, [&](uint32_t other) {
    EXPECT_EQ(other, 0u);
    ++visits;
  });
  EXPECT_EQ(visits, params.bands);  // itself, once per band
}

// ------------------------------------------------- band-parallel build --

// Random 6-token sets over a 40-token domain: plenty of collisions and
// plenty of singleton buckets at r = 2.
std::vector<uint64_t> RandomMinHashSignatures(uint32_t n, uint32_t width,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> sets(n);
  for (auto& set : sets) {
    for (int t = 0; t < 6; ++t) {
      set.push_back(static_cast<uint32_t>(rng.Below(40)));
    }
  }
  return MakeSignatures(sets, width, seed);
}

std::vector<uint64_t> RandomSimHashSignatures(uint32_t n, uint32_t width,
                                              uint64_t seed) {
  constexpr uint32_t kDims = 5;
  const SimHasher hasher(width, kDims, seed);
  Rng rng(seed + 1);
  std::vector<uint64_t> signatures(static_cast<size_t>(n) * width);
  std::vector<double> vec(kDims);
  for (uint32_t item = 0; item < n; ++item) {
    for (double& x : vec) x = rng.NextDouble() * 2.0 - 1.0;
    hasher.ComputeSignature(vec, signatures.data() + size_t{item} * width);
  }
  return signatures;
}

void ExpectSameRaw(const BandedIndex& expected, const BandedIndex& actual) {
  const BandedIndex::Raw want = expected.ToRaw();
  const BandedIndex::Raw got = actual.ToRaw();
  ASSERT_EQ(got.num_items, want.num_items);
  ASSERT_EQ(got.bands.size(), want.bands.size());
  for (size_t b = 0; b < want.bands.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "band " << b);
    EXPECT_EQ(got.bands[b].offset, want.bands[b].offset);
    EXPECT_EQ(got.bands[b].rows, want.bands[b].rows);
    EXPECT_EQ(got.bands[b].bucket_keys, want.bands[b].bucket_keys);
    EXPECT_EQ(got.bands[b].bucket_offsets, want.bands[b].bucket_offsets);
    EXPECT_EQ(got.bands[b].bucket_items, want.bands[b].bucket_items);
    EXPECT_EQ(got.bands[b].item_bucket, want.bands[b].item_bucket);
  }
}

void ExpectSameIndex(const BandedIndex& expected, const BandedIndex& actual) {
  ExpectSameRaw(expected, actual);
  EXPECT_EQ(actual.MemoryUsageBytes(), expected.MemoryUsageBytes());
  EXPECT_EQ(actual.params().bands, expected.params().bands);
  EXPECT_EQ(actual.params().rows, expected.params().rows);
}

// Builds `layout` over `signatures` without a pool, then with pools of 2,
// 4 and more threads than bands, and expects every pooled build to dump
// exactly the sequential one.
void ExpectPoolInvariantBuild(const std::vector<uint64_t>& signatures,
                              uint32_t n, const std::vector<uint32_t>& layout) {
  const BandedIndex sequential(signatures, n, layout);
  const uint32_t bands = static_cast<uint32_t>(layout.size());
  for (const uint32_t threads : {2u, 4u, bands + 3}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    const BandedIndex pooled(signatures, n, layout, &pool);
    ExpectSameIndex(sequential, pooled);
  }
}

TEST(BandedIndexBuildTest, UniformMinHashIsPoolInvariant) {
  constexpr uint32_t kItems = 300;
  const BandingParams params{8, 2};
  const auto signatures =
      RandomMinHashSignatures(kItems, params.num_hashes(), 41);
  const BandedIndex sequential(signatures, kItems, params);
  ASSERT_GT(sequential.ComputeStats().largest_bucket, 1u);
  ASSERT_LT(sequential.ComputeStats().total_buckets, kItems * params.bands);
  ExpectPoolInvariantBuild(signatures, kItems,
                           std::vector<uint32_t>(params.bands, params.rows));
  ThreadPool pool(4);
  ExpectSameIndex(sequential, BandedIndex(signatures, kItems, params, &pool));
}

TEST(BandedIndexBuildTest, SimHashIsPoolInvariant) {
  constexpr uint32_t kItems = 300;
  const auto signatures = RandomSimHashSignatures(kItems, 8 * 3, 43);
  ExpectPoolInvariantBuild(signatures, kItems, std::vector<uint32_t>(8, 3));
}

TEST(BandedIndexBuildTest, HeterogeneousMixedLayoutIsPoolInvariant) {
  // Per item: 6 MinHash components (three 2-row bands), then 12 SimHash
  // bits (four 3-row bands) — the mixed family's concatenated layout.
  constexpr uint32_t kItems = 250;
  const auto minhash = RandomMinHashSignatures(kItems, 6, 45);
  const auto simhash = RandomSimHashSignatures(kItems, 12, 47);
  std::vector<uint64_t> signatures;
  for (uint32_t item = 0; item < kItems; ++item) {
    signatures.insert(signatures.end(), minhash.begin() + item * 6,
                      minhash.begin() + (item + 1) * 6);
    signatures.insert(signatures.end(), simhash.begin() + item * 12,
                      simhash.begin() + (item + 1) * 12);
  }
  ExpectPoolInvariantBuild(signatures, kItems, {2, 2, 2, 3, 3, 3, 3});
}

TEST(BandedIndexBuildTest, SingleItemIsPoolInvariant) {
  ExpectPoolInvariantBuild(RandomMinHashSignatures(1, 6, 49), 1, {2, 2, 2});
}

TEST(BandedIndexBuildTest, AllSingletonBucketsArePoolInvariant) {
  constexpr uint32_t kItems = 200;
  constexpr uint32_t kWidth = 8;
  std::vector<uint64_t> signatures(kItems * kWidth);
  for (uint32_t i = 0; i < signatures.size(); ++i) signatures[i] = i;
  const std::vector<uint32_t> layout(4, 2);
  const BandedIndex sequential(signatures, kItems, layout);
  ASSERT_EQ(sequential.ComputeStats().total_buckets, kItems * layout.size());
  ExpectPoolInvariantBuild(signatures, kItems, layout);
}

TEST(BandedIndexBuildTest, OneBucketPerBandIsPoolInvariant) {
  constexpr uint32_t kItems = 200;
  constexpr uint32_t kWidth = 8;
  std::vector<uint64_t> signatures(kItems * kWidth);
  for (uint32_t i = 0; i < signatures.size(); ++i) signatures[i] = i % kWidth;
  const std::vector<uint32_t> layout(4, 2);
  const BandedIndex sequential(signatures, kItems, layout);
  ASSERT_EQ(sequential.ComputeStats().total_buckets, layout.size());
  ExpectPoolInvariantBuild(signatures, kItems, layout);
}

TEST(BandedIndexBuildTest, FewWideBucketsShrinkTheMapToFit) {
  // 16 buckets per band over 2,000 items: the build reserves each map
  // for 2,000 keys, then shrinks it to the size a load of the dump
  // reserves, so a fitted index is no larger than its reloaded copy.
  constexpr uint32_t kItems = 2000;
  constexpr uint32_t kWidth = 8;
  std::vector<uint64_t> signatures(kItems * kWidth);
  Rng rng(51);
  for (uint64_t& component : signatures) component = rng.Below(2);
  const BandedIndex built(signatures, kItems, std::vector<uint32_t>(2, 4));
  ASSERT_EQ(built.ComputeStats().total_buckets, 2u * 16u);
  const auto reloaded = BandedIndex::FromRaw(built.ToRaw());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameIndex(built, *reloaded);
}

TEST(BandedIndexBuildTest, BandsPastTheFirstRoundsKeysAreBuiltAgainAlike) {
  // One-row bands over 2,000 items with 16, 1,000, 1,024, 1,025 and
  // 2,000 keys: the first three fit the build's first round (the third
  // fills its map), the last two stop there and are bucketed again with
  // room for n. Every band must still number its buckets by first
  // occurrence, build alike with and without pools, and end with the map
  // a build reserved for n keys ends with.
  constexpr uint32_t kItems = 2000;
  const std::vector<uint32_t> keys = {16, 1000, 1024, 1025, kItems};
  const auto width = static_cast<uint32_t>(keys.size());
  std::vector<uint64_t> signatures(kItems * width);
  for (uint32_t item = 0; item < kItems; ++item) {
    for (uint32_t b = 0; b < width; ++b) {
      signatures[item * width + b] = item % keys[b];
    }
  }
  const std::vector<uint32_t> layout(width, 1);
  const BandedIndex built(signatures, kItems, layout);
  const BandedIndex::Raw raw = built.ToRaw();
  for (uint32_t b = 0; b < width; ++b) {
    SCOPED_TRACE(testing::Message() << "band " << b);
    ASSERT_EQ(raw.bands[b].bucket_keys.size(), keys[b]);
    for (uint32_t item = 0; item < kItems; ++item) {
      ASSERT_EQ(raw.bands[b].item_bucket[item], item % keys[b]);
    }
  }
  ExpectPoolInvariantBuild(signatures, kItems, layout);

  // n keys take 4,096 slots. 16 keys fill under a quarter of them, so
  // that map is fitted (32 slots), as a load of the dump sizes it; 1,000
  // to 1,025 keys fit 2,048 slots but fill more than a quarter of 4,096,
  // so those three maps keep 4,096; 2,000 keys take 4,096 either way.
  const auto reloaded = BandedIndex::FromRaw(raw);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameRaw(built, *reloaded);
  ASSERT_EQ(FlatHashMap64::CapacityFor(kItems), 4096u);
  const uint64_t slot_bytes = sizeof(uint64_t) + sizeof(uint32_t) + 1;
  EXPECT_EQ(built.MemoryUsageBytes() - reloaded->MemoryUsageBytes(),
            3 * (4096 - 2048) * slot_bytes);
}

// ------------------------------------------------------- freeze oracle --

// How a step of the oracle feeds items into the growable index.
enum class InsertPath { kInsert, kBatch, kDetectingRecent };

struct InsertStep {
  InsertPath path;
  uint32_t count;
};

// Expects the freeze of `dynamic` to equal the index built by Build from
// the first num_items() rows of `signatures`: identical dumps, including
// bucket keys in id order, and every band's map right-sized, i.e. no
// larger than FromRaw makes it.
void ExpectFreezeEqualsBuild(const DynamicBandedIndex& dynamic,
                             const std::vector<uint64_t>& signatures) {
  const uint32_t n = dynamic.num_items();
  const BandingParams params = dynamic.params();
  const BandedIndex built(
      std::span<const uint64_t>(signatures.data(),
                                size_t{n} * params.num_hashes()),
      n, params);
  const BandedIndex frozen(dynamic);
  ExpectSameRaw(built, frozen);
  EXPECT_EQ(frozen.params().bands, params.bands);
  EXPECT_EQ(frozen.params().rows, params.rows);
  const auto reloaded = BandedIndex::FromRaw(frozen.ToRaw());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(frozen.MemoryUsageBytes(), reloaded->MemoryUsageBytes())
      << "a frozen map is larger than its keys need";
}

// Feeds `signatures` into a growable index `steps` at a time, each step
// through one insert path, and checks the freeze after every step. A
// kDetectingRecent step passes the step's first id as `min_item`, as the
// streaming apply phase does with its micro-batch.
void ExpectFreezeEqualsBuildAfterEachStep(
    const std::vector<uint64_t>& signatures, BandingParams params,
    const std::vector<InsertStep>& steps, uint32_t expected_items = 0) {
  const uint32_t width = params.num_hashes();
  DynamicBandedIndex dynamic(params, expected_items);
  for (size_t s = 0; s < steps.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "after step " << s);
    const uint32_t first = dynamic.num_items();
    const uint32_t count = steps[s].count;
    ASSERT_LE(size_t{first + count} * width, signatures.size());
    const auto row = [&](uint32_t item) {
      return std::span<const uint64_t>(
          signatures.data() + size_t{item} * width, width);
    };
    switch (steps[s].path) {
      case InsertPath::kInsert:
        for (uint32_t i = 0; i < count; ++i) {
          EXPECT_EQ(dynamic.Insert(row(first + i)), first + i);
        }
        break;
      case InsertPath::kBatch:
        dynamic.InsertBatch(
            std::span<const uint64_t>(signatures.data() + size_t{first} * width,
                                      size_t{count} * width),
            count);
        break;
      case InsertPath::kDetectingRecent:
        for (uint32_t i = 0; i < count; ++i) {
          bool saw_recent = false;
          EXPECT_EQ(
              dynamic.InsertDetectingRecent(row(first + i), first, &saw_recent),
              first + i);
        }
        break;
    }
    ASSERT_EQ(dynamic.num_items(), first + count);
    ExpectFreezeEqualsBuild(dynamic, signatures);
  }
}

const std::vector<InsertStep> kMixedSteps{
    {InsertPath::kBatch, 40},          {InsertPath::kInsert, 7},
    {InsertPath::kDetectingRecent, 9}, {InsertPath::kBatch, 1},
    {InsertPath::kInsert, 1},          {InsertPath::kBatch, 33},
    {InsertPath::kDetectingRecent, 30}, {InsertPath::kInsert, 19}};

TEST(FreezeOracleTest, HeavyCollisionsOneRowPerBand) {
  // r = 1 over four distinct signatures: every band has at most four
  // buckets, each holding about a quarter of the items.
  constexpr uint32_t kItems = 140;
  const BandingParams params{6, 1};
  std::vector<uint64_t> distinct(4 * params.num_hashes());
  Rng rng(53);
  for (uint64_t& component : distinct) component = rng.Below(3);
  std::vector<uint64_t> signatures;
  for (uint32_t item = 0; item < kItems; ++item) {
    const auto first = distinct.begin() + rng.Below(4) * params.num_hashes();
    signatures.insert(signatures.end(), first, first + params.num_hashes());
  }
  ExpectFreezeEqualsBuildAfterEachStep(signatures, params, kMixedSteps);
  const BandedIndex built(signatures, kItems, params);
  EXPECT_LE(built.ComputeStats().total_buckets, 4u * params.bands);
  EXPECT_GT(built.ComputeStats().largest_bucket, kItems / 8);
}

TEST(FreezeOracleTest, AllUniqueKeys) {
  constexpr uint32_t kItems = 140;
  const BandingParams params{4, 2};
  std::vector<uint64_t> signatures(kItems * params.num_hashes());
  for (uint32_t i = 0; i < signatures.size(); ++i) signatures[i] = i;
  ExpectFreezeEqualsBuildAfterEachStep(signatures, params, kMixedSteps);
  EXPECT_EQ(BandedIndex(signatures, kItems, params).ComputeStats()
                .total_buckets,
            kItems * params.bands);
}

TEST(FreezeOracleTest, RealMinHashSignaturesAtTheDefaultBanding) {
  constexpr uint32_t kItems = 140;
  const BandingParams params{20, 5};
  ExpectFreezeEqualsBuildAfterEachStep(
      RandomMinHashSignatures(kItems, params.num_hashes(), 55), params,
      kMixedSteps);
}

TEST(FreezeOracleTest, WideBucketsFreezeToRightSizedMaps) {
  // InsertBatch reserves each map for every item it adds; over five
  // distinct signatures that is hundreds of slots for five keys. The
  // freeze must not carry those slots into the snapshot.
  constexpr uint32_t kItems = 3000;
  const BandingParams params{3, 2};
  std::vector<uint64_t> signatures(kItems * params.num_hashes());
  for (uint32_t item = 0; item < kItems; ++item) {
    for (uint32_t h = 0; h < params.num_hashes(); ++h) {
      signatures[item * params.num_hashes() + h] = item % 5;
    }
  }
  DynamicBandedIndex dynamic(params);
  dynamic.InsertBatch(signatures, kItems);
  ExpectFreezeEqualsBuild(dynamic, signatures);
  ExpectFreezeEqualsBuildAfterEachStep(
      signatures, params,
      {{InsertPath::kBatch, 2000}, {InsertPath::kDetectingRecent, 500},
       {InsertPath::kBatch, 500}});
}

TEST(FreezeOracleTest, WarmUpThenMicroBatchIngest) {
  // StreamingMHKModes' sequence: an index sized for the warm-up, one
  // InsertBatch of the warm-up matrix, then micro-batches of
  // InsertDetectingRecent (single rows take Insert).
  constexpr uint32_t kWarmUp = 300;
  const BandingParams params{20, 5};
  const auto signatures =
      RandomMinHashSignatures(kWarmUp + 200, params.num_hashes(), 57);
  ExpectFreezeEqualsBuildAfterEachStep(
      signatures, params,
      {{InsertPath::kBatch, kWarmUp},
       {InsertPath::kDetectingRecent, 64},
       {InsertPath::kInsert, 1},
       {InsertPath::kDetectingRecent, 64},
       {InsertPath::kDetectingRecent, 71}},
      kWarmUp);
}

/// Property sweep: the empirical banding collision rate of real MinHash
/// signatures matches the analytic 1-(1-s^r)^b within Monte-Carlo noise.
class BandingCollisionTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, double>> {
};

TEST_P(BandingCollisionTest, EmpiricalRateMatchesAnalytic) {
  const auto [bands, rows, similarity] = GetParam();
  const BandingParams params{bands, rows};
  const uint32_t kTrials = 600;
  const uint32_t kSetSize = 64;

  uint32_t hits = 0;
  for (uint32_t trial = 0; trial < kTrials; ++trial) {
    // Pair with |A∩B| = i tokens out of union 2z-i.
    const uint32_t i = static_cast<uint32_t>(
        std::round(2.0 * kSetSize * similarity / (1.0 + similarity)));
    std::vector<uint32_t> a, b;
    uint32_t next = trial * 1000000;
    for (uint32_t t = 0; t < i; ++t) {
      a.push_back(next);
      b.push_back(next);
      ++next;
    }
    while (a.size() < kSetSize) a.push_back(next++);
    while (b.size() < kSetSize) b.push_back(next++);
    const MinHasher h2(params.num_hashes(), 5000 + trial);
    const auto sa = h2.ComputeSignature(a);
    const auto sb = h2.ComputeSignature(b);
    std::vector<uint64_t> combined;
    combined.insert(combined.end(), sa.begin(), sa.end());
    combined.insert(combined.end(), sb.begin(), sb.end());
    const BandedIndex index(combined, 2, params);
    bool collided = false;
    index.VisitCandidates(0, [&](uint32_t other) {
      if (other == 1) collided = true;
    });
    hits += collided ? 1 : 0;
  }

  const uint32_t i = static_cast<uint32_t>(
      std::round(2.0 * kSetSize * similarity / (1.0 + similarity)));
  const double realized = static_cast<double>(i) / (2.0 * kSetSize - i);
  const double expected = CandidatePairProbability(realized, params);
  const double observed = static_cast<double>(hits) / kTrials;
  const double sigma = std::sqrt(expected * (1 - expected) / kTrials);
  EXPECT_NEAR(observed, expected, 4 * sigma + 0.02)
      << "b=" << bands << " r=" << rows << " s=" << similarity;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandingCollisionTest,
    ::testing::Values(std::make_tuple(1u, 1u, 0.3),
                      std::make_tuple(10u, 1u, 0.1),
                      std::make_tuple(20u, 5u, 0.5),
                      std::make_tuple(20u, 5u, 0.7),
                      std::make_tuple(50u, 5u, 0.5),
                      std::make_tuple(20u, 2u, 0.3),
                      std::make_tuple(5u, 10u, 0.9)));

}  // namespace
}  // namespace lshclust
