// Unit tests for src/clustering: dissimilarity kernels, mode computation,
// the exhaustive argmin (all-clusters scan) and the attribute-major
// centroid copies, initializers, K-Modes, K-Means and mini-batch K-Means.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "clustering/dissimilarity.h"
#include "clustering/initializers.h"
#include "clustering/kmeans.h"
#include "clustering/kmodes.h"
#include "clustering/kprototypes.h"
#include "clustering/modes.h"
#include "core/cluster_shortlist_index.h"
#include "core/simhash_shortlist_index.h"
#include "core/streaming.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"

namespace lshclust {
namespace {

// ---------------------------------------------------------- dissimilarity --

TEST(DissimilarityTest, CountsMismatches) {
  const std::vector<uint32_t> a{1, 2, 3, 4};
  const std::vector<uint32_t> b{1, 9, 3, 8};
  EXPECT_EQ(MismatchDistance(a, b), 2u);
  EXPECT_EQ(MismatchDistance(a, a), 0u);
}

TEST(DissimilarityTest, SymmetricAndBounded) {
  const std::vector<uint32_t> a{1, 2, 3};
  const std::vector<uint32_t> b{4, 5, 6};
  EXPECT_EQ(MismatchDistance(a, b), MismatchDistance(b, a));
  EXPECT_EQ(MismatchDistance(a, b), 3u);  // max = m
}

TEST(DissimilarityTest, BoundedKernelAgreesBelowBound) {
  // For distances strictly below the bound, the early-exit kernel must
  // return the exact count.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.Below(64));
    std::vector<uint32_t> a(m), b(m);
    for (uint32_t j = 0; j < m; ++j) {
      a[j] = static_cast<uint32_t>(rng.Below(4));
      b[j] = rng.Bernoulli(0.3) ? a[j] : a[j] + 10;
    }
    const uint32_t exact = MismatchDistance(a, b);
    const uint32_t bounded =
        BoundedMismatchDistance(a.data(), b.data(), m, m + 1);
    EXPECT_EQ(bounded, exact);
    // With bound <= exact, the kernel must return something >= bound.
    if (exact > 0) {
      EXPECT_GE(BoundedMismatchDistance(a.data(), b.data(), m, exact), exact);
    }
  }
}

TEST(DissimilarityTest, BoundedKernelHandlesNonMultipleOf16Lengths) {
  for (uint32_t m : {1u, 15u, 16u, 17u, 31u, 33u, 100u}) {
    std::vector<uint32_t> a(m, 1), b(m, 2);
    EXPECT_EQ(BoundedMismatchDistance(a.data(), b.data(), m, m + 1), m);
  }
}

TEST(DissimilarityTest, JaccardFromMatches) {
  // q matches of m attributes: s = q / (2m - q).
  EXPECT_DOUBLE_EQ(JaccardFromMatches(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(JaccardFromMatches(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(JaccardFromMatches(1, 100), 1.0 / 199.0);
  EXPECT_DOUBLE_EQ(JaccardFromMatches(50, 100), 50.0 / 150.0);
}

// ------------------------------------------------------------------ modes --

CategoricalDataset SmallDataset() {
  // 6 items x 2 attributes; codes chosen by hand.
  return CategoricalDataset::FromCodes(
             6, 2, 10,
             {1, 5,   // cluster 0
              1, 6,   // cluster 0
              1, 5,   // cluster 0
              2, 7,   // cluster 1
              3, 7,   // cluster 1
              2, 7})  // cluster 1
      .ValueOrDie();
}

TEST(ModeTableTest, ComputesPerAttributeMajority) {
  const auto dataset = SmallDataset();
  ModeTable modes(2, 2);
  Rng rng(1);
  const std::vector<uint32_t> assignment{0, 0, 0, 1, 1, 1};
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  EXPECT_EQ(modes.Mode(0)[0], 1u);  // 1 appears 3x
  EXPECT_EQ(modes.Mode(0)[1], 5u);  // 5 appears 2x, 6 once
  EXPECT_EQ(modes.Mode(1)[0], 2u);  // 2 appears 2x, 3 once
  EXPECT_EQ(modes.Mode(1)[1], 7u);
  EXPECT_EQ(modes.cluster_sizes(), (std::vector<uint32_t>{3, 3}));
}

TEST(ModeTableTest, ModeMinimizesTotalDissimilarity) {
  // Theorem: the per-attribute majority minimises D(X, Q). Verify by
  // exhaustive search on a random small instance.
  Rng rng(5);
  const uint32_t n = 40, m = 3, domain = 4;
  std::vector<uint32_t> codes(n * m);
  for (auto& code : codes) code = static_cast<uint32_t>(rng.Below(domain));
  const auto dataset =
      CategoricalDataset::FromCodes(n, m, domain, codes).ValueOrDie();

  ModeTable modes(1, m);
  const std::vector<uint32_t> assignment(n, 0);
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  uint64_t mode_cost = 0;
  for (uint32_t i = 0; i < n; ++i) {
    mode_cost += MismatchDistance(dataset.Row(i), modes.Mode(0));
  }
  // Exhaustive: every candidate mode in domain^m.
  for (uint32_t c0 = 0; c0 < domain; ++c0) {
    for (uint32_t c1 = 0; c1 < domain; ++c1) {
      for (uint32_t c2 = 0; c2 < domain; ++c2) {
        const std::vector<uint32_t> candidate{c0, c1, c2};
        uint64_t cost = 0;
        for (uint32_t i = 0; i < n; ++i) {
          cost += MismatchDistance(dataset.Row(i), candidate);
        }
        EXPECT_GE(cost, mode_cost);
      }
    }
  }
}

TEST(ModeTableTest, TieBreaksToSmallestCode) {
  const auto dataset =
      CategoricalDataset::FromCodes(2, 1, 5, {4, 2}).ValueOrDie();
  ModeTable modes(1, 1);
  Rng rng(1);
  modes.RecomputeFromAssignment(dataset, std::vector<uint32_t>{0, 0},
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  EXPECT_EQ(modes.Mode(0)[0], 2u);  // both appear once; smaller code wins
}

TEST(ModeTableTest, EmptyClusterKeepsPreviousMode) {
  const auto dataset = SmallDataset();
  ModeTable modes(3, 2);
  modes.SetModeFromItem(2, dataset, 5);
  const std::vector<uint32_t> before(modes.Mode(2).begin(),
                                     modes.Mode(2).end());
  Rng rng(1);
  const std::vector<uint32_t> assignment{0, 0, 0, 1, 1, 1};  // cluster 2 empty
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  EXPECT_EQ(std::vector<uint32_t>(modes.Mode(2).begin(), modes.Mode(2).end()),
            before);
  EXPECT_EQ(modes.cluster_sizes()[2], 0u);
}

TEST(ModeTableTest, EmptyClusterReseedsFromItem) {
  const auto dataset = SmallDataset();
  ModeTable modes(3, 2);
  Rng rng(1);
  const std::vector<uint32_t> assignment{0, 0, 0, 1, 1, 1};
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kReseedRandomItem, rng);
  // The reseeded mode must equal some item's row.
  bool matches_an_item = false;
  for (uint32_t i = 0; i < dataset.num_items(); ++i) {
    if (MismatchDistance(dataset.Row(i), modes.Mode(2)) == 0) {
      matches_an_item = true;
    }
  }
  EXPECT_TRUE(matches_an_item);
}

TEST(ModeTableTest, SetModeFromItemCopiesRow) {
  const auto dataset = SmallDataset();
  ModeTable modes(1, 2);
  modes.SetModeFromItem(0, dataset, 3);
  EXPECT_EQ(MismatchDistance(modes.Mode(0), dataset.Row(3)), 0u);
}

// ------------------------------------------------------ mode-update oracle --

// The naive mode update: for every (cluster, attribute) pair, count the
// members' codes in an ordered map and take the highest count, the
// smallest code on ties. Empty clusters keep `previous`'s row
// (kKeepPreviousMode) or take the row of the item drawn from `rng`, in
// ascending cluster order (kReseedRandomItem).
struct NaiveModes {
  std::vector<uint32_t> codes;  // row-major k x m
  std::vector<uint32_t> sizes;
};

NaiveModes NaiveModeUpdate(const CategoricalDataset& dataset,
                           const std::vector<uint32_t>& assignment,
                           const ModeTable& previous,
                           EmptyClusterPolicy policy, Rng& rng) {
  const uint32_t n = dataset.num_items();
  const uint32_t m = dataset.num_attributes();
  const uint32_t k = previous.num_clusters();
  NaiveModes out;
  out.sizes.assign(k, 0);
  for (const uint32_t cluster : assignment) ++out.sizes[cluster];
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    std::vector<uint32_t> row(previous.Mode(cluster).begin(),
                              previous.Mode(cluster).end());
    if (out.sizes[cluster] > 0) {
      for (uint32_t attribute = 0; attribute < m; ++attribute) {
        std::map<uint32_t, uint32_t> counts;
        for (uint32_t item = 0; item < n; ++item) {
          if (assignment[item] == cluster) {
            ++counts[dataset.Row(item)[attribute]];
          }
        }
        uint32_t best_count = 0;
        for (const auto& [code, count] : counts) {
          if (count > best_count) {
            best_count = count;
            row[attribute] = code;
          }
        }
      }
    }
    out.codes.insert(out.codes.end(), row.begin(), row.end());
  }
  if (policy == EmptyClusterPolicy::kReseedRandomItem) {
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      if (out.sizes[cluster] > 0) continue;
      const auto row = dataset.Row(static_cast<uint32_t>(rng.Below(n)));
      std::copy(row.begin(), row.end(),
                out.codes.begin() + static_cast<size_t>(cluster) * m);
    }
  }
  return out;
}

// Seeds every mode of a k-cluster table from item (cluster % n), runs
// RecomputeFromAssignment twice (on `assignment`, then on a rotation of
// it, so the second call starts from the first call's modes) and checks
// both against the naive update, under both empty-cluster policies.
void ExpectModesMatchOracle(const CategoricalDataset& dataset, uint32_t k,
                            const std::vector<uint32_t>& assignment) {
  const uint32_t n = dataset.num_items();
  const uint32_t m = dataset.num_attributes();
  std::vector<uint32_t> rotated(assignment.size());
  for (size_t i = 0; i < assignment.size(); ++i) {
    rotated[i] = (assignment[i] + 1) % k;
  }
  for (const EmptyClusterPolicy policy :
       {EmptyClusterPolicy::kKeepPreviousMode,
        EmptyClusterPolicy::kReseedRandomItem}) {
    ModeTable modes(k, m);
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      modes.SetModeFromItem(cluster, dataset, cluster % n);
    }
    Rng rng(7), oracle_rng(7);
    const std::vector<uint32_t>* inputs[] = {&assignment, &rotated};
    for (const std::vector<uint32_t>* input : inputs) {
      SCOPED_TRACE(testing::Message()
                   << "policy " << static_cast<int>(policy) << ", call "
                   << (input == &assignment ? 1 : 2));
      const NaiveModes expected =
          NaiveModeUpdate(dataset, *input, modes, policy, oracle_rng);
      modes.RecomputeFromAssignment(dataset, *input, policy, rng);
      ASSERT_EQ(modes.cluster_sizes(), expected.sizes);
      for (uint32_t cluster = 0; cluster < k; ++cluster) {
        const auto mode = modes.Mode(cluster);
        ASSERT_EQ(std::vector<uint32_t>(mode.begin(), mode.end()),
                  std::vector<uint32_t>(
                      expected.codes.begin() + size_t{cluster} * m,
                      expected.codes.begin() + size_t{cluster + 1} * m))
            << "cluster " << cluster;
      }
    }
  }
}

// n x m codes drawn from `domain` codes shared by every attribute (so one
// code can win in several attributes), offset by `base` within a code
// space of `num_codes`.
CategoricalDataset RandomCodes(uint32_t n, uint32_t m, uint32_t domain,
                               uint32_t base, uint32_t num_codes,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> codes(static_cast<size_t>(n) * m);
  for (auto& code : codes) {
    code = base + static_cast<uint32_t>(rng.Below(domain));
  }
  return CategoricalDataset::FromCodes(n, m, num_codes, std::move(codes))
      .ValueOrDie();
}

std::vector<uint32_t> RandomClusters(uint32_t n, uint32_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> assignment(n);
  for (auto& cluster : assignment) {
    cluster = static_cast<uint32_t>(rng.Below(k));
  }
  return assignment;
}

TEST(ModeOracleTest, RandomInputsWithSharedCodes) {
  // Three shared codes over ~6 members per cluster: ties are common.
  for (const uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto dataset = RandomCodes(60, 5, 3, 0, 3, seed);
    ExpectModesMatchOracle(dataset, 10, RandomClusters(60, 10, seed + 100));
  }
}

TEST(ModeOracleTest, ForcedTiesPickTheSmallestCode) {
  // Every cluster holds pairs of items whose codes tie 2:2 per attribute,
  // with the larger code seen first in id order.
  constexpr uint32_t kClusters = 5;
  constexpr uint32_t kAttributes = 4;
  std::vector<uint32_t> codes;
  std::vector<uint32_t> assignment;
  for (uint32_t item = 0; item < kClusters * 4; ++item) {
    const uint32_t cluster = item % kClusters;
    const bool high = (item / kClusters) % 2 == 0;
    for (uint32_t attribute = 0; attribute < kAttributes; ++attribute) {
      const uint32_t low_code = (cluster + attribute) % 7;
      codes.push_back(high ? low_code + 3 : low_code);
    }
    assignment.push_back(cluster);
  }
  const auto dataset =
      CategoricalDataset::FromCodes(kClusters * 4, kAttributes, 10, codes)
          .ValueOrDie();
  ExpectModesMatchOracle(dataset, kClusters, assignment);
  ModeTable modes(kClusters, kAttributes);
  Rng rng(1);
  modes.RecomputeFromAssignment(dataset, assignment,
                                EmptyClusterPolicy::kKeepPreviousMode, rng);
  for (uint32_t cluster = 0; cluster < kClusters; ++cluster) {
    for (uint32_t attribute = 0; attribute < kAttributes; ++attribute) {
      EXPECT_EQ(modes.Mode(cluster)[attribute], (cluster + attribute) % 7);
    }
  }
}

TEST(ModeOracleTest, CodeSpaceFarLargerThanCodesUsed) {
  const auto dataset = RandomCodes(80, 6, 5, 900000, 1u << 20, 11);
  ExpectModesMatchOracle(dataset, 8, RandomClusters(80, 8, 12));
}

TEST(ModeOracleTest, OneCluster) {
  const auto dataset = RandomCodes(50, 4, 4, 0, 4, 13);
  ExpectModesMatchOracle(dataset, 1, std::vector<uint32_t>(50, 0));
}

TEST(ModeOracleTest, OneClusterPerItem) {
  constexpr uint32_t kItems = 30;
  const auto dataset = RandomCodes(kItems, 4, 6, 0, 6, 15);
  std::vector<uint32_t> assignment(kItems);
  for (uint32_t item = 0; item < kItems; ++item) {
    assignment[item] = kItems - 1 - item;
  }
  ExpectModesMatchOracle(dataset, kItems, assignment);
}

TEST(ModeOracleTest, EmptyClusters) {
  // 12 clusters, only the even ones used.
  const auto dataset = RandomCodes(40, 5, 4, 0, 4, 17);
  std::vector<uint32_t> assignment = RandomClusters(40, 6, 18);
  for (auto& cluster : assignment) cluster *= 2;
  ExpectModesMatchOracle(dataset, 12, assignment);
}

// ------------------------------------------------ exhaustive-argmin oracle --

// The attribute-major copy holds exactly the row-major table, and zeros
// in its padding columns.
void ExpectAttributeMajorMatches(const ModeTable& modes) {
  const uint32_t k = modes.num_clusters();
  const uint32_t stride = modes.stride();
  const auto copy = modes.attribute_major();
  ASSERT_GE(stride, k);
  ASSERT_EQ(stride % simd::kScanLanes, 0u);
  ASSERT_EQ(copy.size(), size_t{modes.num_attributes()} * stride);
  for (uint32_t j = 0; j < modes.num_attributes(); ++j) {
    for (uint32_t c = 0; c < stride; ++c) {
      ASSERT_EQ(copy[size_t{j} * stride + c], c < k ? modes.Mode(c)[j] : 0u)
          << "attribute " << j << ", cluster " << c;
    }
  }
}

void ExpectAttributeMajorMatches(const CentroidTable& centroids) {
  const uint32_t k = centroids.num_clusters();
  const uint32_t stride = centroids.stride();
  const auto copy = centroids.attribute_major();
  ASSERT_GE(stride, k);
  ASSERT_EQ(stride % simd::kScanLanes, 0u);
  ASSERT_EQ(copy.size(), size_t{centroids.dimensions()} * stride);
  for (uint32_t j = 0; j < centroids.dimensions(); ++j) {
    for (uint32_t c = 0; c < stride; ++c) {
      const double expected = c < k ? centroids.Centroid(c)[j] : 0.0;
      ASSERT_EQ(std::memcmp(&copy[size_t{j} * stride + c], &expected,
                            sizeof expected),
                0)
          << "dimension " << j << ", cluster " << c;
    }
  }
}

void ExpectAttributeMajorMatches(
    const MixedClusteringTraits::Centroids& prototypes) {
  ExpectAttributeMajorMatches(prototypes.modes);
  ExpectAttributeMajorMatches(prototypes.centroids);
}

// Per family: random items over a 3-value domain (so distances tie
// often), widths that are no multiple of any kernel block, and options.
struct CategoricalFamily {
  using Traits = CategoricalClusteringTraits;
  static CategoricalDataset Data(uint32_t n, uint64_t seed) {
    return RandomCodes(n, 9, 3, 0, 3, seed);
  }
  static Traits::Options Options(uint32_t k) {
    Traits::Options options;
    options.num_clusters = k;
    return options;
  }
};

NumericDataset SmallIntegerValues(uint32_t n, uint32_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(n) * d);
  for (auto& value : values) value = static_cast<double>(rng.Below(3));
  return NumericDataset::FromValues(n, d, std::move(values)).ValueOrDie();
}

struct NumericFamily {
  using Traits = NumericClusteringTraits;
  static NumericDataset Data(uint32_t n, uint64_t seed) {
    return SmallIntegerValues(n, 9, seed);
  }
  static Traits::Options Options(uint32_t k) {
    Traits::Options options;
    options.num_clusters = k;
    return options;
  }
};

struct MixedFamily {
  using Traits = MixedClusteringTraits;
  static MixedDataset Data(uint32_t n, uint64_t seed) {
    return MixedDataset::Combine(RandomCodes(n, 5, 3, 0, 3, seed),
                                 SmallIntegerValues(n, 3, seed + 1))
        .ValueOrDie();
  }
  static Traits::Options Options(uint32_t k) {
    Traits::Options options;
    options.num_clusters = k;
    options.gamma = 0.5;
    return options;
  }
};

// The naive exhaustive argmin: one full per-pair distance per cluster,
// the seed cluster first, then ascending ids, strict improvement only.
template <typename Traits>
uint32_t NaiveArgmin(const typename Traits::Dataset& dataset,
                     const typename Traits::Centroids& centroids,
                     const typename Traits::Options& options, uint32_t item,
                     uint32_t seed_cluster) {
  const auto distance = [&](uint32_t cluster) {
    return Traits::template ComputeDistance<false>(
        dataset, centroids, options, item, cluster, Traits::kInfiniteDistance);
  };
  uint32_t best_cluster = seed_cluster;
  auto best_distance = distance(seed_cluster);
  for (uint32_t cluster = 0; cluster < options.num_clusters; ++cluster) {
    if (cluster == seed_cluster) continue;
    const auto d = distance(cluster);
    if (d < best_distance) {
      best_distance = d;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

// For every item: the scan's row equals the per-pair distances bit for
// bit, and BestClusterExhaustive equals the naive argmin from the seeds
// 0, k / 2 and k - 1. One scratch serves every call, as in the engine.
template <typename Traits>
void ExpectArgminMatchesNaive(const typename Traits::Dataset& dataset,
                              const typename Traits::Centroids& centroids,
                              const typename Traits::Options& options) {
  const uint32_t k = options.num_clusters;
  DistanceScratch scratch;
  for (uint32_t item = 0; item < dataset.num_items(); ++item) {
    const auto row = Traits::ScanDistances(dataset, centroids, options, item,
                                           scratch);
    ASSERT_EQ(row.size(), size_t{k});
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      const auto expected = Traits::template ComputeDistance<false>(
          dataset, centroids, options, item, cluster,
          Traits::kInfiniteDistance);
      ASSERT_EQ(std::memcmp(&row[cluster], &expected, sizeof expected), 0)
          << "item " << item << ", cluster " << cluster;
    }
    for (const uint32_t seed : {0u, k / 2, k - 1}) {
      ASSERT_EQ(BestClusterExhaustive<Traits>(dataset, centroids, options,
                                              item, seed, scratch),
                NaiveArgmin<Traits>(dataset, centroids, options, item, seed))
          << "item " << item << ", seed " << seed;
    }
  }
}

template <typename Family>
class ExhaustiveArgminOracleTest : public testing::Test {};
using Families = testing::Types<CategoricalFamily, NumericFamily, MixedFamily>;
TYPED_TEST_SUITE(ExhaustiveArgminOracleTest, Families);

TYPED_TEST(ExhaustiveArgminOracleTest, SeededAndUpdatedCentroids) {
  using Traits = typename TypeParam::Traits;
  const auto dataset = TypeParam::Data(70, 21);
  // k = 1, k below, at and above a 16-lane block, and k = n.
  for (const uint32_t k : {1u, 7u, 16u, 17u, 33u, 70u}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    const auto options = TypeParam::Options(k);
    auto centroids = Traits::MakeCentroids(dataset, options);
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      Traits::SeedCentroid(centroids, cluster, dataset, (cluster * 3) % 70);
    }
    ExpectAttributeMajorMatches(centroids);
    ExpectArgminMatchesNaive<Traits>(dataset, centroids, options);
    Rng rng(5);
    Traits::UpdateCentroids(dataset, centroids, RandomClusters(70, k, k),
                            options, rng);
    ExpectAttributeMajorMatches(centroids);
    ExpectArgminMatchesNaive<Traits>(dataset, centroids, options);
  }
}

TYPED_TEST(ExhaustiveArgminOracleTest, DuplicateCentroidsTieSeedThenLowestId) {
  using Traits = typename TypeParam::Traits;
  const auto dataset = TypeParam::Data(40, 23);
  constexpr uint32_t kClusters = 17;
  const auto options = TypeParam::Options(kClusters);
  auto centroids = Traits::MakeCentroids(dataset, options);
  // Clusters c and c + 3 are copies of item c % 3: every item that is one
  // of those three items has an exact distance-0 tie across six clusters.
  for (uint32_t cluster = 0; cluster < kClusters; ++cluster) {
    Traits::SeedCentroid(centroids, cluster, dataset, cluster % 3);
  }
  ExpectAttributeMajorMatches(centroids);
  ExpectArgminMatchesNaive<Traits>(dataset, centroids, options);
  DistanceScratch scratch;
  // Item 1 is at distance 0 from clusters 1, 4, 7, 10, 13, 16.
  EXPECT_EQ(BestClusterExhaustive<Traits>(dataset, centroids, options, 1, 0,
                                          scratch),
            1u);
  EXPECT_EQ(BestClusterExhaustive<Traits>(dataset, centroids, options, 1, 10,
                                          scratch),
            10u);
  EXPECT_EQ(BestClusterExhaustive<Traits>(dataset, centroids, options, 1, 16,
                                          scratch),
            16u);
}

TYPED_TEST(ExhaustiveArgminOracleTest, EmptyClusterPoliciesKeepTheCopyInSync) {
  using Traits = typename TypeParam::Traits;
  const auto dataset = TypeParam::Data(50, 25);
  constexpr uint32_t kClusters = 19;
  for (const EmptyClusterPolicy policy :
       {EmptyClusterPolicy::kKeepPreviousMode,
        EmptyClusterPolicy::kReseedRandomItem}) {
    SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy));
    auto options = TypeParam::Options(kClusters);
    options.empty_cluster_policy = policy;
    auto centroids = Traits::MakeCentroids(dataset, options);
    for (uint32_t cluster = 0; cluster < kClusters; ++cluster) {
      Traits::SeedCentroid(centroids, cluster, dataset, cluster);
    }
    // Only the even clusters get members; the odd ones are kept or
    // reseeded from a random item.
    std::vector<uint32_t> assignment = RandomClusters(50, 10, 27);
    for (auto& cluster : assignment) cluster *= 2;
    Rng rng(29);
    for (int round = 0; round < 2; ++round) {
      Traits::UpdateCentroids(dataset, centroids, assignment, options, rng);
      ExpectAttributeMajorMatches(centroids);
      ExpectArgminMatchesNaive<Traits>(dataset, centroids, options);
      std::rotate(assignment.begin(), assignment.begin() + 7,
                  assignment.end());
    }
  }
}

// The argmin rule stated as the sequential loop it replaces: the seed
// first, then every cluster in ascending id, strict improvement only.
template <typename DistanceType>
uint32_t SequentialArgmin(const std::vector<DistanceType>& row,
                          uint32_t seed_cluster) {
  uint32_t best_cluster = seed_cluster;
  DistanceType best_distance = row[seed_cluster];
  for (uint32_t cluster = 0; cluster < row.size(); ++cluster) {
    if (row[cluster] < best_distance) {
      best_distance = row[cluster];
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

// ArgminFromSeed on crafted rows, every seed: ties keep the seed, then the
// first position; for floating-point rows a NaN seed wins, any other NaN
// never does, and +0 / -0 tie (so the first of them wins). Random rows of
// every length up to 37 cover each remainder of the unrolled min pass.
TYPED_TEST(ExhaustiveArgminOracleTest, ArgminFromSeedRuleOnCraftedRows) {
  using DistanceType = typename TypeParam::Traits::DistanceType;
  std::vector<std::vector<DistanceType>> rows = {
      {3, 1, 2, 1, 5}, {7}, {4, 4, 4, 4, 4, 4}, {9, 8, 7, 6, 5, 5, 6, 5, 9}};
  std::vector<DistanceType> values = {0, 1, 2, 3};
  if constexpr (std::is_floating_point_v<DistanceType>) {
    constexpr DistanceType kNaN = std::numeric_limits<DistanceType>::quiet_NaN();
    constexpr DistanceType kInf = std::numeric_limits<DistanceType>::infinity();
    rows.push_back({1, kNaN, 0});               // NaN seed 1 wins
    rows.push_back({kNaN, 5, kNaN, 2, kNaN});   // other NaNs never win
    rows.push_back({5, kNaN});
    rows.push_back({kNaN, kNaN, kNaN});
    rows.push_back({1, 0.0, -0.0, 0.0});        // first of the zeros
    rows.push_back({1, -0.0, 0.0, -0.0, 1});
    rows.push_back({kInf, kInf, kNaN, kInf});
    rows.push_back({2, 2, 2, 2, 2, 2, 2, 2, 1, -0.0, 0.0});
    values = {0.0, -0.0, 1, 2, kInf, kNaN};
  }
  Rng rng(31);
  for (uint32_t length = 1; length <= 37; ++length) {
    for (int draw = 0; draw < 4; ++draw) {
      std::vector<DistanceType> row(length);
      for (auto& value : row) value = values[rng.Below(values.size())];
      rows.push_back(std::move(row));
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<DistanceType>& row = rows[r];
    for (uint32_t seed = 0; seed < row.size(); ++seed) {
      ASSERT_EQ(ArgminFromSeed<DistanceType>(row, seed),
                SequentialArgmin(row, seed))
          << "row " << r << ", seed " << seed;
    }
  }
  if constexpr (std::is_floating_point_v<DistanceType>) {
    EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[4], 1), 1u);
    EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[5], 1), 3u);
    EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[8], 0), 1u);
    EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[8], 2), 2u);
    EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[9], 0), 1u);
  }
  EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[0], 3), 3u);
  EXPECT_EQ(ArgminFromSeed<DistanceType>(rows[0], 0), 1u);
}

TEST(AttributeMajorCopyTest, DirectSettersAndCopies) {
  ModeTable modes(18, 3);
  modes.SetModeCode(17, 2, 9);
  modes.SetModeCode(0, 0, 4);
  ExpectAttributeMajorMatches(modes);
  const ModeTable copied = modes;
  ExpectAttributeMajorMatches(copied);

  CentroidTable centroids(18, 5);
  const std::vector<double> values = {1.5, -2.0, 0.25, 8.0, -0.0};
  centroids.SetCentroid(17, values);
  centroids.SetCentroid(3, values);
  ExpectAttributeMajorMatches(centroids);
  const CentroidTable moved = std::move(centroids);
  ExpectAttributeMajorMatches(moved);
}

TEST(AttributeMajorCopyTest, StreamingModeUpdatesKeepTheCopyInSync) {
  ConjunctiveDataOptions data_options;
  data_options.num_items = 1200;
  data_options.num_attributes = 12;
  data_options.num_clusters = 10;
  data_options.domain_size = 40;
  data_options.seed = 31;
  const auto all = GenerateConjunctiveRuleData(data_options).ValueOrDie();
  std::vector<uint32_t> warmup_codes(all.codes().begin(),
                                     all.codes().begin() + 300 * 12);
  const auto warmup =
      CategoricalDataset::FromCodes(300, 12, all.num_codes(),
                                    std::move(warmup_codes))
          .ValueOrDie();
  StreamingMHKModesOptions options;
  options.bootstrap.engine.num_clusters = 10;
  options.bootstrap.engine.seed = 33;
  options.bootstrap.index.banding = {12, 3};
  auto stream = StreamingMHKModes::Bootstrap(warmup, options).ValueOrDie();
  ExpectAttributeMajorMatches(stream.modes());
  const auto before = stream.modes().attribute_major();
  const std::vector<uint32_t> bootstrap_modes(before.begin(), before.end());
  for (uint32_t item = 300; item < 1200; ++item) {
    ASSERT_TRUE(stream.Ingest(all.Row(item)).ok());
  }
  const auto after = stream.modes().attribute_major();
  // The ingests moved some mode component (SetModeCode ran), and the
  // copy followed it.
  EXPECT_NE(std::vector<uint32_t>(after.begin(), after.end()),
            bootstrap_modes);
  ExpectAttributeMajorMatches(stream.modes());
}

// ----------------------------------------------------------- initializers --

CategoricalDataset InitDataset() {
  ConjunctiveDataOptions options;
  options.num_items = 200;
  options.num_attributes = 8;
  options.num_clusters = 10;
  options.domain_size = 6;
  options.seed = 3;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

TEST(InitializerTest, RandomSeedsDistinctAndInRange) {
  const auto dataset = InitDataset();
  Rng rng(9);
  const auto seeds = SelectRandomSeeds(dataset, 20, rng).ValueOrDie();
  EXPECT_EQ(seeds.size(), 20u);
  std::set<uint32_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const uint32_t seed : seeds) EXPECT_LT(seed, dataset.num_items());
}

TEST(InitializerTest, RejectsBadK) {
  const auto dataset = InitDataset();
  Rng rng(9);
  EXPECT_TRUE(SelectRandomSeeds(dataset, 0, rng).status().IsInvalidArgument());
  EXPECT_TRUE(SelectRandomSeeds(dataset, dataset.num_items() + 1, rng)
                  .status().IsInvalidArgument());
}

TEST(InitializerTest, HuangSeedsAreDistinctItems) {
  const auto dataset = InitDataset();
  Rng rng(9);
  const auto seeds = SelectHuangSeeds(dataset, 10, rng).ValueOrDie();
  EXPECT_EQ(seeds.size(), 10u);
  std::set<uint32_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(InitializerTest, CaoIsDeterministicAndSpreadsSeeds) {
  const auto dataset = InitDataset();
  Rng rng1(9), rng2(42);
  const auto a = SelectCaoSeeds(dataset, 8, rng1).ValueOrDie();
  const auto b = SelectCaoSeeds(dataset, 8, rng2).ValueOrDie();
  EXPECT_EQ(a, b);  // density-distance method ignores the RNG
  std::set<uint32_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 8u);
  // Consecutive Cao seeds must not be identical items.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(MismatchDistance(dataset.Row(a[i]), dataset.Row(a[0])), 0u);
  }
}

TEST(InitializerTest, DispatchMatchesDirectCalls) {
  const auto dataset = InitDataset();
  Rng rng1(5), rng2(5);
  EXPECT_EQ(SelectSeeds(dataset, 6, InitMethod::kRandom, rng1).ValueOrDie(),
            SelectRandomSeeds(dataset, 6, rng2).ValueOrDie());
}

// ----------------------------------------------------------------- kmodes --

CategoricalDataset EasyClusters(uint32_t per_cluster = 20) {
  // 4 well-separated clusters over 6 attributes: rule fixes everything.
  ConjunctiveDataOptions options;
  options.num_items = per_cluster * 4;
  options.num_attributes = 6;
  options.num_clusters = 4;
  options.domain_size = 50;
  options.min_rule_fraction = 1.0;  // all attributes fixed: zero noise
  options.max_rule_fraction = 1.0;
  options.seed = 77;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

TEST(KModesTest, RecoversWellSeparatedClusters) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  // Items are dealt to clusters round-robin, so 0..3 cover all clusters;
  // with fully-fixed rules random seeds could start all in one cluster.
  options.initial_seeds = {0, 1, 2, 3};
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 0.0);  // pure clusters have zero mismatch
  // All items with equal labels share a cluster.
  for (uint32_t i = 0; i < dataset.num_items(); ++i) {
    for (uint32_t j = i + 1; j < dataset.num_items(); ++j) {
      if (dataset.labels()[i] == dataset.labels()[j]) {
        EXPECT_EQ(result.assignment[i], result.assignment[j]);
      }
    }
  }
}

TEST(KModesTest, CostIsMonotoneNonIncreasing) {
  ConjunctiveDataOptions data;
  data.num_items = 300;
  data.num_attributes = 12;
  data.num_clusters = 15;
  data.domain_size = 8;  // noisy, overlapping clusters
  data.seed = 13;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 15;
  options.seed = 21;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  ASSERT_GE(result.iterations.size(), 1u);
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost, result.iterations[i - 1].cost)
        << "iteration " << i;
  }
}

TEST(KModesTest, ConvergedRunEndsWithZeroMoves) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.seed = 5;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.iterations.back().moves, 0u);
}

TEST(KModesTest, RespectsMaxIterations) {
  ConjunctiveDataOptions data;
  data.num_items = 400;
  data.num_attributes = 10;
  data.num_clusters = 40;
  data.domain_size = 4;  // heavy overlap: slow convergence
  data.seed = 17;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 40;
  options.max_iterations = 2;
  options.seed = 3;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_LE(result.iterations.size(), 2u);
}

TEST(KModesTest, ExplicitSeedsAreUsed) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.initial_seeds = {0, 1, 2, 3};  // one item of each cluster
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 0.0);
}

TEST(KModesTest, BaselineShortlistEqualsK) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.seed = 5;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  for (const auto& iteration : result.iterations) {
    EXPECT_DOUBLE_EQ(iteration.mean_shortlist, 4.0);
  }
}

TEST(KModesTest, ValidatesOptions) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.num_clusters = dataset.num_items() + 1;
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.num_clusters = 4;
  options.initial_seeds = {0, 1};  // wrong arity
  EXPECT_TRUE(RunKModes(dataset, options).status().IsInvalidArgument());
  options.initial_seeds = {0, 1, 2, 1000000};  // out of range
  EXPECT_TRUE(RunKModes(dataset, options).status().IsOutOfRange());
}

TEST(KModesTest, KEqualsNGivesZeroCost) {
  const auto dataset = EasyClusters(/*per_cluster=*/3);
  EngineOptions options;
  options.num_clusters = dataset.num_items();
  std::vector<uint32_t> seeds(dataset.num_items());
  for (uint32_t i = 0; i < dataset.num_items(); ++i) seeds[i] = i;
  options.initial_seeds = seeds;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(result.final_cost, 0.0);
}

TEST(KModesTest, KEqualsOnePutsEverythingTogether) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 1;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  for (const uint32_t cluster : result.assignment) EXPECT_EQ(cluster, 0u);
}

// The switch selects the shortlist passes' per-pair kernel (exhaustive
// passes always scan all k full distances), so this runs MH-K-Modes, with
// m = 70 so the bounded kernel can stop after its first 32-code block.
TEST(KModesTest, EarlyExitMatchesExactKernel) {
  ConjunctiveDataOptions data;
  data.num_items = 250;
  data.num_attributes = 70;
  data.num_clusters = 12;
  data.domain_size = 6;
  data.seed = 29;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 12;
  options.seed = 31;
  ShortlistIndexOptions index;
  index.banding = {8, 2};
  const auto run = [&](bool early_exit) {
    options.early_exit = early_exit;
    ClusterShortlistProvider provider(index, options.num_clusters);
    return RunEngine(dataset, options, provider).ValueOrDie();
  };
  const auto fast = run(true);
  const auto slow = run(false);
  EXPECT_EQ(fast.assignment, slow.assignment);
  EXPECT_EQ(fast.final_cost, slow.final_cost);
  EXPECT_EQ(fast.iterations.size(), slow.iterations.size());
  EXPECT_EQ(fast.exact_distances_evaluated, slow.exact_distances_evaluated);
}

TEST(KModesTest, DeterministicPerSeed) {
  const auto dataset = EasyClusters();
  EngineOptions options;
  options.num_clusters = 4;
  options.seed = 11;
  const auto a = RunKModes(dataset, options).ValueOrDie();
  const auto b = RunKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.final_cost, b.final_cost);
}

TEST(KModesTest, EmptyDatasetRejected) {
  auto dataset = CategoricalDataset::FromCodes(0, 1, 1, {});
  ASSERT_TRUE(dataset.ok());
  EngineOptions options;
  options.num_clusters = 1;
  EXPECT_TRUE(RunKModes(*dataset, options).status().IsInvalidArgument());
}

// ----------------------------------------------------------------- kmeans --

NumericDataset EasyBlobs() {
  GaussianMixtureOptions options;
  options.num_items = 300;
  options.dimensions = 4;
  options.num_clusters = 3;
  options.center_box = 50.0;
  options.stddev = 0.5;  // tiny spread: trivially separable
  options.seed = 19;
  return GenerateGaussianMixture(options).ValueOrDie();
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  const auto dataset = EasyBlobs();
  KMeansOptions options;
  options.num_clusters = 3;
  options.initial_seeds = {0, 1, 2};  // one per blob (round-robin labels)
  const auto result = RunKMeans(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  for (uint32_t i = 0; i < dataset.num_items(); ++i) {
    for (uint32_t j = i + 1; j < dataset.num_items(); ++j) {
      if (dataset.labels()[i] == dataset.labels()[j]) {
        EXPECT_EQ(result.assignment[i], result.assignment[j]);
      }
    }
  }
}

TEST(KMeansTest, InertiaMonotoneNonIncreasing) {
  GaussianMixtureOptions data;
  data.num_items = 500;
  data.dimensions = 6;
  data.num_clusters = 10;
  data.center_box = 3.0;  // overlapping blobs
  data.stddev = 2.0;
  data.seed = 23;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  KMeansOptions options;
  options.num_clusters = 10;
  options.seed = 7;
  const auto result = RunKMeans(dataset, options).ValueOrDie();
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost, result.iterations[i - 1].cost + 1e-9);
  }
}

// As for K-Modes: LSH-K-Means, with d = 16 so the bounded kernel can stop
// after its first 8-value block.
TEST(KMeansTest, EarlyExitMatchesExactKernel) {
  GaussianMixtureOptions data;
  data.num_items = 400;
  data.dimensions = 16;
  data.num_clusters = 12;
  data.seed = 19;
  const auto dataset = GenerateGaussianMixture(data).ValueOrDie();

  KMeansOptions options;
  options.num_clusters = 12;
  options.seed = 13;
  SimHashIndexOptions index;
  index.banding = {8, 4};
  const auto run = [&](bool early_exit) {
    options.early_exit = early_exit;
    SimHashShortlistProvider provider(index, options.num_clusters);
    return RunKMeansEngine(dataset, options, provider).ValueOrDie();
  };
  const auto fast = run(true);
  const auto slow = run(false);
  EXPECT_EQ(fast.assignment, slow.assignment);
  EXPECT_EQ(fast.final_cost, slow.final_cost);
  EXPECT_EQ(fast.iterations.size(), slow.iterations.size());
}

TEST(KMeansTest, ValidatesOptions) {
  const auto dataset = EasyBlobs();
  KMeansOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunKMeans(dataset, options).status().IsInvalidArgument());
}

TEST(MiniBatchKMeansTest, ConvergesToReasonableInertia) {
  const auto dataset = EasyBlobs();

  KMeansOptions exact_options;
  exact_options.num_clusters = 3;
  exact_options.initial_seeds = {0, 1, 2};
  const auto exact = RunKMeans(dataset, exact_options).ValueOrDie();

  MiniBatchKMeansOptions options;
  options.num_clusters = 3;
  options.batch_size = 64;
  options.num_batches = 200;
  options.seed = 3;
  const auto result = RunMiniBatchKMeans(dataset, options).ValueOrDie();
  EXPECT_EQ(result.assignment.size(), dataset.num_items());
  // Mini-batch pays an inertia penalty but must stay in the ballpark.
  EXPECT_LT(result.final_cost, std::max(exact.final_cost * 3.0,
                                        exact.final_cost + 100.0));
}

TEST(MiniBatchKMeansTest, ValidatesOptions) {
  const auto dataset = EasyBlobs();
  MiniBatchKMeansOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunMiniBatchKMeans(dataset, options).status()
                  .IsInvalidArgument());
  options.num_clusters = 3;
  options.batch_size = 0;
  EXPECT_TRUE(RunMiniBatchKMeans(dataset, options).status()
                  .IsInvalidArgument());
}

TEST(NumericDatasetTest, FromValuesValidates) {
  EXPECT_TRUE(NumericDataset::FromValues(2, 3, {1.0, 2.0})
                  .status().IsInvalidArgument());
  EXPECT_TRUE(NumericDataset::FromValues(2, 1, {1.0, 2.0}, {0})
                  .status().IsInvalidArgument());
  auto ok = NumericDataset::FromValues(2, 1, {1.0, 2.0}, {0, 1});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->Row(1)[0], 2.0);
}

}  // namespace
}  // namespace lshclust
