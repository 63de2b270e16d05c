// Tests for mixed-data clustering: MixedDataset, the mixed generator,
// K-Prototypes, and LSH-K-Prototypes (the paper's "combinations of both"
// future work).

#include <gtest/gtest.h>

#include "core/lsh_kprototypes.h"
#include "clustering/kprototypes.h"
#include "datagen/mixed_generator.h"
#include "metrics/metrics.h"

namespace lshclust {
namespace {

MixedDataset MakeMixed(uint32_t n, uint32_t k, uint64_t seed,
                       double min_rule = 0.6, double max_rule = 0.9,
                       double center_box = 30.0, double stddev = 1.0) {
  MixedDataOptions options;
  options.categorical.num_items = n;
  options.categorical.num_attributes = 12;
  options.categorical.num_clusters = k;
  options.categorical.domain_size = 500;
  options.categorical.min_rule_fraction = min_rule;
  options.categorical.max_rule_fraction = max_rule;
  options.categorical.seed = seed;
  options.numeric_dimensions = 8;
  options.center_box = center_box;
  options.stddev = stddev;
  return GenerateMixedData(options).ValueOrDie();
}

// ------------------------------------------------------- mixed dataset --

TEST(MixedDatasetTest, CombineValidatesItemCounts) {
  auto categorical = CategoricalDataset::FromCodes(2, 1, 4, {0, 1});
  auto numeric = NumericDataset::FromValues(3, 1, {1.0, 2.0, 3.0});
  ASSERT_TRUE(categorical.ok());
  ASSERT_TRUE(numeric.ok());
  EXPECT_TRUE(MixedDataset::Combine(*categorical, *numeric)
                  .status().IsInvalidArgument());
}

TEST(MixedDatasetTest, GeneratorAlignsModalitiesAndLabels) {
  const auto dataset = MakeMixed(120, 6, 3);
  EXPECT_EQ(dataset.num_items(), 120u);
  EXPECT_EQ(dataset.num_categorical(), 12u);
  EXPECT_EQ(dataset.num_numeric(), 8u);
  ASSERT_TRUE(dataset.has_labels());
  // Both modalities deal items round-robin, so label = item % k.
  for (uint32_t item = 0; item < dataset.num_items(); ++item) {
    EXPECT_EQ(dataset.labels()[item], item % 6);
  }
}

// -------------------------------------------------------- k-prototypes --

TEST(KPrototypesTest, RecoversSeparatedMixedClusters) {
  const auto dataset = MakeMixed(200, 4, 5, 1.0, 1.0, 100.0, 0.2);
  KPrototypesOptions options;
  options.num_clusters = 4;
  options.gamma = 0.1;
  options.initial_seeds = {0, 1, 2, 3};
  const auto result = RunKPrototypes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  const double purity =
      ComputePurity(result.assignment, dataset.labels()).ValueOrDie();
  EXPECT_DOUBLE_EQ(purity, 1.0);
}

TEST(KPrototypesTest, CostMonotoneNonIncreasing) {
  const auto dataset = MakeMixed(300, 15, 7, 0.4, 0.7, 5.0, 2.0);  // noisy
  KPrototypesOptions options;
  options.num_clusters = 15;
  options.gamma = 0.5;
  options.seed = 9;
  const auto result = RunKPrototypes(dataset, options).ValueOrDie();
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost,
              result.iterations[i - 1].cost + 1e-9);
  }
}

TEST(KPrototypesTest, GammaZeroIgnoresNumericSide) {
  // With gamma = 0 the numeric part contributes nothing; items identical
  // categorically but far apart numerically must co-cluster.
  const auto dataset = MakeMixed(100, 5, 11, 1.0, 1.0, 100.0, 0.1);
  KPrototypesOptions options;
  options.num_clusters = 5;
  options.gamma = 0.0;
  options.initial_seeds = {0, 1, 2, 3, 4};
  const auto result = RunKPrototypes(dataset, options).ValueOrDie();
  const double purity =
      ComputePurity(result.assignment, dataset.labels()).ValueOrDie();
  EXPECT_DOUBLE_EQ(purity, 1.0);  // the categorical rules alone separate
}

TEST(KPrototypesTest, LargeGammaFollowsNumericSide) {
  // Categorical part pure noise (rules cover ~nothing... emulate with
  // tiny rule fraction), numeric well separated: large gamma must still
  // recover the blobs.
  MixedDataOptions options;
  options.categorical.num_items = 150;
  options.categorical.num_attributes = 8;
  options.categorical.num_clusters = 3;
  options.categorical.domain_size = 4;  // noisy categorical
  options.categorical.min_rule_fraction = 0.0;
  options.categorical.max_rule_fraction = 0.15;
  options.categorical.seed = 13;
  options.numeric_dimensions = 6;
  options.center_box = 60.0;
  options.stddev = 0.3;
  const auto dataset = GenerateMixedData(options).ValueOrDie();

  KPrototypesOptions clustering;
  clustering.num_clusters = 3;
  clustering.gamma = 100.0;
  clustering.initial_seeds = {0, 1, 2};
  const auto result = RunKPrototypes(dataset, clustering).ValueOrDie();
  const double purity =
      ComputePurity(result.assignment, dataset.labels()).ValueOrDie();
  EXPECT_GT(purity, 0.95);
}

TEST(KPrototypesTest, ValidatesOptions) {
  const auto dataset = MakeMixed(50, 5, 17);
  KPrototypesOptions options;
  options.num_clusters = 0;
  EXPECT_TRUE(RunKPrototypes(dataset, options).status().IsInvalidArgument());
  options.num_clusters = 5;
  options.gamma = -1.0;
  EXPECT_TRUE(RunKPrototypes(dataset, options).status().IsInvalidArgument());
  options.gamma = 1.0;
  options.initial_seeds = {1, 2};
  EXPECT_TRUE(RunKPrototypes(dataset, options).status().IsInvalidArgument());
}

// ---------------------------------------------------- LSH-K-Prototypes --

TEST(LshKPrototypesTest, MatchesBaselineOnSeparatedData) {
  const auto dataset = MakeMixed(240, 6, 19, 1.0, 1.0, 80.0, 0.3);
  KPrototypesOptions base;
  base.num_clusters = 6;
  base.gamma = 0.2;
  base.initial_seeds = {0, 1, 2, 3, 4, 5};

  const auto baseline = RunKPrototypes(dataset, base).ValueOrDie();

  LshKPrototypesOptions options;
  options.kprototypes = base;
  const auto accelerated = RunLshKPrototypes(dataset, options).ValueOrDie();

  EXPECT_EQ(baseline.assignment, accelerated.assignment);
  EXPECT_DOUBLE_EQ(baseline.final_cost, accelerated.final_cost);
}

TEST(LshKPrototypesTest, ShortlistsSmallerThanK) {
  const auto dataset = MakeMixed(600, 60, 23);
  LshKPrototypesOptions options;
  options.kprototypes.num_clusters = 60;
  options.kprototypes.gamma = 0.5;
  options.kprototypes.seed = 25;
  const auto result = RunLshKPrototypes(dataset, options).ValueOrDie();
  ASSERT_FALSE(result.iterations.empty());
  for (const auto& iteration : result.iterations) {
    EXPECT_GE(iteration.mean_shortlist, 1.0);
    EXPECT_LT(iteration.mean_shortlist, 60.0);
  }
}

TEST(LshKPrototypesTest, EitherModalityCanSupplyCandidates) {
  // Two items identical numerically but categorically disjoint must still
  // see each other's clusters (union of modalities).
  auto categorical = CategoricalDataset::FromCodes(
                         2, 2, 40, {1, 2, 21, 22})
                         .ValueOrDie();
  auto numeric =
      NumericDataset::FromValues(2, 3, {1.0, 2.0, 3.0, 1.0, 2.0, 3.0})
          .ValueOrDie();
  const auto dataset =
      MixedDataset::Combine(std::move(categorical), std::move(numeric))
          .ValueOrDie();

  MixedIndexOptions options;
  MixedShortlistProvider provider(options, 2);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  const std::vector<uint32_t> assignment{0, 1};
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  provider.GetCandidates(0, assignment, scratch, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), 1u),
            shortlist.end())
      << "numeric similarity failed to contribute candidates";
}

TEST(LshKPrototypesTest, CostMonotoneNonIncreasing) {
  const auto dataset = MakeMixed(400, 20, 29, 0.5, 0.8, 8.0, 1.5);
  LshKPrototypesOptions options;
  options.kprototypes.num_clusters = 20;
  options.kprototypes.gamma = 0.4;
  options.kprototypes.seed = 31;
  const auto result = RunLshKPrototypes(dataset, options).ValueOrDie();
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].cost,
              result.iterations[i - 1].cost + 1e-9);
  }
}

}  // namespace
}  // namespace lshclust
