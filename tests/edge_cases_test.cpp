// Edge-case and failure-injection tests across the stack: boundary
// dimensions, degenerate datasets, distance-kernel block boundaries,
// zero-iteration runs, empty-signature semantics, CRLF input, and other
// conditions production data will eventually produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "clustering/kmodes.h"
#include "core/canopy_shortlist_index.h"
#include "core/mh_kmodes.h"
#include "data/csv.h"
#include "datagen/conjunctive_generator.h"
#include "hashing/minhash.h"
#include "lsh/banded_index.h"

namespace lshclust {
namespace {

// ----------------------------------------- distance kernel boundaries --

TEST(EdgeCaseTest, KernelBlockBoundaryWidths) {
  // The bounded kernel processes 32-wide blocks; verify exactness at and
  // around every boundary the implementation has.
  Rng rng(1);
  for (const uint32_t m : {1u, 2u, 31u, 32u, 33u, 63u, 64u, 65u, 95u, 96u,
                           97u, 100u, 128u}) {
    std::vector<uint32_t> a(m), b(m);
    for (uint32_t j = 0; j < m; ++j) {
      a[j] = static_cast<uint32_t>(rng.Below(3));
      b[j] = rng.Bernoulli(0.5) ? a[j] : a[j] + 7;
    }
    const uint32_t exact = MismatchDistance(a, b);
    EXPECT_EQ(BoundedMismatchDistance(a.data(), b.data(), m, m + 1), exact)
        << "m=" << m;
    for (const uint32_t bound : {1u, exact, exact + 1, m + 5}) {
      if (bound == 0) continue;
      const uint32_t bounded =
          BoundedMismatchDistance(a.data(), b.data(), m, bound);
      if (exact < bound) {
        EXPECT_EQ(bounded, exact) << "m=" << m << " bound=" << bound;
      } else {
        EXPECT_GE(bounded, bound) << "m=" << m << " bound=" << bound;
      }
    }
  }
}

// ----------------------------------------------- degenerate clusterings --

TEST(EdgeCaseTest, SingleAttributeDataset) {
  auto dataset = CategoricalDataset::FromCodes(
                     6, 1, 3, {0, 0, 1, 1, 2, 2}, {0, 0, 1, 1, 2, 2})
                     .ValueOrDie();
  EngineOptions options;
  options.num_clusters = 3;
  options.initial_seeds = {0, 2, 4};
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 0.0);
}

TEST(EdgeCaseTest, AllItemsIdentical) {
  auto dataset = CategoricalDataset::FromCodes(
                     10, 4, 8, std::vector<uint32_t>(40, 5))
                     .ValueOrDie();
  EngineOptions options;
  options.num_clusters = 3;
  options.seed = 3;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.final_cost, 0.0);
  // Ties keep items where they start, but the first iteration must not
  // thrash: all items end in one cluster (the first one scanned wins the
  // strict-improvement test from identical seeds).
  const std::set<uint32_t> clusters(result.assignment.begin(),
                                    result.assignment.end());
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(EdgeCaseTest, ZeroIterationBudgetYieldsInitialAssignmentOnly) {
  ConjunctiveDataOptions data;
  data.num_items = 100;
  data.num_attributes = 8;
  data.num_clusters = 5;
  data.domain_size = 20;
  data.seed = 5;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();
  EngineOptions options;
  options.num_clusters = 5;
  options.max_iterations = 0;
  const auto result = RunKModes(dataset, options).ValueOrDie();
  EXPECT_TRUE(result.iterations.empty());
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.assignment.size(), 100u);  // initial pass still ran
  for (const uint32_t cluster : result.assignment) EXPECT_LT(cluster, 5u);
}

TEST(EdgeCaseTest, MHKModesWithMoreBandsThanNeeded) {
  // Banding wider than the item count still works (buckets mostly
  // singletons).
  ConjunctiveDataOptions data;
  data.num_items = 40;
  data.num_attributes = 8;
  data.num_clusters = 4;
  data.domain_size = 30;
  data.seed = 7;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();
  MHKModesOptions options;
  options.engine.num_clusters = 4;
  options.index.banding = {64, 1};
  const auto run = RunMHKModes(dataset, options).ValueOrDie();
  EXPECT_EQ(run.result.assignment.size(), 40u);
}

// --------------------------------------------- empty-signature semantics --

TEST(EdgeCaseTest, AllAbsentItemsCollideWithEachOtherOnly) {
  // Items with no present feature get the sentinel signature: they bucket
  // together (they are identical as sets) but never with non-empty items.
  CategoricalDatasetBuilder builder({"w1", "w2"});
  builder.MarkAbsentValue("0");
  ASSERT_TRUE(builder.AddRow(std::vector<std::string>{"0", "0"}).ok());
  ASSERT_TRUE(builder.AddRow(std::vector<std::string>{"0", "0"}).ok());
  ASSERT_TRUE(builder.AddRow(std::vector<std::string>{"1", "1"}).ok());
  const auto dataset = std::move(builder).Build();

  const BandingParams params{4, 2};
  const MinHasher hasher(params.num_hashes(), 3);
  std::vector<uint64_t> signatures(3 * params.num_hashes());
  std::vector<uint32_t> tokens;
  for (uint32_t item = 0; item < 3; ++item) {
    dataset.PresentTokens(item, &tokens);
    hasher.ComputeSignature(tokens,
                            signatures.data() + item * params.num_hashes());
  }
  const BandedIndex index(signatures, 3, params);
  std::set<uint32_t> candidates_of_empty;
  index.VisitCandidates(0, [&](uint32_t other) {
    candidates_of_empty.insert(other);
  });
  EXPECT_TRUE(candidates_of_empty.count(1));   // the other empty item
  EXPECT_FALSE(candidates_of_empty.count(2));  // never the non-empty one
}

TEST(EdgeCaseTest, MinHasherSingleTokenSet) {
  const MinHasher hasher(16, 9);
  const auto a = hasher.ComputeSignature(std::vector<uint32_t>{7});
  const auto b = hasher.ComputeSignature(std::vector<uint32_t>{7});
  const auto c = hasher.ComputeSignature(std::vector<uint32_t>{8});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (const uint64_t component : a) {
    EXPECT_NE(component, kEmptySetSignature);
  }
}

// --------------------------------------------------------- input formats --

TEST(EdgeCaseTest, CsvWithCrlfLineEndings) {
  const auto dataset =
      ParseCategoricalCsv("a,b,label\r\nx,y,0\r\nz,w,1\r\n").ValueOrDie();
  EXPECT_EQ(dataset.num_items(), 2u);
  EXPECT_EQ(dataset.ValueToString(0, 0), "a=x");
  EXPECT_EQ(dataset.labels(), (std::vector<uint32_t>{0, 1}));
}

TEST(EdgeCaseTest, CsvSingleColumn) {
  const auto dataset = ParseCategoricalCsv("only\nv1\nv2\nv1\n").ValueOrDie();
  EXPECT_EQ(dataset.num_items(), 3u);
  EXPECT_EQ(dataset.num_attributes(), 1u);
  EXPECT_EQ(dataset.Row(0)[0], dataset.Row(2)[0]);
}

// ------------------------------------------------------ status plumbing --

TEST(EdgeCaseTest, StatusSelfAssignment) {
  Status status = Status::IOError("original");
  status = *&status;  // self-assignment must be harmless
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(status.message(), "original");
}

TEST(EdgeCaseTest, ResultOfStatusLikePayload) {
  // A Result can carry any movable payload, including vectors of results.
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

// ----------------------------------------------------- shortlist corners --

TEST(EdgeCaseTest, ProviderSeesInPlaceAssignmentUpdatesWithinAPass) {
  // The engine updates `assignment` in place, so an item later in the scan
  // dereferences the *new* cluster of an item moved earlier in the same
  // pass (exactly the paper's "update the cluster reference" semantics).
  auto dataset = CategoricalDataset::FromCodes(
                     3, 2, 30,
                     {1, 2,     // item 0
                      1, 2,     // item 1 (identical to 0)
                      10, 11})  // item 2 (far away)
                     .ValueOrDie();
  ShortlistIndexOptions options;
  options.banding = {4, 2};
  ClusterShortlistProvider provider(options, 3);
  ASSERT_TRUE(provider.Prepare(dataset).ok());

  std::vector<uint32_t> assignment{0, 1, 2};
  std::vector<uint32_t> shortlist;
  auto scratch = provider.MakeScratch();
  provider.GetCandidates(1, assignment, scratch, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), 0u),
            shortlist.end());
  assignment[0] = 2;  // item 0 moves
  provider.GetCandidates(1, assignment, scratch, &shortlist);
  EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), 2u),
            shortlist.end());
  EXPECT_EQ(std::count(shortlist.begin(), shortlist.end(), 0u), 0);
}

// A provider that returns only the current cluster (namespace scope:
// local classes cannot carry the static kExhaustive member in C++20).
struct FrozenProvider {
  static constexpr bool kExhaustive = false;
  struct Scratch {};
  Scratch MakeScratch() const { return {}; }
  Status Prepare(const CategoricalDataset&, ThreadPool*,
                 const std::function<bool()>*) {
    return Status::OK();
  }
  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     Scratch&, std::vector<uint32_t>* out) const {
    out->assign(1, assignment[item]);
  }
};

TEST(EdgeCaseTest, EngineSurvivesProviderReturningOnlyCurrentCluster) {
  // Freezing candidates at the current cluster means the engine must
  // converge immediately without errors.
  ConjunctiveDataOptions data;
  data.num_items = 60;
  data.num_attributes = 6;
  data.num_clusters = 4;
  data.domain_size = 10;
  data.seed = 9;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();
  EngineOptions options;
  options.num_clusters = 4;
  FrozenProvider provider;
  const auto result = RunEngine(dataset, options, provider).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations.size(), 1u);  // zero moves immediately
  EXPECT_DOUBLE_EQ(result.iterations[0].mean_shortlist, 1.0);
}

// ----------------------------------------------- cancellable Prepare --

TEST(EdgeCaseTest, CancelledPrepareLeavesProviderIndexless) {
  ConjunctiveDataOptions data;
  data.num_items = 600;  // > 2 signing batches of kSignatureChunkSize
  data.num_attributes = 8;
  data.num_clusters = 4;
  data.domain_size = 20;
  data.seed = 11;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();
  ShortlistIndexOptions options;
  options.banding = {4, 2};

  // Cancel at the very first signing batch: nothing was built, nothing
  // is counted.
  {
    ClusterShortlistProvider provider(options, 4);
    const std::function<bool()> now = [] { return true; };
    const Status status = provider.Prepare(dataset, nullptr, &now);
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    EXPECT_EQ(provider.index(), nullptr);
    EXPECT_EQ(provider.dataset_sign_passes(), 0u);

    // The provider is reusable: a later un-cancelled Prepare succeeds.
    ASSERT_TRUE(provider.Prepare(dataset).ok());
    EXPECT_NE(provider.index(), nullptr);
    EXPECT_EQ(provider.dataset_sign_passes(), 1u);
  }

  // Cancel *between* the signing and index-build phases (the hook first
  // answers true after every signing batch passed): the signing pass
  // completed — and is counted — but no index may be installed from it.
  {
    ClusterShortlistProvider provider(options, 4);
    const int signing_batches = static_cast<int>(
        (data.num_items + kSignatureChunkSize - 1) / kSignatureChunkSize);
    int polls = 0;
    const std::function<bool()> after_signing = [&] {
      return ++polls > signing_batches;
    };
    const Status status = provider.Prepare(dataset, nullptr, &after_signing);
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    EXPECT_EQ(provider.index(), nullptr);
    EXPECT_EQ(provider.dataset_sign_passes(), 1u);
  }

  // A cancelled re-Prepare drops the previously installed index instead
  // of leaving a stale one behind.
  {
    ClusterShortlistProvider provider(options, 4);
    ASSERT_TRUE(provider.Prepare(dataset).ok());
    ASSERT_NE(provider.index(), nullptr);
    const std::function<bool()> now = [] { return true; };
    EXPECT_EQ(provider.Prepare(dataset, nullptr, &now).code(),
              StatusCode::kCancelled);
    EXPECT_EQ(provider.index(), nullptr);
  }
}

TEST(EdgeCaseTest, CancelledCanopyPrepareLeavesProviderCoverless) {
  ConjunctiveDataOptions data;
  data.num_items = 80;
  data.num_attributes = 8;
  data.num_clusters = 4;
  data.domain_size = 20;
  data.seed = 13;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();
  CanopyOptions options;
  options.cheap_attributes = 4;

  CanopyShortlistProvider provider(options, 4);
  const std::function<bool()> now = [] { return true; };
  EXPECT_EQ(provider.Prepare(dataset, nullptr, &now).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(provider.index(), nullptr);
  ASSERT_TRUE(provider.Prepare(dataset).ok());
  EXPECT_NE(provider.index(), nullptr);
}

TEST(EdgeCaseTest, BandedIndexOneBandOneRow) {
  // 1b1r: the coarsest banding — one bucket per distinct first component.
  const MinHasher hasher(1, 11);
  std::vector<std::vector<uint32_t>> sets{{1, 2, 3}, {1, 2, 3}, {9, 10, 11}};
  std::vector<uint64_t> signatures;
  for (const auto& set : sets) {
    const auto signature = hasher.ComputeSignature(set);
    signatures.push_back(signature[0]);
  }
  const BandedIndex index(signatures, 3, BandingParams{1, 1});
  std::set<uint32_t> candidates;
  index.VisitCandidates(0, [&](uint32_t other) { candidates.insert(other); });
  EXPECT_TRUE(candidates.count(1));
}

}  // namespace
}  // namespace lshclust
