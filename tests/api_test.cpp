// Tests of the lshclust::Clusterer front door (api/clusterer.h):
//
//  * Golden parity: for every (modality x accelerator) cell the facade's
//    Fit must be bit-identical — assignments, per-iteration moves /
//    shortlist stats / costs, and centroids (checked through Predict) —
//    to driving the corresponding ClusteringEngine instantiation
//    directly, at threads {1,4} x shards {1,3}.
//  * Validation: every invalid ClustererSpec combination returns the
//    right StatusCode with an actionable message instead of aborting.
//  * Hooks: the progress callback fires once per refinement iteration
//    with the recorded stats; the cancellation hook stops a run between
//    iterations (and at shard-chunk boundaries) and surfaces
//    StatusCode::kCancelled with the partial FitReport.
//  * Streaming: MakeStreamingSession reproduces StreamingMHKModes
//    bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/clusterer.h"
#include "clustering/kmodes.h"
#include "clustering/kprototypes.h"
#include "core/canopy_kmodes.h"
#include "core/lsh_kmeans.h"
#include "core/lsh_kprototypes.h"
#include "core/mh_kmodes.h"
#include "core/streaming.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"
#include "datagen/yahoo_like_corpus.h"
#include "text/binarizer.h"
#include "text/tfidf.h"

namespace lshclust {
namespace {

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

/// Binary word-presence items from the synthetic Yahoo!-like corpus —
/// the kTextBinarized modality's real input shape.
CategoricalDataset TextFixture() {
  YahooCorpusOptions corpus_options;
  corpus_options.num_topics = 10;
  corpus_options.questions_per_topic = 12;
  corpus_options.seed = 7;
  const TokenizedCorpus corpus = GenerateYahooLikeCorpus(corpus_options);
  auto model = TopicTfIdf::Compute(corpus);
  TfIdfOptions tfidf;
  tfidf.threshold = 0.3;
  return BinarizeCorpus(corpus, model->SelectVocabulary(tfidf)).ValueOrDie();
}

void ExpectIdenticalRuns(const ClusteringResult& a,
                         const ClusteringResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].moves, b.iterations[i].moves) << "iter " << i;
    EXPECT_EQ(a.iterations[i].mean_shortlist, b.iterations[i].mean_shortlist)
        << "iter " << i;
    EXPECT_EQ(a.iterations[i].cost, b.iterations[i].cost) << "iter " << i;
  }
  EXPECT_EQ(a.final_cost, b.final_cost);
}

EngineOptions BaseEngine(uint32_t k, uint32_t threads, uint32_t shards) {
  EngineOptions engine;
  engine.num_clusters = k;
  engine.max_iterations = 6;
  engine.seed = 5;
  engine.num_threads = threads;
  engine.num_shards = shards;
  engine.chunk_size = 64;
  return engine;
}

/// Runs one facade cell and its direct-engine twin, proving bit-identity
/// of the run and (through Predict on the training items) of the
/// centroids. `direct` is invoked as direct(options, &centroids_out).
template <typename Traits, typename DirectFn>
void ExpectFacadeParity(const ClustererSpec& spec,
                        const typename Traits::Dataset& dataset,
                        const typename Traits::Options& direct_options,
                        const DirectFn& direct) {
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok()) << clusterer.status().ToString();
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok());

  typename Traits::Centroids centroids = Traits::MakeCentroids(
      dataset, direct_options);
  auto reference = direct(direct_options, &centroids);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectIdenticalRuns(report->result, *reference);

  // Centroid parity, observed through the facade's Predict: each training
  // item's nearest fitted centroid must match a manual scan against the
  // direct run's centroids.
  auto predicted = clusterer->Predict(dataset);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  const uint32_t k = direct_options.num_clusters;
  for (uint32_t item = 0; item < dataset.num_items(); ++item) {
    uint32_t best_cluster = 0;
    auto best = Traits::template ComputeDistance<false>(
        dataset, centroids, direct_options, item, 0,
        Traits::kInfiniteDistance);
    for (uint32_t cluster = 1; cluster < k; ++cluster) {
      const auto distance = Traits::template ComputeDistance<false>(
          dataset, centroids, direct_options, item, cluster,
          Traits::kInfiniteDistance);
      if (distance < best) {
        best = distance;
        best_cluster = cluster;
      }
    }
    ASSERT_EQ((*predicted)[item], best_cluster) << "item " << item;
  }
}

struct ParityGrid {
  uint32_t threads;
  uint32_t shards;
};
const ParityGrid kGrid[] = {{1, 1}, {1, 3}, {4, 1}, {4, 3}};

// ------------------------------------------------------------- parity ----

TEST(FacadeParityTest, CategoricalCells) {
  const CategoricalDataset dataset = CategoricalFixture();
  for (const Modality modality :
       {Modality::kCategorical, Modality::kTextBinarized}) {
    for (const auto& grid : kGrid) {
      ClustererSpec spec;
      spec.modality = modality;
      spec.engine = BaseEngine(8, grid.threads, grid.shards);

      spec.accelerator = Accelerator::kExhaustive;
      ExpectFacadeParity<CategoricalClusteringTraits>(
          spec, dataset, spec.engine,
          [&](const EngineOptions& options, ModeTable* centroids) {
            ExhaustiveProvider provider;
            return RunEngine(dataset, options, provider, centroids);
          });

      spec.accelerator = Accelerator::kMinHash;
      spec.minhash.banding = {8, 2};
      ExpectFacadeParity<CategoricalClusteringTraits>(
          spec, dataset, spec.engine,
          [&](const EngineOptions& options, ModeTable* centroids) {
            ClusterShortlistProvider provider(spec.minhash,
                                              options.num_clusters);
            return RunEngine(dataset, options, provider, centroids);
          });

      spec.accelerator = Accelerator::kCanopy;
      spec.canopy.cheap_attributes = 4;
      ExpectFacadeParity<CategoricalClusteringTraits>(
          spec, dataset, spec.engine,
          [&](const EngineOptions& options, ModeTable* centroids) {
            CanopyShortlistProvider provider(spec.canopy,
                                             options.num_clusters);
            return RunEngine(dataset, options, provider, centroids);
          });
    }
  }
}

TEST(FacadeParityTest, TextBinarizedOnRealBinarizedCorpus) {
  // The categorical grid above already proves kTextBinarized dispatch;
  // this runs the modality on its actual input shape (sparse binarized
  // text with absence semantics).
  const CategoricalDataset dataset = TextFixture();
  ClustererSpec spec;
  spec.modality = Modality::kTextBinarized;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(10, 4, 3);
  spec.minhash.banding = {10, 1};
  ExpectFacadeParity<CategoricalClusteringTraits>(
      spec, dataset, spec.engine,
      [&](const EngineOptions& options, ModeTable* centroids) {
        ClusterShortlistProvider provider(spec.minhash, options.num_clusters);
        return RunEngine(dataset, options, provider, centroids);
      });
}

TEST(FacadeParityTest, NumericCells) {
  const NumericDataset dataset = NumericFixture();
  for (const auto& grid : kGrid) {
    ClustererSpec spec;
    spec.modality = Modality::kNumeric;
    spec.engine = BaseEngine(6, grid.threads, grid.shards);
    KMeansOptions options;
    static_cast<EngineOptions&>(options) = spec.engine;

    spec.accelerator = Accelerator::kExhaustive;
    ExpectFacadeParity<NumericClusteringTraits>(
        spec, dataset, options,
        [&](const KMeansOptions& direct, CentroidTable* centroids) {
          ExhaustiveProvider provider;
          return RunKMeansEngine(dataset, direct, provider, centroids);
        });

    spec.accelerator = Accelerator::kSimHash;
    spec.simhash.banding = {6, 3};
    ExpectFacadeParity<NumericClusteringTraits>(
        spec, dataset, options,
        [&](const KMeansOptions& direct, CentroidTable* centroids) {
          SimHashShortlistProvider provider(spec.simhash,
                                            direct.num_clusters);
          return RunKMeansEngine(dataset, direct, provider, centroids);
        });
  }
}

TEST(FacadeParityTest, MixedCells) {
  const MixedDataset dataset = MixedFixture();
  for (const auto& grid : kGrid) {
    ClustererSpec spec;
    spec.modality = Modality::kMixed;
    spec.engine = BaseEngine(5, grid.threads, grid.shards);
    spec.gamma = 0.5;
    KPrototypesOptions options;
    static_cast<EngineOptions&>(options) = spec.engine;
    options.gamma = spec.gamma;

    spec.accelerator = Accelerator::kExhaustive;
    ExpectFacadeParity<MixedClusteringTraits>(
        spec, dataset, options,
        [&](const KPrototypesOptions& direct,
            MixedClusteringTraits::Centroids* centroids) {
          ExhaustiveProvider provider;
          return RunKPrototypesEngine(dataset, direct, provider, centroids);
        });

    spec.accelerator = Accelerator::kMixedConcat;
    spec.mixed_index.categorical_banding = {8, 2};
    spec.mixed_index.numeric_banding = {4, 8};
    ExpectFacadeParity<MixedClusteringTraits>(
        spec, dataset, options,
        [&](const KPrototypesOptions& direct,
            MixedClusteringTraits::Centroids* centroids) {
          MixedShortlistProvider provider(spec.mixed_index,
                                          direct.num_clusters);
          return RunKPrototypesEngine(dataset, direct, provider, centroids);
        });
  }
}

TEST(FacadeParityTest, LegacyEntryPointsMatchFacade) {
  // The deprecated shims route through the facade; their results must
  // still match a facade call spelled directly.
  const CategoricalDataset dataset = CategoricalFixture();
  MHKModesOptions legacy;
  legacy.engine = BaseEngine(8, 1, 1);
  legacy.index.banding = {8, 2};
  auto shim = RunMHKModes(dataset, legacy);
  ASSERT_TRUE(shim.ok());

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = legacy.engine;
  spec.minhash = legacy.index;
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok());
  ExpectIdenticalRuns(shim->result, report->result);
  EXPECT_TRUE(report->has_index);
  EXPECT_EQ(shim->index_memory_bytes, report->index_memory_bytes);
}

// --------------------------------------------------------- validation ----

Status CreateStatus(const ClustererSpec& spec) {
  return Clusterer::Create(spec).status();
}

TEST(FacadeValidationTest, RejectsIncompatibleAcceleratorModalityPairs) {
  ClustererSpec spec;
  spec.engine.num_clusters = 4;

  spec.modality = Modality::kNumeric;
  spec.accelerator = Accelerator::kCanopy;
  Status status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("canopy"), std::string::npos);
  EXPECT_NE(status.message().find("simhash"), std::string::npos)
      << "message should name the supported accelerators: "
      << status.message();

  spec.accelerator = Accelerator::kMinHash;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
  spec.accelerator = Accelerator::kMixedConcat;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);

  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kSimHash;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
  spec.accelerator = Accelerator::kMixedConcat;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);

  spec.modality = Modality::kMixed;
  spec.accelerator = Accelerator::kMinHash;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
  spec.accelerator = Accelerator::kCanopy;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);

  spec.modality = Modality::kTextBinarized;
  spec.accelerator = Accelerator::kSimHash;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
}

TEST(FacadeValidationTest, RejectsBadEngineOptions) {
  ClustererSpec spec;

  spec.engine.num_clusters = 0;
  Status status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_clusters"), std::string::npos);

  spec.engine.num_clusters = 4;
  spec.engine.num_shards = 0;
  status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_shards"), std::string::npos);

  spec.engine.num_shards = 1;
  spec.engine.chunk_size = 0;
  status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("chunk_size"), std::string::npos);

  spec.engine.chunk_size = 1024;
  spec.engine.initial_seeds = {1, 2};  // wrong arity for k=4
  status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("initial_seeds"), std::string::npos);
}

TEST(FacadeValidationTest, RejectsCategoricalOnlySeedingOffModality) {
  ClustererSpec spec;
  spec.modality = Modality::kNumeric;
  spec.accelerator = Accelerator::kExhaustive;
  spec.engine.num_clusters = 4;
  spec.engine.init_method = InitMethod::kHuang;
  Status status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("kRandom"), std::string::npos);

  spec.modality = Modality::kMixed;
  spec.engine.init_method = InitMethod::kCao;
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);

  // Huang is fine on categorical data.
  spec.modality = Modality::kCategorical;
  spec.engine.init_method = InitMethod::kHuang;
  EXPECT_TRUE(CreateStatus(spec).ok());
}

TEST(FacadeValidationTest, RejectsBadAcceleratorOptions) {
  ClustererSpec spec;
  spec.engine.num_clusters = 4;

  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.minhash.banding = {0, 5};
  Status status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("spec.minhash"), std::string::npos);

  spec.minhash.banding = {20, 5};
  spec.accelerator = Accelerator::kCanopy;
  spec.canopy.tight_fraction = 0.9;
  spec.canopy.loose_fraction = 0.5;  // tight > loose
  status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("spec.canopy"), std::string::npos);

  spec.modality = Modality::kNumeric;
  spec.accelerator = Accelerator::kSimHash;
  spec.simhash.banding = {16, 0};
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);

  spec.modality = Modality::kMixed;
  spec.accelerator = Accelerator::kMixedConcat;
  spec.mixed_index.numeric_banding = {0, 16};
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
}

TEST(FacadeValidationTest, RejectsNegativeGammaOnMixed) {
  ClustererSpec spec;
  spec.modality = Modality::kMixed;
  spec.accelerator = Accelerator::kExhaustive;
  spec.engine.num_clusters = 4;
  spec.gamma = -0.25;
  Status status = CreateStatus(spec);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("gamma"), std::string::npos);

  // NaN / inf would silently poison every mixed distance; both must be
  // rejected up front.
  spec.gamma = std::nan("");
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
  spec.gamma = std::numeric_limits<double>::infinity();
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
}

TEST(FacadeValidationTest, RejectedFitPreservesPreviousModel) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.engine.num_clusters = 8;
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(dataset).ok());
  auto before = clusterer->Predict(dataset);
  ASSERT_TRUE(before.ok());

  // k > n: the engine rejects the run; the fitted model must survive.
  auto tiny = CategoricalDataset::FromCodes(2, 12, 40,
                                            std::vector<uint32_t>(24, 0));
  ASSERT_TRUE(tiny.ok());
  EXPECT_FALSE(clusterer->Fit(*tiny).ok());
  EXPECT_TRUE(clusterer->fitted());
  auto after = clusterer->Predict(dataset);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}

TEST(FacadeValidationTest, RejectsUnrecognizedEnumValues) {
  ClustererSpec spec;
  spec.engine.num_clusters = 4;
  spec.modality = static_cast<Modality>(250);
  EXPECT_EQ(CreateStatus(spec).code(), StatusCode::kInvalidArgument);
}

TEST(FacadeValidationTest, FitRejectsMismatchedDatasetShape) {
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.engine.num_clusters = 4;
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(NumericFixture());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("categorical"),
            std::string::npos);
}

TEST(FacadeValidationTest, PredictRequiresFitAndMatchingShape) {
  ClustererSpec spec;
  spec.modality = Modality::kNumeric;
  spec.engine.num_clusters = 4;
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  EXPECT_FALSE(clusterer->fitted());
  EXPECT_EQ(clusterer->Predict(NumericFixture()).status().code(),
            StatusCode::kInvalidArgument);

  const NumericDataset dataset = NumericFixture();
  ASSERT_TRUE(clusterer->Fit(dataset).ok());
  EXPECT_TRUE(clusterer->fitted());

  // Wrong dimensionality is rejected.
  auto skinny = NumericDataset::FromValues(2, 2, {0.0, 1.0, 2.0, 3.0});
  ASSERT_TRUE(skinny.ok());
  EXPECT_EQ(clusterer->Predict(*skinny).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FacadeValidationTest, StreamingRequiresMinHashSpec) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kExhaustive;
  spec.engine.num_clusters = 4;
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  Status status =
      clusterer->MakeStreamingSession(dataset).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("minhash"), std::string::npos);

  spec.accelerator = Accelerator::kMinHash;
  auto lsh_clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(lsh_clusterer.ok());
  StreamingSessionOptions bad;
  bad.ingest_shards = 0;
  EXPECT_EQ(lsh_clusterer->MakeStreamingSession(dataset, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- hooks ----

TEST(FacadeHooksTest, ProgressFiresOncePerIterationWithRecordedStats) {
  const CategoricalDataset dataset = CategoricalFixture();
  std::vector<IterationStats> seen;
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1, 1);
  spec.minhash.banding = {8, 2};
  spec.engine.progress = [&](const IterationStats& stats) {
    seen.push_back(stats);
  };
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(seen.size(), report->result.iterations.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].iteration, report->result.iterations[i].iteration);
    EXPECT_EQ(seen[i].moves, report->result.iterations[i].moves);
    EXPECT_EQ(seen[i].cost, report->result.iterations[i].cost);
  }
}

TEST(FacadeHooksTest, CancelBetweenIterationsReturnsPartialReport) {
  const CategoricalDataset dataset = CategoricalFixture();

  // Reference: the honest two-iteration prefix.
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1, 1);
  spec.minhash.banding = {8, 2};
  spec.engine.max_iterations = 2;
  auto prefix_clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(prefix_clusterer.ok());
  auto prefix = prefix_clusterer->Fit(dataset);
  ASSERT_TRUE(prefix.ok());
  ASSERT_EQ(prefix->result.iterations.size(), 2u);

  // Cancelled run: stop as soon as two iterations completed.
  int completed = 0;
  spec.engine.max_iterations = 100;
  spec.engine.progress = [&](const IterationStats&) { ++completed; };
  spec.engine.cancel = [&] { return completed >= 2; };
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(report->result.cancelled);
  EXPECT_FALSE(report->result.converged);
  ASSERT_EQ(report->result.iterations.size(), 2u);
  // The partial report is exactly the two-iteration prefix — an
  // interrupted pass never leaks into it.
  ExpectIdenticalRuns(report->result, prefix->result);
  // A cancelled fit still yields a usable model.
  EXPECT_TRUE(clusterer->fitted());
  EXPECT_TRUE(clusterer->Predict(dataset).ok());
}

TEST(FacadeHooksTest, CancelDuringInitialPassReturnsEmptyIterations) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kExhaustive;
  spec.engine = BaseEngine(8, 1, 1);
  spec.engine.cancel = [] { return true; };
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(report->result.cancelled);
  EXPECT_TRUE(report->result.iterations.empty());
  // The initial pass never completed, so there is no consistent state to
  // report — a half-applied assignment must not leak out.
  EXPECT_TRUE(report->result.assignment.empty());
}

TEST(FacadeHooksTest, CancelMidPassRollsBackToLastCompletedIteration) {
  const CategoricalDataset dataset = CategoricalFixture();

  // Reference: stop exactly after the initial assignment (no refinement).
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kExhaustive;
  spec.engine = BaseEngine(8, 1, 1);
  spec.engine.max_iterations = 0;
  auto base_clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(base_clusterer.ok());
  auto base = base_clusterer->Fit(dataset);
  ASSERT_TRUE(base.ok());

  // Cancel mid-way through refinement iteration 1's pass. With threads=1
  // the poll sequence is deterministic: one poll per chunk of the initial
  // pass (ceil(n / chunk_size)), one after the pass, one after Prepare,
  // one at the top of iteration 1, then one per chunk of its pass.
  // Triggering two chunks into that pass means two chunks' assignments
  // were already overwritten when the cancel lands — exactly what the
  // roll-back must undo. (If the poll schedule ever shifts earlier the
  // test still holds: cancelling sooner also leaves the
  // initial-assignment state.)
  spec.engine.max_iterations = 100;
  const int chunk_polls = static_cast<int>(
      (dataset.num_items() + spec.engine.chunk_size - 1) /
      spec.engine.chunk_size);
  const int polls_before_refinement_pass = chunk_polls + 3;
  int total_polls = 0;
  spec.engine.cancel = [&, polls_before_refinement_pass] {
    ++total_polls;
    return total_polls > polls_before_refinement_pass + 2;
  };
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(report->result.cancelled);
  EXPECT_TRUE(report->result.iterations.empty());
  // The interrupted first refinement pass was rolled back: the assignment
  // is bit-identical to the max_iterations=0 run.
  EXPECT_EQ(report->result.assignment, base->result.assignment);
}

TEST(FacadeHooksTest, LegacyShimsSurfaceCancellationAsError) {
  // The legacy entry points have no channel for a partial report; a
  // cancelled run must come back as the kCancelled error, never as an
  // ok() result with a partial (possibly empty) assignment.
  const CategoricalDataset dataset = CategoricalFixture();
  MHKModesOptions options;
  options.engine = BaseEngine(8, 1, 1);
  options.engine.cancel = [] { return true; };
  options.index.banding = {8, 2};
  auto run = RunMHKModes(dataset, options);
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

TEST(FacadeHooksTest, CancelledBootstrapFailsStreamingSessionCreation) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1, 1);
  spec.minhash.banding = {8, 2};
  spec.engine.cancel = [] { return true; };
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  // A session must never be built on a partial warm-up clustering.
  Status status = clusterer->MakeStreamingSession(dataset).status();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------- streaming ----

TEST(FacadeStreamingTest, SessionMatchesDirectStreamingEngine) {
  ConjunctiveDataOptions data;
  data.num_items = 400;
  data.num_attributes = 16;
  data.num_clusters = 10;
  data.domain_size = 60;
  data.seed = 23;
  const auto all = GenerateConjunctiveRuleData(data).ValueOrDie();
  const uint32_t warmup_items = 300;
  const uint32_t m = all.num_attributes();
  auto warmup = CategoricalDataset::FromCodes(
      warmup_items, m, all.num_codes(),
      {all.codes().begin(), all.codes().begin() + warmup_items * m});
  ASSERT_TRUE(warmup.ok());

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(10, 1, 1);
  spec.minhash.banding = {10, 2};

  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  StreamingSessionOptions session_options;
  session_options.ingest_threads = 2;
  auto session = clusterer->MakeStreamingSession(*warmup, session_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  StreamingMHKModesOptions direct_options;
  direct_options.bootstrap.engine = spec.engine;
  direct_options.bootstrap.index = spec.minhash;
  direct_options.ingest_threads = 2;
  auto direct = StreamingMHKModes::Bootstrap(*warmup, direct_options);
  ASSERT_TRUE(direct.ok());

  const std::span<const uint32_t> rows(
      all.codes().data() + static_cast<size_t>(warmup_items) * m,
      static_cast<size_t>(all.num_items() - warmup_items) * m);
  ASSERT_TRUE(session->IngestBatch(rows).ok());
  ASSERT_TRUE(direct->IngestBatch(rows).ok());

  EXPECT_EQ(session->assignment(), direct->assignment());
  EXPECT_EQ(session->stats().ingested, direct->stats().ingested);
  EXPECT_EQ(session->stats().shortlist_total,
            direct->stats().shortlist_total);
  EXPECT_EQ(session->num_clusters(), 10u);
  EXPECT_EQ(session->num_attributes(), m);
}

// ------------------------------------------------------------- report ----

TEST(FacadeReportTest, IndexDiagnosticsOnlyForIndexAccelerators) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.engine = BaseEngine(8, 1, 1);

  spec.accelerator = Accelerator::kExhaustive;
  auto exhaustive = Clusterer::Create(spec);
  ASSERT_TRUE(exhaustive.ok());
  auto plain = exhaustive->Fit(dataset);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_index);

  spec.accelerator = Accelerator::kMinHash;
  spec.minhash.banding = {8, 2};
  auto accelerated = Clusterer::Create(spec);
  ASSERT_TRUE(accelerated.ok());
  auto indexed = accelerated->Fit(dataset);
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(indexed->has_index);
  EXPECT_GT(indexed->index_memory_bytes, 0u);
  EXPECT_GT(indexed->index_stats.total_buckets, 0u);
}

// ------------------------------------------------------ routed predict ----
//
// PredictRouted must (a) agree bit-for-bit with a reference probe built
// the way catalog_dedup historically routed — a standalone provider with
// the same options signs the arrival, probes the buckets, dereferences
// candidate clusters through the fitted assignment, and takes the
// nearest candidate with lowest-id ties — except that PredictRouted does
// it against the *retained* fit-time index with zero re-signing of the
// fitted dataset; (b) equal exhaustive Predict wherever the probe
// contains Predict's winner (or is empty: fallback); and (c) be
// bit-identical at every (threads x shards) grid point.

/// Slices `count` items starting at `begin` out of a generated
/// categorical dataset (labels dropped; arrivals have none).
CategoricalDataset SliceCategorical(const CategoricalDataset& all,
                                    uint32_t begin, uint32_t count) {
  const uint32_t m = all.num_attributes();
  std::vector<uint32_t> codes(
      all.codes().begin() + static_cast<size_t>(begin) * m,
      all.codes().begin() + static_cast<size_t>(begin + count) * m);
  return CategoricalDataset::FromCodes(count, m, all.num_codes(),
                                       std::move(codes))
      .ValueOrDie();
}

NumericDataset SliceNumeric(const NumericDataset& all, uint32_t begin,
                            uint32_t count) {
  std::vector<double> values;
  values.reserve(static_cast<size_t>(count) * all.dimensions());
  for (uint32_t item = begin; item < begin + count; ++item) {
    const auto row = all.Row(item);
    values.insert(values.end(), row.begin(), row.end());
  }
  return NumericDataset::FromValues(count, all.dimensions(),
                                    std::move(values))
      .ValueOrDie();
}

/// Reference nearest-of-candidates with exact distances and ascending
/// (lowest-id-ties) order — the documented PredictRouted decision rule.
template <typename Traits>
uint32_t NearestOfCandidates(const typename Traits::Dataset& arrivals,
                             const typename Traits::Centroids& centroids,
                             const typename Traits::Options& options,
                             uint32_t item,
                             std::vector<uint32_t> candidates) {
  std::sort(candidates.begin(), candidates.end());
  uint32_t best_cluster = candidates.front();
  auto best = Traits::template ComputeDistance<false>(
      arrivals, centroids, options, item, best_cluster,
      Traits::kInfiniteDistance);
  for (size_t i = 1; i < candidates.size(); ++i) {
    const auto distance = Traits::template ComputeDistance<false>(
        arrivals, centroids, options, item, candidates[i],
        Traits::kInfiniteDistance);
    if (distance < best) {
      best = distance;
      best_cluster = candidates[i];
    }
  }
  return best_cluster;
}

/// Proves the routed contract for one banding cell. `direct` runs the
/// engine twin (options, &centroids) -> Result<ClusteringResult>;
/// `probe` returns arrival `item`'s deduplicated candidate clusters from
/// a standalone re-signed provider (the legacy routing pattern the
/// retained index replaces).
template <typename Traits, typename DirectFn, typename ProbeFn>
void ExpectRoutedParity(const ClustererSpec& base_spec,
                        const typename Traits::Dataset& fit_data,
                        const typename Traits::Dataset& arrivals,
                        const typename Traits::Options& direct_options,
                        const DirectFn& direct, const ProbeFn& probe) {
  typename Traits::Centroids centroids =
      Traits::MakeCentroids(fit_data, direct_options);
  auto reference_run = direct(direct_options, &centroids);
  ASSERT_TRUE(reference_run.ok()) << reference_run.status().ToString();

  auto clusterer = Clusterer::Create(base_spec);
  ASSERT_TRUE(clusterer.ok()) << clusterer.status().ToString();
  auto report = clusterer->Fit(fit_data);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.assignment, reference_run->assignment);
  ASSERT_TRUE(report->has_index);

  auto handle = clusterer->index();
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->dataset_sign_passes(), 1u);
  EXPECT_EQ(handle->num_indexed_items(), fit_data.num_items());

  auto routed = clusterer->PredictRouted(arrivals);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  auto predicted = clusterer->Predict(arrivals);
  ASSERT_TRUE(predicted.ok());

  // Routing signed only the queries: the fitted dataset's signing counter
  // is untouched by any number of routed calls.
  auto routed_again = clusterer->PredictRouted(arrivals);
  ASSERT_TRUE(routed_again.ok());
  EXPECT_EQ(*routed, *routed_again);
  EXPECT_EQ(clusterer->index()->dataset_sign_passes(), 1u);

  uint32_t fallbacks = 0;
  for (uint32_t item = 0; item < arrivals.num_items(); ++item) {
    const std::vector<uint32_t> candidates =
        probe(item, reference_run->assignment);
    if (candidates.empty()) {
      // Empty probe: the exhaustive fallback must equal Predict.
      EXPECT_EQ((*routed)[item], (*predicted)[item]) << "item " << item;
      ++fallbacks;
      continue;
    }
    const uint32_t expected = NearestOfCandidates<Traits>(
        arrivals, centroids, direct_options, item, candidates);
    EXPECT_EQ((*routed)[item], expected) << "item " << item;
    // Shortlist hit: whenever the probe contains Predict's winner the
    // routed assignment is bit-identical to Predict's.
    if (std::find(candidates.begin(), candidates.end(),
                  (*predicted)[item]) != candidates.end()) {
      EXPECT_EQ((*routed)[item], (*predicted)[item]) << "item " << item;
    }
  }

  // Bit-identity across the (threads x shards) grid: the decomposition
  // and worker count are invisible in routed results.
  for (const auto& grid : kGrid) {
    ClustererSpec spec = base_spec;
    spec.engine.num_threads = grid.threads;
    spec.engine.num_shards = grid.shards;
    auto grid_clusterer = Clusterer::Create(spec);
    ASSERT_TRUE(grid_clusterer.ok());
    ASSERT_TRUE(grid_clusterer->Fit(fit_data).ok());
    auto grid_routed = grid_clusterer->PredictRouted(arrivals);
    ASSERT_TRUE(grid_routed.ok());
    EXPECT_EQ(*grid_routed, *routed)
        << "threads=" << grid.threads << " shards=" << grid.shards;
  }
}

TEST(RoutedPredictTest, CategoricalMinHashMatchesStandaloneProbe) {
  ConjunctiveDataOptions options;
  options.num_items = 360;
  options.num_attributes = 12;
  options.num_clusters = 8;
  options.domain_size = 40;
  options.seed = 17;
  const auto all = GenerateConjunctiveRuleData(options).ValueOrDie();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto arrivals = SliceCategorical(all, 300, 60);

  for (const Modality modality :
       {Modality::kCategorical, Modality::kTextBinarized}) {
    ClustererSpec spec;
    spec.modality = modality;
    spec.accelerator = Accelerator::kMinHash;
    spec.engine = BaseEngine(8, 1, 1);
    spec.minhash.banding = {8, 2};

    // The legacy routing pattern: a standalone provider re-signs and
    // re-indexes the fitted dataset (what catalog_dedup used to do).
    ClusterShortlistProvider standalone(spec.minhash,
                                        spec.engine.num_clusters);
    ASSERT_TRUE(standalone.Prepare(fit_data).ok());
    std::vector<uint32_t> tokens, candidates;
    ExpectRoutedParity<CategoricalClusteringTraits>(
        spec, fit_data, arrivals, spec.engine,
        [&](const EngineOptions& direct, ModeTable* centroids) {
          ClusterShortlistProvider provider(spec.minhash,
                                            direct.num_clusters);
          return RunEngine(fit_data, direct, provider, centroids);
        },
        [&](uint32_t item, std::span<const uint32_t> fit_assignment) {
          arrivals.PresentTokens(item, &tokens);
          standalone.GetCandidatesForQuery(tokens, fit_assignment,
                                           &candidates);
          return candidates;
        });
  }
}

TEST(RoutedPredictTest, NumericSimHashMatchesStandaloneProbe) {
  GaussianMixtureOptions options;
  options.num_items = 300;
  options.dimensions = 6;
  options.num_clusters = 6;
  options.stddev = 0.4;
  options.seed = 31;
  const auto all = GenerateGaussianMixture(options).ValueOrDie();
  const auto fit_data = SliceNumeric(all, 0, 240);
  const auto arrivals = SliceNumeric(all, 240, 60);

  ClustererSpec spec;
  spec.modality = Modality::kNumeric;
  spec.accelerator = Accelerator::kSimHash;
  spec.engine = BaseEngine(6, 1, 1);
  spec.simhash.banding = {6, 3};
  KMeansOptions direct_options;
  static_cast<EngineOptions&>(direct_options) = spec.engine;

  SimHashShortlistProvider standalone(spec.simhash,
                                      spec.engine.num_clusters);
  ASSERT_TRUE(standalone.Prepare(fit_data).ok());
  std::vector<uint32_t> candidates;
  ExpectRoutedParity<NumericClusteringTraits>(
      spec, fit_data, arrivals, direct_options,
      [&](const KMeansOptions& direct, CentroidTable* centroids) {
        SimHashShortlistProvider provider(spec.simhash,
                                          direct.num_clusters);
        return RunKMeansEngine(fit_data, direct, provider, centroids);
      },
      [&](uint32_t item, std::span<const uint32_t> fit_assignment) {
        standalone.GetCandidatesForQuery(arrivals.Row(item), fit_assignment,
                                         &candidates);
        return candidates;
      });
}

TEST(RoutedPredictTest, MixedConcatMatchesStandaloneProbe) {
  MixedDataOptions options;
  options.categorical.num_items = 260;
  options.categorical.num_attributes = 8;
  options.categorical.num_clusters = 5;
  options.categorical.domain_size = 25;
  options.categorical.seed = 41;
  options.numeric_dimensions = 4;
  options.stddev = 0.5;
  const auto all = GenerateMixedData(options).ValueOrDie();
  const auto fit_data =
      MixedDataset::Combine(SliceCategorical(all.categorical(), 0, 200),
                            SliceNumeric(all.numeric(), 0, 200))
          .ValueOrDie();
  const auto arrivals =
      MixedDataset::Combine(SliceCategorical(all.categorical(), 200, 60),
                            SliceNumeric(all.numeric(), 200, 60))
          .ValueOrDie();

  ClustererSpec spec;
  spec.modality = Modality::kMixed;
  spec.accelerator = Accelerator::kMixedConcat;
  spec.engine = BaseEngine(5, 1, 1);
  spec.gamma = 0.5;
  spec.mixed_index.categorical_banding = {8, 2};
  spec.mixed_index.numeric_banding = {4, 8};
  KPrototypesOptions direct_options;
  static_cast<EngineOptions&>(direct_options) = spec.engine;
  direct_options.gamma = spec.gamma;

  // The mixed family's query representation is two spans, so the probe
  // signs by hand and walks the index directly (same bucket space: same
  // options + seed + items as the retained index).
  MixedShortlistProvider standalone(spec.mixed_index,
                                    spec.engine.num_clusters);
  ASSERT_TRUE(standalone.Prepare(fit_data).ok());
  std::vector<uint32_t> tokens;
  std::vector<double> centered;
  std::vector<uint64_t> signature(standalone.family().signature_width());
  ExpectRoutedParity<MixedClusteringTraits>(
      spec, fit_data, arrivals, direct_options,
      [&](const KPrototypesOptions& direct,
          MixedClusteringTraits::Centroids* centroids) {
        MixedShortlistProvider provider(spec.mixed_index,
                                        direct.num_clusters);
        return RunKPrototypesEngine(fit_data, direct, provider, centroids);
      },
      [&](uint32_t item, std::span<const uint32_t> fit_assignment) {
        arrivals.categorical().PresentTokens(item, &tokens);
        standalone.family().ComputeQuerySignature(
            tokens, arrivals.numeric().Row(item), &centered,
            signature.data());
        std::set<uint32_t> clusters;
        standalone.index()->VisitCandidatesOfSignature(
            signature, [&](uint32_t other) {
              clusters.insert(fit_assignment[other]);
            });
        return std::vector<uint32_t>(clusters.begin(), clusters.end());
      });
}

TEST(RoutedPredictTest, DegeneratesToPredictWithoutARetainedIndex) {
  const CategoricalDataset dataset = CategoricalFixture();
  // Exhaustive and canopy accelerators build no banding index; routed
  // prediction must be exactly Predict, and index() must say why.
  for (const Accelerator accelerator :
       {Accelerator::kExhaustive, Accelerator::kCanopy}) {
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = accelerator;
    spec.engine = BaseEngine(8, 1, 1);
    spec.canopy.cheap_attributes = 4;
    auto clusterer = Clusterer::Create(spec);
    ASSERT_TRUE(clusterer.ok());
    auto report = clusterer->Fit(dataset);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->has_index);
    auto routed = clusterer->PredictRouted(dataset);
    auto predicted = clusterer->Predict(dataset);
    ASSERT_TRUE(routed.ok());
    ASSERT_TRUE(predicted.ok());
    EXPECT_EQ(*routed, *predicted);
    EXPECT_EQ(clusterer->index().status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(RoutedPredictTest, EmptyProbeFallsBackExhaustively) {
  // Fitted items use codes [0, 8); the arrival's tokens are entirely
  // disjoint codes, so (deterministic under the fixed hash seed) it
  // lands in no fit-time bucket and must take the exhaustive fallback.
  std::vector<uint32_t> codes;
  for (uint32_t item = 0; item < 16; ++item) {
    for (uint32_t j = 0; j < 4; ++j) codes.push_back((item / 8) * 4 + j);
  }
  const auto fit_data =
      CategoricalDataset::FromCodes(16, 4, 32, std::move(codes))
          .ValueOrDie();
  const auto arrivals = CategoricalDataset::FromCodes(
                            1, 4, 32, {20, 21, 22, 23})
                            .ValueOrDie();

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(2, 1, 1);
  spec.minhash.banding = {4, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(fit_data);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Test precondition: the probe really is empty (checked through the
  // standalone twin of the retained index).
  ClusterShortlistProvider standalone(spec.minhash, 2);
  ASSERT_TRUE(standalone.Prepare(fit_data).ok());
  std::vector<uint32_t> tokens, candidates;
  arrivals.PresentTokens(0, &tokens);
  standalone.GetCandidatesForQuery(tokens, report->result.assignment,
                                   &candidates);
  ASSERT_TRUE(candidates.empty())
      << "fixture drift: the arrival collided with a fitted bucket";

  auto routed = clusterer->PredictRouted(arrivals);
  auto predicted = clusterer->Predict(arrivals);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(*routed, *predicted);
}

TEST(RoutedPredictTest, SingleClusterAndShapeErrors) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(1, 4, 3);  // k = 1
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());

  // Routed prediction needs a fit first.
  EXPECT_EQ(clusterer->PredictRouted(dataset).status().code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(clusterer->Fit(dataset).ok());
  auto routed = clusterer->PredictRouted(dataset);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, std::vector<uint32_t>(dataset.num_items(), 0u));

  // Empty and mis-shaped arrival sets are rejected like Predict's.
  EXPECT_EQ(clusterer->PredictRouted(CategoricalDataset())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto skinny =
      CategoricalDataset::FromCodes(2, 2, 40, {0, 1, 2, 3}).ValueOrDie();
  EXPECT_EQ(clusterer->PredictRouted(skinny).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong modality hits the shape seam.
  EXPECT_EQ(clusterer->PredictRouted(NumericFixture()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RoutedPredictTest, IndexHandleEnumeratesDedupCandidates) {
  const CategoricalDataset dataset = CategoricalFixture();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok());
  auto handle = clusterer->index();
  ASSERT_TRUE(handle.ok());

  // The report's diagnostics describe exactly the retained handle.
  EXPECT_EQ(report->index_memory_bytes, handle->memory_bytes());
  const BandedIndex::Stats live = handle->ComputeStats();
  EXPECT_EQ(report->index_stats.total_buckets, live.total_buckets);
  EXPECT_EQ(report->index_stats.largest_bucket, live.largest_bucket);

  for (const uint32_t item : {0u, 7u, dataset.num_items() - 1}) {
    const std::vector<uint32_t> peers = handle->CandidateItemsOf(item);
    // An item shares every bucket with itself; the list is sorted-unique.
    EXPECT_TRUE(std::binary_search(peers.begin(), peers.end(), item));
    EXPECT_TRUE(std::is_sorted(peers.begin(), peers.end()));
    EXPECT_TRUE(std::adjacent_find(peers.begin(), peers.end()) ==
                peers.end());
    const std::vector<uint32_t> clusters = handle->CandidateClustersOf(item);
    EXPECT_TRUE(std::binary_search(clusters.begin(), clusters.end(),
                                   handle->ClusterOf(item)));
    for (const uint32_t cluster : clusters) EXPECT_LT(cluster, 8u);
    // The cluster set is exactly the peers' clusters.
    std::set<uint32_t> expected;
    for (const uint32_t peer : peers) expected.insert(handle->ClusterOf(peer));
    EXPECT_EQ(std::vector<uint32_t>(expected.begin(), expected.end()),
              clusters);
  }

  // A second Fit replaces the retained state; the fresh handle's counter
  // restarts at one signing pass (never two — the new fit signed once).
  ASSERT_TRUE(clusterer->Fit(dataset).ok());
  auto fresh = clusterer->index();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->dataset_sign_passes(), 1u);
}

TEST(RoutedPredictTest, CancelDuringPrepareInstallsNoIndex) {
  const CategoricalDataset dataset = CategoricalFixture();

  // Reference: the state after the initial assignment only.
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1, 1);
  spec.minhash.banding = {8, 2};
  spec.engine.max_iterations = 0;
  auto base_clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(base_clusterer.ok());
  auto base = base_clusterer->Fit(dataset);
  ASSERT_TRUE(base.ok());

  // Cancel at the first poll after the initial pass completes — with
  // threads=1 that is Prepare's first signing-batch poll (one poll per
  // chunk of the initial pass, one after it, then Prepare). Before this
  // PR the hook was not polled again until the index was fully built, so
  // the report carried diagnostics of an index the caller never asked to
  // finish; now Prepare aborts at the batch boundary and installs
  // nothing.
  spec.engine.max_iterations = 100;
  const int chunk_polls = static_cast<int>(
      (dataset.num_items() + spec.engine.chunk_size - 1) /
      spec.engine.chunk_size);
  int total_polls = 0;
  spec.engine.cancel = [&, chunk_polls] {
    ++total_polls;
    return total_polls > chunk_polls + 1;
  };
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  auto report = clusterer->Fit(dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(report->result.cancelled);
  EXPECT_TRUE(report->result.iterations.empty());
  // The completed initial assignment is reported...
  EXPECT_EQ(report->result.assignment, base->result.assignment);
  // ...but no partial index leaks into the report or the model.
  EXPECT_FALSE(report->has_index);
  EXPECT_EQ(report->index_memory_bytes, 0u);
  EXPECT_EQ(report->index_stats.total_buckets, 0u);
  EXPECT_EQ(clusterer->index().status().code(),
            StatusCode::kInvalidArgument);

  // The cancelled-but-usable model routes through the exhaustive
  // fallback.
  EXPECT_TRUE(clusterer->fitted());
  auto routed = clusterer->PredictRouted(dataset);
  auto predicted = clusterer->Predict(dataset);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(*routed, *predicted);
}

TEST(FacadeReportTest, EnumRoundTrips) {
  for (const Modality modality :
       {Modality::kCategorical, Modality::kNumeric, Modality::kMixed,
        Modality::kTextBinarized}) {
    auto parsed = ParseModality(ModalityToString(modality));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, modality);
  }
  for (const Accelerator accelerator :
       {Accelerator::kExhaustive, Accelerator::kMinHash,
        Accelerator::kSimHash, Accelerator::kMixedConcat,
        Accelerator::kCanopy}) {
    auto parsed = ParseAccelerator(AcceleratorToString(accelerator));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, accelerator);
  }
  EXPECT_EQ(ParseModality("tabular").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseAccelerator("warp-drive").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lshclust
