// Tests of the lock-free serving layer (src/serving/):
//
//  * Golden routing: FrozenModel::Route is bit-identical to PredictRouted
//    on the fitted state it snapshotted, for every index-carrying
//    accelerator family and at fit threads {1, 4}; exhaustive snapshots
//    equal plain Predict.
//  * Lifetime: a snapshot is the Clusterer's fitted model itself (two
//    calls return one pointer; a refit swaps in a new one, a rejected fit
//    keeps it). Snapshots and IndexHandles share that immutable model, so
//    they keep describing and routing their fit after a refit and after
//    the Clusterer is destroyed.
//  * ModelServer: Publish stamps strictly monotone versions; Acquire
//    returns the latest snapshot; one model published to two servers
//    keeps each Reader on its own server's version; concurrent
//    reader/writer pileups (the TSan targets, one of them routing the
//    Clusterer's own model while it predicts and refits) see coherent,
//    per-version bit-identical results with zero locks on the query
//    path.
//  * Routing oracle: RouteInto and PredictRouted equal a naive reference
//    (item walk through the fit assignment, sort, exact per-pair scoring,
//    exhaustive fallback) for every query, with and without per-bucket
//    cluster masks, on both sides of the k/4 scan crossover, under forced
//    ties, with probes missing some or every band, across save -> load
//    and across threads x shards.
//  * Streaming: the publish-every-N-ingests hook fires at the documented
//    cadence.
//  * bench::Percentile (bench/common.h), used by bench/serving_qps.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/clusterer.h"
#include "bench/common.h"
#include "clustering/kmeans.h"
#include "clustering/kprototypes.h"
#include "core/cluster_shortlist_index.h"
#include "core/mixed_shortlist_index.h"
#include "core/simhash_shortlist_index.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"
#include "persist/model_io.h"
#include "serving/frozen_model.h"
#include "serving/frozen_model_impl.h"
#include "serving/model_server.h"
#include "serving/routing.h"

namespace lshclust {
namespace {

using serving::FrozenModel;
using serving::ModelServer;

// ---------------------------------------------------------- percentile ----

TEST(PercentileTest, EmptyAndSingle) {
  EXPECT_EQ(bench::Percentile({}, 0.5), 0.0);
  const double one[] = {5.0};
  EXPECT_EQ(bench::Percentile(one, 0.0), 5.0);
  EXPECT_EQ(bench::Percentile(one, 0.5), 5.0);
  EXPECT_EQ(bench::Percentile(one, 1.0), 5.0);
}

TEST(PercentileTest, LinearInterpolationBetweenClosestRanks) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(bench::Percentile(values, 0.5), 2.5);
  EXPECT_EQ(bench::Percentile(values, 0.0), 1.0);
  EXPECT_EQ(bench::Percentile(values, 1.0), 4.0);
  // rank = 0.25 * 3 = 0.75: three quarters of the way from 1 to 2.
  EXPECT_EQ(bench::Percentile(values, 0.25), 1.75);

  const double odd[] = {1.0, 2.0, 3.0};
  EXPECT_EQ(bench::Percentile(odd, 0.5), 2.0);
  EXPECT_EQ(bench::Percentile(odd, 0.25), 1.5);
}

TEST(PercentileTest, UnsortedInputAndClampedQuantile) {
  const double values[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(bench::Percentile(values, 0.5), 2.5);
  EXPECT_EQ(bench::Percentile(values, -0.5), 1.0);
  EXPECT_EQ(bench::Percentile(values, 1.5), 4.0);
}

// ------------------------------------------------------------ fixtures ----

CategoricalDataset CategoricalAll() {
  ConjunctiveDataOptions options;
  options.num_items = 360;
  options.num_attributes = 12;
  options.num_clusters = 8;
  options.domain_size = 40;
  options.seed = 17;
  return GenerateConjunctiveRuleData(options).ValueOrDie();
}

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
  return NumericDataset::FromValues(count, all.dimensions(), std::move(values))
      .ValueOrDie();
}

EngineOptions BaseEngine(uint32_t k, uint32_t threads) {
  EngineOptions engine;
  engine.num_clusters = k;
  engine.max_iterations = 6;
  engine.seed = 5;
  engine.num_threads = threads;
  engine.chunk_size = 64;
  return engine;
}

/// Fits `spec` on `fit_data`, takes a snapshot, and proves Route is
/// bit-identical to PredictRouted on `arrivals` (and that RouteInto with a
/// caller-held scratch matches the convenience Route).
template <typename Dataset>
void ExpectSnapshotParity(const ClustererSpec& spec, const Dataset& fit_data,
                          const Dataset& arrivals) {
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok()) << clusterer.status().ToString();
  ASSERT_TRUE(clusterer->Fit(fit_data).ok());

  auto routed = clusterer->PredictRouted(arrivals);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  auto snapshot = clusterer->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const FrozenModel& model = **snapshot;
  EXPECT_EQ(model.num_clusters(), spec.engine.num_clusters);
  EXPECT_GT(model.memory_bytes(), 0u);
  EXPECT_EQ(model.version(), 0u);  // unpublished

  auto via_route = model.Route(arrivals);
  ASSERT_TRUE(via_route.ok()) << via_route.status().ToString();
  EXPECT_EQ(*via_route, *routed);

  // Caller-held scratch, twice in a row (the second call runs fully warm).
  auto scratch = model.MakeScratch();
  std::vector<uint32_t> out(arrivals.num_items());
  ASSERT_TRUE(model.RouteInto(arrivals, *scratch, out).ok());
  EXPECT_EQ(out, *routed);
  ASSERT_TRUE(model.RouteInto(arrivals, *scratch, out).ok());
  EXPECT_EQ(out, *routed);
}

// --------------------------------------------------------- golden route ----

TEST(ServingGoldenTest, CategoricalMinHashRouteMatchesPredictRouted) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto arrivals = SliceCategorical(all, 300, 60);
  for (const uint32_t threads : {1u, 4u}) {
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = Accelerator::kMinHash;
    spec.engine = BaseEngine(8, threads);
    spec.minhash.banding = {8, 2};
    ExpectSnapshotParity(spec, fit_data, arrivals);
  }
}

TEST(ServingGoldenTest, NumericSimHashRouteMatchesPredictRouted) {
  GaussianMixtureOptions options;
  options.num_items = 300;
  options.dimensions = 6;
  options.num_clusters = 6;
  options.stddev = 0.4;
  options.seed = 31;
  const auto all = GenerateGaussianMixture(options).ValueOrDie();
  const auto fit_data = SliceNumeric(all, 0, 240);
  const auto arrivals = SliceNumeric(all, 240, 60);
  for (const uint32_t threads : {1u, 4u}) {
    ClustererSpec spec;
    spec.modality = Modality::kNumeric;
    spec.accelerator = Accelerator::kSimHash;
    spec.engine = BaseEngine(6, threads);
    spec.simhash.banding = {6, 3};
    ExpectSnapshotParity(spec, fit_data, arrivals);
  }
}

TEST(ServingGoldenTest, MixedConcatRouteMatchesPredictRouted) {
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
  for (const uint32_t threads : {1u, 4u}) {
    ClustererSpec spec;
    spec.modality = Modality::kMixed;
    spec.accelerator = Accelerator::kMixedConcat;
    spec.engine = BaseEngine(5, threads);
    spec.gamma = 0.5;
    spec.mixed_index.categorical_banding = {8, 2};
    spec.mixed_index.numeric_banding = {4, 8};
    ExpectSnapshotParity(spec, fit_data, arrivals);
  }
}

TEST(ServingGoldenTest, ExhaustiveSnapshotMatchesPredict) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto arrivals = SliceCategorical(all, 300, 60);
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kExhaustive;
  spec.engine = BaseEngine(8, 1);
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(fit_data).ok());
  auto predicted = clusterer->Predict(arrivals);
  ASSERT_TRUE(predicted.ok());

  auto snapshot = clusterer->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_FALSE((*snapshot)->has_index());
  auto routed = (*snapshot)->Route(arrivals);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, *predicted);
}

// ------------------------------------------------------------- lifetime ----

TEST(ServingLifetimeTest, SnapshotAndHandleOutliveRefitAndClusterer) {
  const auto all = CategoricalAll();
  const auto fit_a = SliceCategorical(all, 0, 200);
  const auto fit_b = SliceCategorical(all, 50, 250);
  const auto arrivals = SliceCategorical(all, 300, 60);

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto created = Clusterer::Create(spec);
  ASSERT_TRUE(created.ok());
  std::optional<Clusterer> clusterer(std::move(*created));
  ASSERT_TRUE(clusterer->Fit(fit_a).ok());

  auto handle = clusterer->index();
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->num_indexed_items(), 200u);
  const std::vector<uint32_t> probes = {0u, 57u, 199u};
  std::vector<std::vector<uint32_t>> candidates;
  for (const uint32_t item : probes) {
    candidates.push_back(handle->CandidateClustersOf(item));
  }
  const auto expect_fit_a_handle = [&] {
    EXPECT_EQ(handle->num_indexed_items(), 200u);
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(handle->CandidateClustersOf(probes[i]), candidates[i])
          << "item " << probes[i];
    }
  };

  auto snapshot = clusterer->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  auto before = (*snapshot)->Route(arrivals);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, *clusterer->PredictRouted(arrivals));

  // Refit on different data: the Clusterer swaps in a new model; the
  // handle and the snapshot keep describing and routing fit A.
  ASSERT_TRUE(clusterer->Fit(fit_b).ok());
  auto fresh = clusterer->index();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->num_indexed_items(), 250u);
  expect_fit_a_handle();
  auto after = (*snapshot)->Route(arrivals);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);

  // Destroying the Clusterer frees nothing the handle and snapshot hold
  // (ASan would flag a dangling view here).
  clusterer.reset();
  expect_fit_a_handle();
  auto orphaned = (*snapshot)->Route(arrivals);
  ASSERT_TRUE(orphaned.ok());
  EXPECT_EQ(*orphaned, *before);
}

TEST(ServingLifetimeTest, SnapshotIsTheFittedModelItself) {
  const auto all = CategoricalAll();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(SliceCategorical(all, 0, 200)).ok());

  // Two snapshots of one fit are one object: Snapshot is a refcount copy.
  auto first = clusterer->Snapshot();
  auto second = clusterer->Snapshot();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());

  // A rejected fit (k > n) keeps the fitted model.
  ASSERT_FALSE(clusterer->Fit(SliceCategorical(all, 0, 4)).ok());
  auto after_rejected = clusterer->Snapshot();
  ASSERT_TRUE(after_rejected.ok());
  EXPECT_EQ(after_rejected->get(), first->get());

  // A successful refit builds a new model.
  ASSERT_TRUE(clusterer->Fit(SliceCategorical(all, 100, 200)).ok());
  auto refit = clusterer->Snapshot();
  ASSERT_TRUE(refit.ok());
  EXPECT_NE(refit->get(), first->get());
}

TEST(ServingLifetimeTest, SnapshotOutlivesItsClusterer) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto arrivals = SliceCategorical(all, 300, 60);
  std::shared_ptr<const FrozenModel> snapshot;
  std::vector<uint32_t> expected;
  {
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = Accelerator::kMinHash;
    spec.engine = BaseEngine(8, 1);
    spec.minhash.banding = {8, 2};
    auto clusterer = Clusterer::Create(spec);
    ASSERT_TRUE(clusterer.ok());
    ASSERT_TRUE(clusterer->Fit(fit_data).ok());
    expected = *clusterer->PredictRouted(arrivals);
    snapshot = *clusterer->Snapshot();
  }  // Clusterer destroyed; the snapshot aliases none of its state.
  auto routed = snapshot->Route(arrivals);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, expected);
}

TEST(ServingLifetimeTest, SnapshotRequiresFit) {
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.engine.num_clusters = 4;
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  EXPECT_EQ(clusterer->Snapshot().status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- errors ----

TEST(ServingErrorsTest, WrongModalityAndShapeAreRejected) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(fit_data).ok());
  auto snapshot = clusterer->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const FrozenModel& model = **snapshot;

  // Wrong modality: a categorical snapshot cannot route numeric queries.
  GaussianMixtureOptions numeric;
  numeric.num_items = 8;
  numeric.dimensions = 3;
  numeric.num_clusters = 2;
  const auto wrong = GenerateGaussianMixture(numeric).ValueOrDie();
  EXPECT_EQ(model.Route(wrong).status().code(), StatusCode::kInvalidArgument);

  // Wrong width.
  const auto skinny =
      CategoricalDataset::FromCodes(2, 2, 40, {0, 1, 2, 3}).ValueOrDie();
  EXPECT_EQ(model.Route(skinny).status().code(), StatusCode::kInvalidArgument);

  // Mis-sized output span.
  const auto arrivals = SliceCategorical(all, 300, 60);
  auto scratch = model.MakeScratch();
  std::vector<uint32_t> short_out(10);
  EXPECT_EQ(model.RouteInto(arrivals, *scratch, short_out).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingErrorsTest, ScratchIsReusableAcrossModels) {
  const auto all = CategoricalAll();
  const auto arrivals = SliceCategorical(all, 300, 60);

  // Two snapshots from different fits (different data, different banding):
  // one reader scratch serves both, resizing itself on first use — the
  // property that lets a reader survive a ModelServer swap allocation-free.
  auto make_snapshot = [&](uint32_t begin, uint32_t bands, uint32_t rows) {
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = Accelerator::kMinHash;
    spec.engine = BaseEngine(8, 1);
    spec.minhash.banding = {bands, rows};
    auto clusterer = Clusterer::Create(spec);
    EXPECT_TRUE(clusterer.ok());
    EXPECT_TRUE(clusterer->Fit(SliceCategorical(all, begin, 200)).ok());
    return *clusterer->Snapshot();
  };
  const auto model_a = make_snapshot(0, 8, 2);
  const auto model_b = make_snapshot(100, 4, 3);

  auto scratch = model_a->MakeScratch();
  std::vector<uint32_t> out(arrivals.num_items());
  ASSERT_TRUE(model_a->RouteInto(arrivals, *scratch, out).ok());
  EXPECT_EQ(out, *model_a->Route(arrivals));
  ASSERT_TRUE(model_b->RouteInto(arrivals, *scratch, out).ok());
  EXPECT_EQ(out, *model_b->Route(arrivals));
  ASSERT_TRUE(model_a->RouteInto(arrivals, *scratch, out).ok());
  EXPECT_EQ(out, *model_a->Route(arrivals));
}

// ------------------------------------------------------- routing oracle ----

using serving::internal::FrozenModelImpl;

/// What the reference saw over a query set: shortlists on each side of
/// the k/4 scan crossover, empty probes, answers tied (equal distance)
/// with another shortlisted cluster, and queries of a masked model whose
/// key some band never inserted.
struct OracleCounts {
  uint32_t below_crossover = 0;
  uint32_t at_or_above_crossover = 0;
  uint32_t empty_probes = 0;
  uint32_t ties = 0;
  uint32_t masked_band_misses = 0;

  OracleCounts& operator+=(const OracleCounts& other) {
    below_crossover += other.below_crossover;
    at_or_above_crossover += other.at_or_above_crossover;
    empty_probes += other.empty_probes;
    ties += other.ties;
    masked_band_misses += other.masked_band_misses;
    return *this;
  }
};

/// Appends `cluster` unless `clusters` already holds it.
void AddDistinct(std::vector<uint32_t>& clusters, uint32_t cluster) {
  if (std::find(clusters.begin(), clusters.end(), cluster) == clusters.end()) {
    clusters.push_back(cluster);
  }
}

/// Whether `model`, a routed model of (Traits, Family), routes from
/// per-bucket cluster masks.
template <typename Traits, typename Family>
bool RoutesFromMasks(const FrozenModel& model) {
  const auto* impl =
      dynamic_cast<const FrozenModelImpl<Traits, Family>*>(&model);
  EXPECT_NE(impl, nullptr) << "not a routed model of the expected family";
  return impl != nullptr && impl->cluster_masks() != nullptr;
}

bool NumericRoutesFromMasks(const FrozenModel& model) {
  return RoutesFromMasks<NumericClusteringTraits, SimHashShortlistFamily>(
      model);
}

/// Routes `queries` through `model` (twice, through one scratch) and
/// expects exactly the routing rule computed the slow way: sign (with the
/// model's own hashers), walk every co-bucketed fitted item through the
/// fit assignment, sort the distinct clusters, score each with the exact
/// distance and keep the first strict minimum; an empty probe scores all
/// k clusters from cluster 0 instead. Also checks the mask gate and, when
/// the model filled masks, that each query's OR of bucket masks is the
/// item walk's clusters as a set.
template <typename Traits, typename Family>
OracleCounts ExpectRoutesMatchReference(const FrozenModel& model,
                                        const typename Traits::Dataset& queries,
                                        const std::string& label) {
  using Model = FrozenModelImpl<Traits, Family>;
  const auto* impl = dynamic_cast<const Model*>(&model);
  if (impl == nullptr) {
    ADD_FAILURE() << label << ": not a routed model of the expected family";
    return {};
  }
  const BandedIndex& index = *impl->index();
  const uint32_t k = impl->num_clusters();
  const BucketClusterMasks* masks = impl->cluster_masks();
  EXPECT_EQ(masks != nullptr, index.ClusterMasksFit(k)) << label;
  // Every band's inserted keys, to tell which bands a query misses.
  const BandedIndex::Raw raw = index.ToRaw();

  OracleCounts counts;
  std::vector<uint32_t> expected(queries.num_items());
  serving::RoutedScratch signing = impl->NewRoutedScratch();
  const std::span<const uint64_t> signature = signing.signature;
  std::vector<uint64_t> mask((k + 63) / 64);
  for (uint32_t item = 0; item < queries.num_items(); ++item) {
    impl->SignQuery(queries, item, signing);
    std::vector<uint32_t> shortlist;
    index.VisitCandidatesOfSignature(signature, [&](uint32_t other) {
      AddDistinct(shortlist, impl->fit_assignment()[other]);
    });
    std::sort(shortlist.begin(), shortlist.end());
    if (masks != nullptr) {
      index.OrClusterMasksOfSignature(signature, *masks, mask.data());
      std::vector<uint32_t> members;
      for (uint32_t cluster = 0; cluster < k; ++cluster) {
        if ((mask[cluster / 64] >> (cluster % 64)) & 1) {
          members.push_back(cluster);
        }
      }
      EXPECT_EQ(members, shortlist) << label << ", cluster mask, item "
                                    << item;
      for (uint32_t band = 0; band < raw.bands.size(); ++band) {
        const BandedIndex::RawBand& b = raw.bands[band];
        const uint64_t key = ComputeBandKey(signature.data() + b.offset,
                                            band, b.rows);
        if (std::find(b.bucket_keys.begin(), b.bucket_keys.end(), key) ==
            b.bucket_keys.end()) {
          ++counts.masked_band_misses;
          break;
        }
      }
    }
    if (shortlist.empty()) {
      ++counts.empty_probes;
      shortlist.resize(k);
      std::iota(shortlist.begin(), shortlist.end(), 0u);
    } else if (shortlist.size() * 4 >= k) {
      ++counts.at_or_above_crossover;
    } else {
      ++counts.below_crossover;
    }
    const auto distance = [&](uint32_t cluster) {
      return Traits::template ComputeDistance<false>(
          queries, impl->centroids(), impl->options(), item, cluster,
          Traits::kInfiniteDistance);
    };
    uint32_t best = shortlist.front();
    auto best_distance = distance(best);
    bool tied = false;
    for (size_t i = 1; i < shortlist.size(); ++i) {
      const auto d = distance(shortlist[i]);
      if (d < best_distance) {
        best_distance = d;
        best = shortlist[i];
        tied = false;
      } else if (d == best_distance) {
        tied = true;
      }
    }
    counts.ties += tied ? 1 : 0;
    expected[item] = best;
  }

  auto scratch = model.MakeScratch();
  std::vector<uint32_t> out(queries.num_items());
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(model.RouteInto(queries, *scratch, out).ok()) << label;
    EXPECT_EQ(out, expected) << label << ", RouteInto round " << round;
  }
  return counts;
}

/// `model` saved, decoded and rebuilt with `edit` applied to the decoded
/// arrays; the rebuilt model fills its own cluster masks.
std::shared_ptr<const FrozenModel> Rebuilt(
    const FrozenModel& model, const std::string& name,
    const std::function<void(persist::DecodedModel&)>& edit) {
  const std::string path = ::testing::TempDir() + "serving_oracle_" + name;
  EXPECT_TRUE(serving::SaveFrozenModel(model, path).ok());
  auto decoded = persist::DecodeModelFile(path);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  edit(*decoded);
  auto built = persist::BuildFrozenModel(std::move(*decoded));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

NumericDataset OracleNumeric(uint32_t items) {
  GaussianMixtureOptions options;
  options.num_items = items;
  options.dimensions = 8;
  options.num_clusters = 24;
  options.stddev = 1.5;
  options.seed = 23;
  return GenerateGaussianMixture(options).ValueOrDie();
}

ClustererSpec NumericOracleSpec(BandingParams banding, uint32_t threads,
                                uint32_t shards) {
  ClustererSpec spec;
  spec.modality = Modality::kNumeric;
  spec.accelerator = Accelerator::kSimHash;
  spec.engine = BaseEngine(24, threads);
  spec.engine.num_shards = shards;
  spec.simhash.banding = banding;
  return spec;
}

std::shared_ptr<const FrozenModel> FitSnapshot(const ClustererSpec& spec,
                                               const auto& data) {
  auto clusterer = Clusterer::Create(spec);
  EXPECT_TRUE(clusterer.ok()) << clusterer.status().ToString();
  EXPECT_TRUE(clusterer->Fit(data).ok());
  return *clusterer->Snapshot();
}

TEST(RoutingOracleTest, NumericRoutesEqualTheItemWalkReference) {
  const auto all = OracleNumeric(800);
  const auto fit_data = SliceNumeric(all, 0, 600);
  const auto held_out = SliceNumeric(all, 600, 200);
  OracleCounts total;
  uint32_t with_masks = 0;
  for (const BandingParams banding :
       {BandingParams{8, 3}, BandingParams{6, 5}, BandingParams{3, 9}}) {
    const auto model = FitSnapshot(NumericOracleSpec(banding, 1, 1), fit_data);
    const std::string label = "numeric " + std::to_string(banding.bands) +
                              "b" + std::to_string(banding.rows) + "r";
    with_masks += NumericRoutesFromMasks(*model) ? 1 : 0;
    // Fitted items as queries reach every bucket of every band.
    total += ExpectRoutesMatchReference<NumericClusteringTraits,
                                        SimHashShortlistFamily>(
        *model, fit_data, label + ", fitted items");
    total += ExpectRoutesMatchReference<NumericClusteringTraits,
                                        SimHashShortlistFamily>(
        *model, held_out, label + ", held out");
  }
  // SimHash's coarse bands make dense buckets: masked routing.
  EXPECT_GE(with_masks, 1u) << "no banding filled cluster masks";
  EXPECT_GT(total.below_crossover, 0u);
  EXPECT_GT(total.at_or_above_crossover, 0u);
  EXPECT_GT(total.masked_band_misses, 0u)
      << "no masked query missed a band, so the band skip went untested";
}

TEST(RoutingOracleTest, CategoricalAndMixedRoutesEqualTheReference) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto held_out = SliceCategorical(all, 300, 60);
  OracleCounts categorical;
  uint32_t without_masks = 0;
  for (const BandingParams banding :
       {BandingParams{8, 2}, BandingParams{12, 4}, BandingParams{4, 6}}) {
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = Accelerator::kMinHash;
    spec.engine = BaseEngine(16, 1);
    spec.minhash.banding = banding;
    const auto model = FitSnapshot(spec, fit_data);
    const std::string label = "categorical " +
                              std::to_string(banding.bands) + "b" +
                              std::to_string(banding.rows) + "r";
    without_masks += RoutesFromMasks<CategoricalClusteringTraits,
                                     MinHashShortlistFamily>(*model)
                         ? 0
                         : 1;
    categorical += ExpectRoutesMatchReference<CategoricalClusteringTraits,
                                              MinHashShortlistFamily>(
        *model, held_out, label);
  }
  EXPECT_GE(without_masks, 1u) << "every categorical banding filled masks";
  EXPECT_GT(categorical.below_crossover, 0u);
  EXPECT_GT(categorical.at_or_above_crossover, 0u);
  EXPECT_GT(categorical.ties, 0u);

  // Many small rules over a wide domain: the buckets hold about one item
  // each, so the model walks bucket items.
  MixedDataOptions options;
  options.categorical.num_items = 260;
  options.categorical.num_attributes = 8;
  options.categorical.num_clusters = 60;
  options.categorical.domain_size = 400;
  options.categorical.seed = 41;
  options.numeric_dimensions = 4;
  options.stddev = 1.0;
  const auto mixed = GenerateMixedData(options).ValueOrDie();
  const auto mixed_fit =
      MixedDataset::Combine(SliceCategorical(mixed.categorical(), 0, 200),
                            SliceNumeric(mixed.numeric(), 0, 200))
          .ValueOrDie();
  const auto mixed_held_out =
      MixedDataset::Combine(SliceCategorical(mixed.categorical(), 200, 60),
                            SliceNumeric(mixed.numeric(), 200, 60))
          .ValueOrDie();
  ClustererSpec spec;
  spec.modality = Modality::kMixed;
  spec.accelerator = Accelerator::kMixedConcat;
  spec.engine = BaseEngine(8, 1);
  spec.gamma = 0.5;
  spec.mixed_index.categorical_banding = {3, 5};
  spec.mixed_index.numeric_banding = {2, 10};
  const auto model = FitSnapshot(spec, mixed_fit);
  EXPECT_FALSE((RoutesFromMasks<MixedClusteringTraits, MixedShortlistFamily>(
      *model)));
  const OracleCounts mixed_counts =
      ExpectRoutesMatchReference<MixedClusteringTraits, MixedShortlistFamily>(
          *model, mixed_held_out, "mixed");
  EXPECT_GT(mixed_counts.at_or_above_crossover, 0u);
  EXPECT_GT(categorical.empty_probes + mixed_counts.empty_probes, 0u)
      << "no query took the exhaustive fallback";
}

TEST(RoutingOracleTest, DuplicateCentroidsTieToTheLowerId) {
  const auto all = OracleNumeric(800);
  const auto fit_data = SliceNumeric(all, 0, 600);
  const auto held_out = SliceNumeric(all, 600, 200);
  const auto fitted = FitSnapshot(NumericOracleSpec({8, 3}, 1, 1), fit_data);
  // Every odd cluster gets its even neighbour's centroid, so any query
  // whose shortlist holds both sees an exact tie.
  const auto duplicated =
      Rebuilt(*fitted, "numeric_dup", [](persist::DecodedModel& decoded) {
        const size_t d = decoded.shape_primary;
        for (size_t c = 0; c + 1 < decoded.num_clusters; c += 2) {
          std::copy_n(decoded.centroid_values.begin() + c * d, d,
                      decoded.centroid_values.begin() + (c + 1) * d);
        }
      });
  EXPECT_TRUE(NumericRoutesFromMasks(*duplicated));
  OracleCounts counts =
      ExpectRoutesMatchReference<NumericClusteringTraits,
                                 SimHashShortlistFamily>(
          *duplicated, held_out, "numeric duplicates");
  EXPECT_GT(counts.ties, 0u);
  EXPECT_GT(counts.at_or_above_crossover, 0u);

  const auto categorical = CategoricalAll();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(16, 1);
  spec.minhash.banding = {8, 2};
  const auto fitted_modes =
      FitSnapshot(spec, SliceCategorical(categorical, 0, 300));
  const auto duplicated_modes = Rebuilt(
      *fitted_modes, "categorical_dup", [](persist::DecodedModel& decoded) {
        const size_t m = decoded.shape_primary;
        for (size_t c = 0; c + 1 < decoded.num_clusters; c += 2) {
          std::copy_n(decoded.mode_codes.begin() + c * m, m,
                      decoded.mode_codes.begin() + (c + 1) * m);
        }
      });
  counts = ExpectRoutesMatchReference<CategoricalClusteringTraits,
                                      MinHashShortlistFamily>(
      *duplicated_modes, SliceCategorical(categorical, 300, 60),
      "categorical duplicates");
  EXPECT_GT(counts.ties, 0u);
}

TEST(RoutingOracleTest, LoadedModelRebuildsItsClusterMasks) {
  const auto all = OracleNumeric(800);
  const auto fit_data = SliceNumeric(all, 0, 600);
  const auto held_out = SliceNumeric(all, 600, 200);
  const auto fitted = FitSnapshot(NumericOracleSpec({8, 3}, 1, 1), fit_data);
  ASSERT_TRUE(NumericRoutesFromMasks(*fitted));

  const std::string path = ::testing::TempDir() + "serving_oracle_saved";
  ASSERT_TRUE(serving::SaveFrozenModel(*fitted, path).ok());
  auto loaded = serving::LoadFrozenModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(NumericRoutesFromMasks(**loaded));
  // A fitted index's key maps are sized to its buckets, as loading sizes
  // them, so the round trip keeps the footprint.
  EXPECT_EQ((*loaded)->memory_bytes(), fitted->memory_bytes());
  EXPECT_EQ(*(*loaded)->Route(held_out), *fitted->Route(held_out));
  ExpectRoutesMatchReference<NumericClusteringTraits, SimHashShortlistFamily>(
      **loaded, held_out, "loaded");

  // The masks are rebuilt, never stored: re-saving the loaded model
  // writes the same bytes.
  const std::string resaved = path + "_again";
  ASSERT_TRUE(serving::SaveFrozenModel(**loaded, resaved).ok());
  EXPECT_EQ(FileBytes(resaved), FileBytes(path));
}

TEST(RoutingOracleTest, PredictRoutedEqualsTheReferenceAcrossThreadsAndShards) {
  const auto all = OracleNumeric(800);
  const auto fit_data = SliceNumeric(all, 0, 600);
  const auto held_out = SliceNumeric(all, 600, 200);
  for (const uint32_t threads : {1u, 4u}) {
    for (const uint32_t shards : {1u, 3u}) {
      const std::string label = "threads " + std::to_string(threads) +
                                ", shards " + std::to_string(shards);
      auto clusterer =
          Clusterer::Create(NumericOracleSpec({8, 3}, threads, shards));
      ASSERT_TRUE(clusterer.ok()) << clusterer.status().ToString();
      ASSERT_TRUE(clusterer->Fit(fit_data).ok());
      const auto model = *clusterer->Snapshot();
      ASSERT_TRUE(NumericRoutesFromMasks(*model)) << label;
      auto routed = clusterer->PredictRouted(held_out);
      ASSERT_TRUE(routed.ok()) << routed.status().ToString();
      // The reference pins RouteInto; PredictRouted must equal it.
      ExpectRoutesMatchReference<NumericClusteringTraits,
                                 SimHashShortlistFamily>(*model, held_out,
                                                         label);
      EXPECT_EQ(*routed, *model->Route(held_out)) << label;
    }
  }
}

// ---------------------------------------------------------- model server ----

TEST(ModelServerTest, PublishStampsMonotoneVersionsAndAcquireSeesLatest) {
  const auto all = CategoricalAll();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());

  ModelServer server;
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(server.Acquire(), nullptr);

  ASSERT_TRUE(clusterer->Fit(SliceCategorical(all, 0, 200)).ok());
  auto first = *clusterer->Snapshot();
  EXPECT_EQ(server.Publish(first), 1u);
  EXPECT_EQ(first->version(), 1u);
  EXPECT_EQ(server.version(), 1u);
  EXPECT_EQ(server.Acquire().get(), first.get());

  ASSERT_TRUE(clusterer->Fit(SliceCategorical(all, 100, 200)).ok());
  auto second = *clusterer->Snapshot();
  EXPECT_EQ(server.Publish(second), 2u);
  EXPECT_EQ(second->version(), 2u);
  EXPECT_EQ(server.Acquire().get(), second.get());
  // The replaced snapshot keeps its stamp and keeps working.
  EXPECT_EQ(first->version(), 1u);
}

// The TSan target: M readers route batches through their per-thread
// ModelServer::Reader + scratch while a writer publishes K snapshots.
// The query path takes no locks (Reader::Current is one atomic version
// load while the version is unchanged); every routed batch must be
// bit-identical to the pre-computed expectation of the exact snapshot
// version it acquired, and versions must be monotone per reader.
TEST(ModelServerTest, ConcurrentReadersSeeCoherentBitIdenticalVersions) {
  const auto all = CategoricalAll();
  const auto arrivals = SliceCategorical(all, 300, 60);

  constexpr int kSnapshots = 6;
  std::vector<std::shared_ptr<const FrozenModel>> snapshots;
  std::vector<std::vector<uint32_t>> expected;
  for (int i = 0; i < kSnapshots; ++i) {
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.accelerator = Accelerator::kMinHash;
    spec.engine = BaseEngine(8, 1);
    spec.engine.seed = 5 + static_cast<uint64_t>(i);
    spec.minhash.banding = {8, 2};
    auto clusterer = Clusterer::Create(spec);
    ASSERT_TRUE(clusterer.ok());
    ASSERT_TRUE(
        clusterer->Fit(SliceCategorical(all, 10u * static_cast<uint32_t>(i),
                                        250))
            .ok());
    snapshots.push_back(*clusterer->Snapshot());
    expected.push_back(*snapshots.back()->Route(arrivals));
  }

  ModelServer server;
  server.Publish(snapshots[0]);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> version_regressions{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ModelServer::Reader reader(server);
      std::unique_ptr<FrozenModel::RouteScratch> scratch;
      std::vector<uint32_t> out(arrivals.num_items());
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const FrozenModel>& model = reader.Current();
        const uint64_t version = model->version();
        if (version < last_version) version_regressions.fetch_add(1);
        last_version = version;
        if (scratch == nullptr) scratch = model->MakeScratch();
        if (!model->RouteInto(arrivals, *scratch, out).ok() ||
            out != expected[version - 1]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }

  // Writer: publish the remaining snapshots, yielding between swaps so
  // readers interleave with several distinct versions.
  for (int i = 1; i < kSnapshots; ++i) {
    std::this_thread::yield();
    EXPECT_EQ(server.Publish(snapshots[i]), static_cast<uint64_t>(i + 1));
  }
  // Let readers route against the final version too.
  std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(version_regressions.load(), 0);
}

// One model published to two servers: the model's own stamp is that of
// its latest publish on either server, so each Reader must gate on its
// server's version, refreshing exactly once per publish it observes.
TEST(ModelServerTest, OneModelOnTwoServersRefreshesOncePerPublish) {
  const auto all = CategoricalAll();
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(SliceCategorical(all, 100, 200)).ok());
  const std::shared_ptr<const FrozenModel> other = *clusterer->Snapshot();
  ASSERT_TRUE(clusterer->Fit(SliceCategorical(all, 0, 200)).ok());
  const std::shared_ptr<const FrozenModel> model = *clusterer->Snapshot();

  ModelServer server_a;
  ModelServer server_b;
  EXPECT_EQ(server_b.Publish(other), 1u);
  EXPECT_EQ(server_a.Publish(model), 1u);
  EXPECT_EQ(server_b.Publish(model), 2u);
  EXPECT_EQ(model->version(), 2u);  // the stamp of its latest publish

  ModelServer::Reader reader_a(server_a);
  ModelServer::Reader reader_b(server_b);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reader_a.Current().get(), model.get());
    EXPECT_EQ(reader_b.Current().get(), model.get());
  }
  EXPECT_EQ(reader_a.refreshes(), 1u);
  EXPECT_EQ(reader_b.refreshes(), 1u);

  // A publish on one server refreshes only that server's readers, once.
  EXPECT_EQ(server_a.Publish(other), 2u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reader_a.Current().get(), other.get());
    EXPECT_EQ(reader_b.Current().get(), model.get());
  }
  EXPECT_EQ(reader_a.refreshes(), 2u);
  EXPECT_EQ(reader_b.refreshes(), 1u);
}

/// `rows` repeated `copies` times.
CategoricalDataset Tile(const CategoricalDataset& rows, uint32_t copies) {
  std::vector<uint32_t> codes;
  for (uint32_t c = 0; c < copies; ++c) {
    codes.insert(codes.end(), rows.codes().begin(), rows.codes().end());
  }
  return CategoricalDataset::FromCodes(rows.num_items() * copies,
                                       rows.num_attributes(), rows.num_codes(),
                                       std::move(codes))
      .ValueOrDie();
}

// The TSan target for the shared model: readers route the Clusterer's own
// model through a ModelServer while the owning thread runs PredictRouted
// (with a worker pool) and index() over that same object, then refits and
// publishes the new model. Every reader batch must equal the routes of
// the version it acquired, precomputed on a twin Clusterer.
TEST(ModelServerTest, ReadersShareTheClusterersModelWhileItRoutesAndRefits) {
  const auto all = CategoricalAll();
  const auto fit_a = SliceCategorical(all, 0, 250);
  const auto fit_b = SliceCategorical(all, 50, 250);
  const auto arrivals = SliceCategorical(all, 300, 60);
  // Large enough for PredictRouted to fan out over its worker pool.
  constexpr uint32_t kCopies = 70;
  const auto tiled = Tile(arrivals, kCopies);
  ASSERT_GE(tiled.num_items(), 4096u);

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 4);
  spec.minhash.banding = {8, 2};
  std::vector<std::vector<uint32_t>> expected;
  {
    auto twin = Clusterer::Create(spec);
    ASSERT_TRUE(twin.ok());
    for (const CategoricalDataset* data : {&fit_a, &fit_b}) {
      ASSERT_TRUE(twin->Fit(*data).ok());
      expected.push_back(*twin->PredictRouted(arrivals));
    }
  }
  const auto tiled_expected = [&](size_t version) {
    std::vector<uint32_t> routes;
    for (uint32_t c = 0; c < kCopies; ++c) {
      routes.insert(routes.end(), expected[version].begin(),
                    expected[version].end());
    }
    return routes;
  };

  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(fit_a).ok());
  ModelServer server;
  server.Publish(*clusterer->Snapshot());

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> batches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ModelServer::Reader reader(server);
      std::unique_ptr<FrozenModel::RouteScratch> scratch;
      std::vector<uint32_t> out(arrivals.num_items());
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const FrozenModel>& model = reader.Current();
        const uint64_t version = model->version();
        if (scratch == nullptr) scratch = model->MakeScratch();
        if (version < 1 || version > expected.size() ||
            !model->RouteInto(arrivals, *scratch, out).ok() ||
            out != expected[version - 1]) {
          mismatches.fetch_add(1);
        }
        batches.fetch_add(1);
      }
    });
  }

  // The owner routes and inspects the very model the readers hold...
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(*clusterer->PredictRouted(tiled), tiled_expected(0));
    auto handle = clusterer->index();
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->num_indexed_items(), fit_a.num_items());
    EXPECT_FALSE(handle->CandidateClustersOf(0).empty());
  }
  // ...then refits and publishes the new model while readers still route
  // the old one.
  ASSERT_TRUE(clusterer->Fit(fit_b).ok());
  server.Publish(*clusterer->Snapshot());
  EXPECT_EQ(*clusterer->PredictRouted(tiled), tiled_expected(1));
  while (batches.load() < 4 * kReaders) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------------ streaming ----

TEST(ServingStreamingTest, PublishEveryNIngestsFiresAtDocumentedCadence) {
  const auto all = CategoricalAll();
  const auto warmup = SliceCategorical(all, 0, 200);
  const uint32_t m = all.num_attributes();

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());

  ModelServer server;
  StreamingSessionOptions session_options;
  session_options.publish_to = &server;
  session_options.publish_every = 3;
  auto session = clusterer->MakeStreamingSession(warmup, session_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(server.version(), 0u);  // no publish before the first ingest

  // Ten single-row ingests at publish_every=3: publishes after rows 3, 6
  // and 9 (the counter restarts from zero each publish).
  for (uint32_t row = 0; row < 10; ++row) {
    const std::span<const uint32_t> codes(
        all.codes().data() + static_cast<size_t>(200 + row) * m, m);
    ASSERT_TRUE(session->Ingest(codes).ok());
  }
  EXPECT_EQ(server.version(), 3u);

  // A micro-batch counts all its rows at once: 1 carried + 7 more crosses
  // the threshold exactly once, not twice.
  const std::span<const uint32_t> batch(
      all.codes().data() + static_cast<size_t>(210) * m,
      static_cast<size_t>(7) * m);
  ASSERT_TRUE(session->IngestBatch(batch).ok());
  EXPECT_EQ(server.version(), 4u);

  // The published snapshot is the session's current state: it routes the
  // warmup items and agrees with an explicit Snapshot() taken now.
  const std::shared_ptr<const FrozenModel> published = server.Acquire();
  ASSERT_NE(published, nullptr);
  EXPECT_TRUE(published->has_index());
  auto manual = session->Snapshot();
  ASSERT_TRUE(manual.ok());
  auto from_published = published->Route(warmup);
  auto from_manual = (*manual)->Route(warmup);
  ASSERT_TRUE(from_published.ok());
  ASSERT_TRUE(from_manual.ok());
  EXPECT_EQ(*from_published, *from_manual);
}

TEST(ServingStreamingTest, NoServerMeansNoPublishes) {
  const auto all = CategoricalAll();
  const auto warmup = SliceCategorical(all, 0, 200);
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  // publish_every set but no server: the hook stays dormant (and vice
  // versa a server with publish_every=0 never fires).
  StreamingSessionOptions session_options;
  session_options.publish_every = 1;
  auto session = clusterer->MakeStreamingSession(warmup, session_options);
  ASSERT_TRUE(session.ok());
  const uint32_t m = all.num_attributes();
  const std::span<const uint32_t> row(
      all.codes().data() + static_cast<size_t>(200) * m, m);
  EXPECT_TRUE(session->Ingest(row).ok());
}

}  // namespace
}  // namespace lshclust
