// Tests of the lock-free serving layer (src/serving/):
//
//  * Golden routing: FrozenModel::Route is bit-identical to PredictRouted
//    on the fitted state it snapshotted, for every index-carrying
//    accelerator family and at fit threads {1, 4}; exhaustive snapshots
//    equal plain Predict.
//  * Lifetime: a snapshot is a deep copy — it keeps routing identically
//    after the Clusterer refits (while the IndexHandle from the old fit
//    observably invalidates) and after the Clusterer is destroyed.
//  * ModelServer: Publish stamps strictly monotone versions; Acquire
//    returns the latest snapshot; a concurrent reader/writer pileup (the
//    TSan target) sees coherent, per-version bit-identical results with
//    zero locks on the query path.
//  * Streaming: the publish-every-N-ingests hook fires at the documented
//    cadence.
//  * bench::Percentile (bench/common.h), used by bench/serving_qps.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/clusterer.h"
#include "bench/common.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"
#include "serving/frozen_model.h"
#include "serving/model_server.h"

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

TEST(ServingLifetimeTest, SnapshotSurvivesRefitWhileHandleInvalidates) {
  const auto all = CategoricalAll();
  const auto fit_a = SliceCategorical(all, 0, 200);
  const auto fit_b = SliceCategorical(all, 100, 200);
  const auto arrivals = SliceCategorical(all, 300, 60);

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, 1);
  spec.minhash.banding = {8, 2};
  auto clusterer = Clusterer::Create(spec);
  ASSERT_TRUE(clusterer.ok());
  ASSERT_TRUE(clusterer->Fit(fit_a).ok());

  auto handle = clusterer->index();
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(handle->valid());

  auto snapshot = clusterer->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  auto before = (*snapshot)->Route(arrivals);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, *clusterer->PredictRouted(arrivals));

  // Refit on different data: the view invalidates, the copy keeps serving
  // the old fit's answers.
  ASSERT_TRUE(clusterer->Fit(fit_b).ok());
  EXPECT_FALSE(handle->valid());
  auto after = (*snapshot)->Route(arrivals);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);

  // A rejected fit (k > n) must invalidate nothing.
  auto fresh = clusterer->index();
  ASSERT_TRUE(fresh.ok());
  const auto tiny = SliceCategorical(all, 0, 4);
  ASSERT_FALSE(clusterer->Fit(tiny).ok());
  EXPECT_TRUE(fresh->valid());
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
