// Tests of the model persistence subsystem (src/persist/):
//
//  * Golden round-trips: a model saved by Snapshot + SaveFrozenModel and
//    reloaded via Clusterer::FromSnapshot (or LoadFrozenModel) routes
//    bit-identically to the fitted clusterer's PredictRouted, for every
//    index-carrying family, at fit threads {1, 4}, and under every SIMD
//    tier the host supports; exhaustive models round-trip to Predict.
//  * Zero re-hashing: a loaded index reports dataset_sign_passes() == 0 —
//    the buckets are adopted from the dump, never re-signed.
//  * Determinism: save -> load -> save is byte-identical.
//  * Corruption: truncation at every section boundary, bit flips in every
//    section, bad magic, wrong version, and inconsistent CSR dumps all
//    come back as clean Status errors.
//  * model file introspection (InspectModelFile), ModelServer
//    ::PublishFromFile, and the hardened dataset serializer
//    (data/serialize.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/clusterer.h"
#include "data/serialize.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "datagen/mixed_generator.h"
#include "lsh/banded_index.h"
#include "persist/model_io.h"
#include "serving/frozen_model.h"
#include "serving/model_server.h"
#include "simd/dispatch.h"

namespace lshclust {
namespace {

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

NumericDataset NumericAll() {
  GaussianMixtureOptions options;
  options.num_items = 300;
  options.dimensions = 6;
  options.num_clusters = 6;
  options.stddev = 0.4;
  options.seed = 31;
  return GenerateGaussianMixture(options).ValueOrDie();
}

MixedDataset MixedAll() {
  MixedDataOptions options;
  options.categorical.num_items = 260;
  options.categorical.num_attributes = 8;
  options.categorical.num_clusters = 5;
  options.categorical.domain_size = 25;
  options.categorical.seed = 41;
  options.numeric_dimensions = 4;
  options.stddev = 0.5;
  return GenerateMixedData(options).ValueOrDie();
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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "persist_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Fits `spec`, saves the snapshot, reloads through both load paths, and
/// proves routing is bit-identical to the fitted clusterer on `arrivals`
/// — plus the zero-re-signing and spec-mirroring contracts.
template <typename Dataset>
void ExpectRoundTripParity(const ClustererSpec& spec, const Dataset& fit_data,
                           const Dataset& arrivals, const std::string& path) {
  auto fitted = Clusterer::Create(spec);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  ASSERT_TRUE(fitted->Fit(fit_data).ok());
  auto expected = fitted->PredictRouted(arrivals);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto snapshot = fitted->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, path).ok());

  // Facade path: a warm-started Clusterer.
  auto loaded = Clusterer::FromSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->spec().modality, spec.modality);
  EXPECT_EQ(loaded->spec().accelerator, spec.accelerator);
  EXPECT_EQ(loaded->spec().engine.num_clusters, spec.engine.num_clusters);
  auto routed = loaded->PredictRouted(arrivals);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(*routed, *expected);

  // The loaded index was adopted from the dump, never re-signed: the
  // signing counter is 0 where the fitted clusterer's is >= 1.
  auto fitted_handle = fitted->index();
  ASSERT_TRUE(fitted_handle.ok());
  EXPECT_GE(fitted_handle->dataset_sign_passes(), 1u);
  auto loaded_handle = loaded->index();
  ASSERT_TRUE(loaded_handle.ok()) << loaded_handle.status().ToString();
  EXPECT_EQ(loaded_handle->dataset_sign_passes(), 0u);

  // Serving path: a routing-ready FrozenModel.
  auto model = serving::LoadFrozenModel(path);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto via_route = (*model)->Route(arrivals);
  ASSERT_TRUE(via_route.ok()) << via_route.status().ToString();
  EXPECT_EQ(*via_route, *expected);

  // A snapshot of the loaded clusterer routes like the original snapshot.
  auto resnapshot = loaded->Snapshot();
  ASSERT_TRUE(resnapshot.ok()) << resnapshot.status().ToString();
  auto via_resnapshot = (*resnapshot)->Route(arrivals);
  ASSERT_TRUE(via_resnapshot.ok());
  EXPECT_EQ(*via_resnapshot, *expected);
}

ClustererSpec MinHashSpec(uint32_t threads) {
  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine = BaseEngine(8, threads);
  spec.minhash.banding = {8, 2};
  return spec;
}

// --------------------------------------------------------- round trips ----

TEST(PersistRoundTripTest, CategoricalMinHashBitIdentical) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto arrivals = SliceCategorical(all, 300, 60);
  for (const uint32_t threads : {1u, 4u}) {
    ExpectRoundTripParity(MinHashSpec(threads), fit_data, arrivals,
                          TempPath("minhash.lshm"));
  }
}

TEST(PersistRoundTripTest, NumericSimHashBitIdentical) {
  const auto all = NumericAll();
  const auto fit_data = SliceNumeric(all, 0, 240);
  const auto arrivals = SliceNumeric(all, 240, 60);
  for (const uint32_t threads : {1u, 4u}) {
    ClustererSpec spec;
    spec.modality = Modality::kNumeric;
    spec.accelerator = Accelerator::kSimHash;
    spec.engine = BaseEngine(6, threads);
    spec.simhash.banding = {6, 3};
    ExpectRoundTripParity(spec, fit_data, arrivals,
                          TempPath("simhash.lshm"));
  }
}

TEST(PersistRoundTripTest, MixedConcatBitIdentical) {
  const auto all = MixedAll();
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
    ExpectRoundTripParity(spec, fit_data, arrivals, TempPath("mixed.lshm"));
  }
}

TEST(PersistRoundTripTest, ExhaustiveModelsRoundTripToPredict) {
  const std::string path = TempPath("exhaustive.lshm");
  {
    const auto all = CategoricalAll();
    const auto fit_data = SliceCategorical(all, 0, 300);
    const auto arrivals = SliceCategorical(all, 300, 60);
    ClustererSpec spec;
    spec.modality = Modality::kCategorical;
    spec.engine = BaseEngine(8, 1);
    auto fitted = Clusterer::Create(spec);
    ASSERT_TRUE(fitted.ok());
    ASSERT_TRUE(fitted->Fit(fit_data).ok());
    auto snapshot = fitted->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, path).ok());

    // An exhaustive file carries exactly model_info + centroids.
    auto info = persist::InspectModelFile(path);
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->sections.size(), 2u);
    EXPECT_EQ(info->sections[0].id, 1u);
    EXPECT_EQ(info->sections[1].id, 2u);

    auto loaded = Clusterer::FromSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->spec().accelerator, Accelerator::kExhaustive);
    EXPECT_EQ(*loaded->PredictRouted(arrivals), *fitted->Predict(arrivals));
  }
  {
    const auto all = NumericAll();
    const auto fit_data = SliceNumeric(all, 0, 240);
    const auto arrivals = SliceNumeric(all, 240, 60);
    ClustererSpec spec;
    spec.modality = Modality::kNumeric;
    spec.engine = BaseEngine(6, 1);
    spec.engine.init_method = InitMethod::kRandom;
    auto fitted = Clusterer::Create(spec);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    ASSERT_TRUE(fitted->Fit(fit_data).ok());
    auto snapshot = fitted->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, path).ok());
    auto loaded = Clusterer::FromSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded->Predict(arrivals), *fitted->Predict(arrivals));
  }
  {
    const auto all = MixedAll();
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
    spec.engine = BaseEngine(5, 1);
    spec.engine.init_method = InitMethod::kRandom;
    spec.gamma = 0.5;
    auto fitted = Clusterer::Create(spec);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    ASSERT_TRUE(fitted->Fit(fit_data).ok());
    auto snapshot = fitted->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, path).ok());
    auto loaded = Clusterer::FromSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->spec().gamma, 0.5);
    EXPECT_EQ(*loaded->Predict(arrivals), *fitted->Predict(arrivals));
  }
}

// Routing kernels are bit-identical across dispatch tiers, and a loaded
// model must be too: under every tier the host supports, a model saved
// under the default tier routes exactly like the fitted clusterer.
TEST(PersistRoundTripTest, LoadedModelMatchesAcrossSimdTiers) {
  struct TierGuard {
    simd::SimdTier saved = simd::ActiveTier();
    ~TierGuard() { simd::ForceSimdTier(saved); }
  } guard;

  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const auto arrivals = SliceCategorical(all, 300, 60);
  const std::string path = TempPath("tiers.lshm");

  auto fitted = Clusterer::Create(MinHashSpec(1));
  ASSERT_TRUE(fitted.ok());
  ASSERT_TRUE(fitted->Fit(fit_data).ok());
  auto snapshot = fitted->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, path).ok());

  for (const simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::SimdTier::kSse42,
        simd::SimdTier::kAvx2, simd::SimdTier::kAvx512}) {
    if (!simd::TierSupported(tier)) continue;
    SCOPED_TRACE(simd::TierName(tier));
    ASSERT_TRUE(simd::ForceSimdTier(tier));
    auto loaded = Clusterer::FromSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded->PredictRouted(arrivals),
              *fitted->PredictRouted(arrivals));
  }
}

TEST(PersistRoundTripTest, SaveLoadSaveIsByteIdentical) {
  const auto all = CategoricalAll();
  const auto fit_data = SliceCategorical(all, 0, 300);
  const std::string first = TempPath("first.lshm");
  const std::string second = TempPath("second.lshm");

  auto fitted = Clusterer::Create(MinHashSpec(1));
  ASSERT_TRUE(fitted.ok());
  ASSERT_TRUE(fitted->Fit(fit_data).ok());
  auto snapshot = fitted->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, first).ok());

  auto model = serving::LoadFrozenModel(first);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(serving::SaveFrozenModel(**model, second).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));

  // The facade's load path builds the same model: its Snapshot saves back
  // to the first file's bytes.
  const std::string third = TempPath("third.lshm");
  auto loaded = Clusterer::FromSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto resnapshot = loaded->Snapshot();
  ASSERT_TRUE(resnapshot.ok()) << resnapshot.status().ToString();
  ASSERT_TRUE(serving::SaveFrozenModel(**resnapshot, third).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(third));
}

// ----------------------------------------------------------- corruption ----

/// A small saved model every corruption test mutilates a copy of.
class PersistCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto all = CategoricalAll();
    const auto fit_data = SliceCategorical(all, 0, 300);
    auto fitted = Clusterer::Create(MinHashSpec(1));
    ASSERT_TRUE(fitted.ok());
    ASSERT_TRUE(fitted->Fit(fit_data).ok());
    auto snapshot = fitted->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    path_ = TempPath("corrupt.lshm");
    ASSERT_TRUE(serving::SaveFrozenModel(**snapshot, path_).ok());
    bytes_ = ReadFileBytes(path_);
    auto info = persist::InspectModelFile(path_);
    ASSERT_TRUE(info.ok());
    info_ = *info;
    // A routed MinHash model carries all five sections.
    ASSERT_EQ(info_.sections.size(), 5u);
  }

  /// Writes `bytes` to a scratch path and expects both load paths to fail
  /// with a clean error.
  void ExpectRejected(const std::string& bytes, const std::string& label) {
    SCOPED_TRACE(label);
    const std::string path = TempPath("mutated.lshm");
    WriteFileBytes(path, bytes);
    auto decoded = persist::DecodeModelFile(path);
    EXPECT_FALSE(decoded.ok());
    auto model = serving::LoadFrozenModel(path);
    EXPECT_FALSE(model.ok());
    auto loaded = Clusterer::FromSnapshot(path);
    EXPECT_FALSE(loaded.ok());
  }

  std::string path_;
  std::string bytes_;
  persist::ModelFileInfo info_;
};

TEST_F(PersistCorruptionTest, RejectsBadMagicAndWrongVersion) {
  std::string bad_magic = bytes_;
  bad_magic[0] = 'X';
  ExpectRejected(bad_magic, "bad magic");

  // Version 1 files carry a longer Family payload, so they must get the
  // typed unsupported-version error on every load path, exactly like a
  // version no build ever wrote.
  for (const char version : {char{1}, char{99}}) {
    std::string wrong_version = bytes_;
    wrong_version[4] = version;
    ExpectRejected(wrong_version, "wrong version");
    const std::string path = TempPath("wrong_version.lshm");
    WriteFileBytes(path, wrong_version);
    const std::string expected =
        "unsupported model format version " + std::to_string(version);
    const Status statuses[] = {persist::DecodeModelFile(path).status(),
                               serving::LoadFrozenModel(path).status(),
                               Clusterer::FromSnapshot(path).status()};
    for (const Status& status : statuses) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_NE(status.message().find(expected), std::string::npos)
          << status.ToString();
    }
  }

  ExpectRejected("", "empty file");
  ExpectRejected("LSH", "shorter than the magic");
}

TEST_F(PersistCorruptionTest, RejectsTruncationAtEverySectionBoundary) {
  // Mid-header, mid-TOC, then at and just before every section boundary.
  ExpectRejected(bytes_.substr(0, 8), "mid-header");
  ExpectRejected(bytes_.substr(0, 12 + 7), "mid-TOC");
  for (const auto& section : info_.sections) {
    SCOPED_TRACE(persist::SectionName(section.id));
    ExpectRejected(bytes_.substr(0, section.offset), "at section start");
    ExpectRejected(bytes_.substr(0, section.offset + section.size - 1),
                   "one byte short of section end");
  }
}

TEST_F(PersistCorruptionTest, BitFlipInAnySectionFailsItsChecksum) {
  for (const auto& section : info_.sections) {
    SCOPED_TRACE(persist::SectionName(section.id));
    std::string flipped = bytes_;
    flipped[section.offset + section.size / 2] ^= 0x40;
    const std::string path = TempPath("flipped.lshm");
    WriteFileBytes(path, flipped);

    auto decoded = persist::DecodeModelFile(path);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().ToString().find("checksum"), std::string::npos)
        << decoded.status().ToString();

    // InspectModelFile localizes the corruption instead of failing.
    auto info = persist::InspectModelFile(path);
    ASSERT_TRUE(info.ok());
    for (const auto& inspected : info->sections) {
      EXPECT_EQ(inspected.crc_ok, inspected.id != section.id);
    }
  }
}

TEST_F(PersistCorruptionTest, FromRawRejectsInconsistentCsrState) {
  auto decoded = persist::DecodeModelFile(path_);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->has_index);
  const BandedIndex::Raw& good = decoded->index_raw;

  {
    BandedIndex::Raw raw = good;
    raw.bands[0].bucket_offsets.back() = raw.num_items - 1;
    EXPECT_FALSE(BandedIndex::FromRaw(std::move(raw)).ok());
  }
  {
    BandedIndex::Raw raw = good;
    raw.bands[0].bucket_items[0] = raw.num_items;  // out of range
    EXPECT_FALSE(BandedIndex::FromRaw(std::move(raw)).ok());
  }
  {
    BandedIndex::Raw raw = good;
    raw.bands[1].offset += 1;  // bands no longer tile the signature
    EXPECT_FALSE(BandedIndex::FromRaw(std::move(raw)).ok());
  }
  {
    BandedIndex::Raw raw = good;
    if (raw.bands[0].bucket_offsets.size() > 2) {
      std::swap(raw.bands[0].bucket_offsets[1],
                raw.bands[0].bucket_offsets[2]);
      // Either non-monotone offsets or a broken item/bucket agreement.
      EXPECT_FALSE(BandedIndex::FromRaw(std::move(raw)).ok());
    }
  }
  // The untouched dump still reconstructs.
  BandedIndex::Raw raw = good;
  EXPECT_TRUE(BandedIndex::FromRaw(std::move(raw)).ok());
}

TEST_F(PersistCorruptionTest, MissingFileIsACleanError) {
  auto loaded = Clusterer::FromSnapshot(TempPath("does_not_exist.lshm"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

// ----------------------------------------------------------- inspection ----

TEST_F(PersistCorruptionTest, InspectReportsTheFullTableOfContents) {
  EXPECT_EQ(info_.format_version, 2u);
  EXPECT_EQ(info_.file_size, bytes_.size());
  // All five, in id order; id 5 is unused since format version 2.
  const uint32_t expected_ids[] = {1, 2, 3, 4, 6};
  uint64_t expected_offset = info_.sections.front().offset;
  for (size_t i = 0; i < info_.sections.size(); ++i) {
    const auto& section = info_.sections[i];
    EXPECT_EQ(section.id, expected_ids[i]);
    EXPECT_EQ(section.offset, expected_offset);
    EXPECT_TRUE(section.crc_ok);
    expected_offset += section.size;
  }
  EXPECT_EQ(expected_offset, bytes_.size());
  EXPECT_STREQ(persist::SectionName(1), "model_info");
  EXPECT_STREQ(persist::SectionName(5), "unknown");
  EXPECT_STREQ(persist::SectionName(6), "assignment");
  EXPECT_STREQ(persist::SectionName(99), "unknown");
}

// ------------------------------------------------------ publish-from-file ----

TEST_F(PersistCorruptionTest, PublishFromFileStampsAndServes) {
  serving::ModelServer server;
  auto version = server.PublishFromFile(path_);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);
  auto model = server.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->version(), 1u);
  EXPECT_TRUE(model->has_index());

  // A failed load leaves the published snapshot untouched.
  auto bad = server.PublishFromFile(TempPath("does_not_exist.lshm"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(server.Acquire(), model);
  EXPECT_EQ(server.version(), 1u);
}

// ------------------------------------------------- dataset serializer ----

TEST(DatasetSerializeHardeningTest, RejectsTruncationAndBadShapes) {
  const auto dataset = CategoricalAll();
  const std::string path = TempPath("dataset.lshc");
  ASSERT_TRUE(SaveDatasetBinary(dataset, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_TRUE(LoadDatasetBinary(path).ok());

  const std::string mutated = TempPath("dataset_mutated.lshc");
  for (const size_t keep :
       {size_t{0}, size_t{3}, size_t{10}, bytes.size() / 2,
        bytes.size() - 1}) {
    SCOPED_TRACE(keep);
    WriteFileBytes(mutated, bytes.substr(0, keep));
    EXPECT_FALSE(LoadDatasetBinary(mutated).ok());
  }

  // num_codes (offset 16) smaller than stored codes: out-of-range codes.
  std::string bad_codes = bytes;
  bad_codes[16] = 1;
  bad_codes[17] = bad_codes[18] = bad_codes[19] = 0;
  WriteFileBytes(mutated, bad_codes);
  EXPECT_FALSE(LoadDatasetBinary(mutated).ok());

  // Implausibly huge item count: must fail cleanly, not allocate wild.
  std::string bad_items = bytes;
  bad_items[8] = bad_items[9] = bad_items[10] = bad_items[11] =
      static_cast<char>(0xFF);
  WriteFileBytes(mutated, bad_items);
  EXPECT_FALSE(LoadDatasetBinary(mutated).ok());
}

}  // namespace
}  // namespace lshclust
