/// \file model_io.cpp
/// \brief Implementation of the model persistence subsystem: the section
/// codec (see model_io.h for the layout), the FrozenModel extractor, and
/// the one reconstruction path, BuildFrozenModel, behind both
/// LoadFrozenModel and Clusterer::FromSnapshot.

#include "persist/model_io.h"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "clustering/engine.h"
#include "clustering/kmeans.h"
#include "clustering/kprototypes.h"
#include "serving/frozen_model_impl.h"
#include "serving/model_server.h"
#include "util/binary_io.h"
#include "util/macros.h"

namespace lshclust::persist {

const char* SectionName(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kModelInfo:
      return "model_info";
    case SectionId::kCentroids:
      return "centroids";
    case SectionId::kFamily:
      return "family";
    case SectionId::kIndex:
      return "index";
    case SectionId::kAssignment:
      return "assignment";
  }
  return "unknown";
}

namespace {

/// True for the ids of SectionId; every other id (including the unused 5)
/// is skipped on load.
bool IsKnownSection(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kModelInfo:
    case SectionId::kCentroids:
    case SectionId::kFamily:
    case SectionId::kIndex:
    case SectionId::kAssignment:
      return true;
  }
  return false;
}

using serving::internal::FrozenModelImpl;
using serving::internal::NoFamily;

using CatExhaustive = FrozenModelImpl<CategoricalClusteringTraits, NoFamily>;
using CatRouted =
    FrozenModelImpl<CategoricalClusteringTraits, MinHashShortlistFamily>;
using NumExhaustive = FrozenModelImpl<NumericClusteringTraits, NoFamily>;
using NumRouted =
    FrozenModelImpl<NumericClusteringTraits, SimHashShortlistFamily>;
using MixExhaustive = FrozenModelImpl<MixedClusteringTraits, NoFamily>;
using MixRouted = FrozenModelImpl<MixedClusteringTraits, MixedShortlistFamily>;

/// Numeric dimensionality of the centroid table: the primary shape for a
/// numeric model, the secondary one for a mixed model.
uint32_t CentroidDims(const DecodedModel& model) {
  return model.modality == ModelModality::kNumeric ? model.shape_primary
                                                   : model.shape_secondary;
}

// ---------------------------------------------------------------------------
// Extraction: FrozenModel -> DecodedModel.

void FillModes(const ModeTable& modes, DecodedModel* out) {
  out->has_modes = true;
  out->mode_codes.reserve(static_cast<size_t>(modes.num_clusters()) *
                          modes.num_attributes());
  for (uint32_t c = 0; c < modes.num_clusters(); ++c) {
    const auto row = modes.Mode(c);
    out->mode_codes.insert(out->mode_codes.end(), row.begin(), row.end());
  }
}

void FillCentroids(const CentroidTable& centroids, DecodedModel* out) {
  out->has_centroids = true;
  out->centroid_values.reserve(static_cast<size_t>(centroids.num_clusters()) *
                               centroids.dimensions());
  for (uint32_t c = 0; c < centroids.num_clusters(); ++c) {
    const auto row = centroids.Centroid(c);
    out->centroid_values.insert(out->centroid_values.end(), row.begin(),
                                row.end());
  }
}

template <typename Impl>
void FillCommon(const Impl& impl, ModelModality modality,
                ModelFamilyKind family, DecodedModel* out) {
  out->modality = modality;
  out->family = family;
  out->num_clusters = impl.options().num_clusters;
  out->shape_primary = impl.shape_primary();
  out->shape_secondary = impl.shape_secondary();
}

template <typename Impl>
void FillRouted(const Impl& impl, DecodedModel* out) {
  out->has_index = true;
  out->index_raw = impl.index()->ToRaw();
  const auto assignment = impl.fit_assignment();
  out->fit_assignment.assign(assignment.begin(), assignment.end());
}

/// Downcasts `model` to its concrete snapshot type and dumps exactly the
/// members the snapshot holds. Rejects implementations this build does
/// not know (there are none today; the error guards future model kinds
/// being saved by an old writer path).
Result<DecodedModel> ExtractModel(const serving::FrozenModel& model) {
  DecodedModel out;
  if (const auto* m = dynamic_cast<const CatExhaustive*>(&model)) {
    FillCommon(*m, ModelModality::kCategorical, ModelFamilyKind::kNone, &out);
    FillModes(m->centroids(), &out);
    return out;
  }
  if (const auto* m = dynamic_cast<const CatRouted*>(&model)) {
    FillCommon(*m, ModelModality::kCategorical, ModelFamilyKind::kMinHash,
               &out);
    FillModes(m->centroids(), &out);
    out.minhash = m->family()->options();
    FillRouted(*m, &out);
    return out;
  }
  if (const auto* m = dynamic_cast<const NumExhaustive*>(&model)) {
    FillCommon(*m, ModelModality::kNumeric, ModelFamilyKind::kNone, &out);
    FillCentroids(m->centroids(), &out);
    return out;
  }
  if (const auto* m = dynamic_cast<const NumRouted*>(&model)) {
    FillCommon(*m, ModelModality::kNumeric, ModelFamilyKind::kSimHash, &out);
    FillCentroids(m->centroids(), &out);
    out.simhash = m->family()->options();
    out.simhash_dimensions = m->family()->fitted_dimensions();
    FillRouted(*m, &out);
    return out;
  }
  if (const auto* m = dynamic_cast<const MixExhaustive*>(&model)) {
    FillCommon(*m, ModelModality::kMixed, ModelFamilyKind::kNone, &out);
    out.gamma = m->options().gamma;
    FillModes(m->centroids().modes, &out);
    FillCentroids(m->centroids().centroids, &out);
    return out;
  }
  if (const auto* m = dynamic_cast<const MixRouted*>(&model)) {
    FillCommon(*m, ModelModality::kMixed, ModelFamilyKind::kMixedConcat, &out);
    out.gamma = m->options().gamma;
    FillModes(m->centroids().modes, &out);
    FillCentroids(m->centroids().centroids, &out);
    out.mixed = m->family()->options();
    out.mixed_mean = m->family()->mean();
    FillRouted(*m, &out);
    return out;
  }
  return Status::InvalidArgument(
      "unrecognized FrozenModel implementation; this build cannot persist "
      "it");
}

// ---------------------------------------------------------------------------
// Encoding: DecodedModel -> bytes. Deterministic: sections are emitted in
// fixed id order with fully specified layouts, so save -> load -> save
// reproduces the file byte for byte.

std::string EncodeModelInfo(const DecodedModel& model) {
  std::string payload;
  AppendLeU8(&payload, static_cast<uint8_t>(model.modality));
  AppendLeU8(&payload, static_cast<uint8_t>(model.family));
  AppendLeU32(&payload, model.num_clusters);
  AppendLeU32(&payload, model.shape_primary);
  AppendLeU32(&payload, model.shape_secondary);
  AppendLeF64(&payload, model.gamma);
  return payload;
}

std::string EncodeCentroids(const DecodedModel& model) {
  std::string payload;
  AppendLeU8(&payload, model.has_modes ? 1 : 0);
  AppendLeU8(&payload, model.has_centroids ? 1 : 0);
  if (model.has_modes) {
    AppendLeU32(&payload, model.num_clusters);
    AppendLeU32(&payload, model.shape_primary);
    AppendLeArray<uint32_t>(&payload, model.mode_codes);
  }
  if (model.has_centroids) {
    AppendLeU32(&payload, model.num_clusters);
    AppendLeU32(&payload, CentroidDims(model));
    AppendLeArray<double>(&payload, model.centroid_values);
  }
  return payload;
}

std::string EncodeFamily(const DecodedModel& model) {
  std::string payload;
  switch (model.family) {
    case ModelFamilyKind::kMinHash: {
      const ShortlistIndexOptions& options = model.minhash;
      AppendLeU32(&payload, options.banding.bands);
      AppendLeU32(&payload, options.banding.rows);
      AppendLeU8(&payload, static_cast<uint8_t>(options.algorithm));
      AppendLeU8(&payload, static_cast<uint8_t>(options.minhash_mode));
      AppendLeU64(&payload, options.seed);
      AppendLeU8(&payload, options.keep_signatures ? 1 : 0);
      break;
    }
    case ModelFamilyKind::kSimHash: {
      const SimHashIndexOptions& options = model.simhash;
      AppendLeU32(&payload, options.banding.bands);
      AppendLeU32(&payload, options.banding.rows);
      AppendLeU64(&payload, options.seed);
      AppendLeU32(&payload, model.simhash_dimensions);
      break;
    }
    case ModelFamilyKind::kMixedConcat: {
      const MixedIndexOptions& options = model.mixed;
      AppendLeU32(&payload, options.categorical_banding.bands);
      AppendLeU32(&payload, options.categorical_banding.rows);
      AppendLeU32(&payload, options.numeric_banding.bands);
      AppendLeU32(&payload, options.numeric_banding.rows);
      AppendLeU64(&payload, options.seed);
      AppendLeU32(&payload, static_cast<uint32_t>(model.mixed_mean.size()));
      AppendLeArray<double>(&payload, model.mixed_mean);
      break;
    }
    case ModelFamilyKind::kNone:
      break;
  }
  return payload;
}

std::string EncodeIndex(const BandedIndex::Raw& raw) {
  std::string payload;
  AppendLeU32(&payload, raw.num_items);
  AppendLeU32(&payload, static_cast<uint32_t>(raw.bands.size()));
  for (const BandedIndex::RawBand& band : raw.bands) {
    AppendLeU32(&payload, band.offset);
    AppendLeU32(&payload, band.rows);
    AppendLeU32(&payload, static_cast<uint32_t>(band.bucket_keys.size()));
    AppendLeArray<uint64_t>(&payload, band.bucket_keys);
    AppendLeArray<uint32_t>(&payload, band.bucket_offsets);
    AppendLeArray<uint32_t>(&payload, band.bucket_items);
    AppendLeArray<uint32_t>(&payload, band.item_bucket);
  }
  return payload;
}

std::string EncodeAssignment(const DecodedModel& model) {
  std::string payload;
  AppendLeU32(&payload, static_cast<uint32_t>(model.fit_assignment.size()));
  AppendLeArray<uint32_t>(&payload, model.fit_assignment);
  return payload;
}

std::string EncodeModel(const DecodedModel& model) {
  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.emplace_back(static_cast<uint32_t>(SectionId::kModelInfo),
                        EncodeModelInfo(model));
  sections.emplace_back(static_cast<uint32_t>(SectionId::kCentroids),
                        EncodeCentroids(model));
  if (model.family != ModelFamilyKind::kNone) {
    sections.emplace_back(static_cast<uint32_t>(SectionId::kFamily),
                          EncodeFamily(model));
    sections.emplace_back(static_cast<uint32_t>(SectionId::kIndex),
                          EncodeIndex(model.index_raw));
    sections.emplace_back(static_cast<uint32_t>(SectionId::kAssignment),
                          EncodeAssignment(model));
  }

  std::string file;
  file.append(kModelMagic, sizeof(kModelMagic));
  AppendLeU32(&file, kModelFormatVersion);
  AppendLeU32(&file, static_cast<uint32_t>(sections.size()));
  uint64_t offset = 4 + 4 + 4 + sections.size() * 24u;
  for (const auto& [id, payload] : sections) {
    AppendLeU32(&file, id);
    AppendLeU64(&file, offset);
    AppendLeU64(&file, payload.size());
    AppendLeU32(&file, Crc32(payload.data(), payload.size()));
    offset += payload.size();
  }
  for (const auto& section : sections) {
    file += section.second;
  }
  return file;
}

// ---------------------------------------------------------------------------
// Decoding: bytes -> DecodedModel, validating hard at every step.

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open model file '" + path + "'");
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::IOError("cannot determine size of model file '" + path +
                           "'");
  }
  in.seekg(0, std::ios::beg);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(data.data()), size);
    if (in.gcount() != size) {
      return Status::IOError("failed reading model file '" + path + "'");
    }
  }
  return data;
}

Status Truncated(uint32_t id) {
  return Status::IOError("section '" + std::string(SectionName(id)) +
                         "' is truncated");
}

/// Parses the fixed header + TOC. TOC entries must lie entirely within
/// the file; per-section CRC results land in `crc_ok` (the full decoder
/// turns a false into an error, model_inspect reports it per section).
Status ParseHeader(std::span<const uint8_t> data, ModelFileInfo* info) {
  constexpr size_t kFixedHeader = 4 + 4 + 4;
  if (data.size() < kFixedHeader) {
    return Status::IOError("truncated model file: " +
                           std::to_string(data.size()) +
                           " bytes is smaller than the 12-byte header");
  }
  if (std::memcmp(data.data(), kModelMagic, sizeof(kModelMagic)) != 0) {
    return Status::InvalidArgument(
        "not a model file (magic bytes are not \"LSHM\")");
  }
  ByteReader reader(data);
  reader.Skip(sizeof(kModelMagic));
  uint32_t version = 0;
  uint32_t section_count = 0;
  reader.ReadU32(&version);
  reader.ReadU32(&section_count);
  if (version != kModelFormatVersion) {
    return Status::InvalidArgument(
        "unsupported model format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kModelFormatVersion) +
        ")");
  }
  if (section_count == 0 || section_count > 1024) {
    return Status::InvalidArgument("implausible section count " +
                                   std::to_string(section_count));
  }
  info->format_version = version;
  info->file_size = data.size();
  info->sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionInfo section;
    if (!reader.ReadU32(&section.id) || !reader.ReadU64(&section.offset) ||
        !reader.ReadU64(&section.size) || !reader.ReadU32(&section.crc32)) {
      return Status::IOError(
          "truncated model file: the table of contents is cut short");
    }
    if (section.size > data.size() ||
        section.offset > data.size() - section.size) {
      return Status::IOError("section '" +
                             std::string(SectionName(section.id)) +
                             "' extends past the end of the file");
    }
    section.crc_ok = Crc32(data.data() + section.offset, section.size) ==
                     section.crc32;
    info->sections.push_back(section);
  }
  return Status::OK();
}

Status DecodeModelInfo(ByteReader& reader, DecodedModel* model) {
  constexpr uint32_t id = static_cast<uint32_t>(SectionId::kModelInfo);
  uint8_t modality = 0;
  uint8_t family = 0;
  if (!reader.ReadU8(&modality) || !reader.ReadU8(&family) ||
      !reader.ReadU32(&model->num_clusters) ||
      !reader.ReadU32(&model->shape_primary) ||
      !reader.ReadU32(&model->shape_secondary) ||
      !reader.ReadF64(&model->gamma)) {
    return Truncated(id);
  }
  if (modality > static_cast<uint8_t>(ModelModality::kMixed)) {
    return Status::InvalidArgument("unknown modality tag " +
                                   std::to_string(modality));
  }
  if (family > static_cast<uint8_t>(ModelFamilyKind::kMixedConcat)) {
    return Status::InvalidArgument("unknown family tag " +
                                   std::to_string(family));
  }
  model->modality = static_cast<ModelModality>(modality);
  model->family = static_cast<ModelFamilyKind>(family);
  return Status::OK();
}

Status DecodeCentroids(ByteReader& reader, DecodedModel* model) {
  constexpr uint32_t id = static_cast<uint32_t>(SectionId::kCentroids);
  uint8_t has_modes = 0;
  uint8_t has_centroids = 0;
  if (!reader.ReadU8(&has_modes) || !reader.ReadU8(&has_centroids)) {
    return Truncated(id);
  }
  if (has_modes > 1 || has_centroids > 1) {
    return Status::InvalidArgument("centroids section has malformed flags");
  }
  model->has_modes = has_modes == 1;
  model->has_centroids = has_centroids == 1;
  if (model->has_modes) {
    uint32_t k = 0;
    uint32_t attributes = 0;
    if (!reader.ReadU32(&k) || !reader.ReadU32(&attributes)) {
      return Truncated(id);
    }
    if (k != model->num_clusters || attributes != model->shape_primary) {
      return Status::InvalidArgument(
          "centroids section stores a " + std::to_string(k) + " x " +
          std::to_string(attributes) + " mode table but model_info says " +
          std::to_string(model->num_clusters) + " clusters over " +
          std::to_string(model->shape_primary) + " attributes");
    }
    if (!reader.ReadArray(static_cast<size_t>(k) * attributes,
                          &model->mode_codes)) {
      return Truncated(id);
    }
  }
  if (model->has_centroids) {
    uint32_t k = 0;
    uint32_t dims = 0;
    if (!reader.ReadU32(&k) || !reader.ReadU32(&dims)) {
      return Truncated(id);
    }
    if (k != model->num_clusters || dims != CentroidDims(*model)) {
      return Status::InvalidArgument(
          "centroids section stores a " + std::to_string(k) + " x " +
          std::to_string(dims) + " centroid table but model_info says " +
          std::to_string(model->num_clusters) + " clusters over " +
          std::to_string(CentroidDims(*model)) + " dimensions");
    }
    if (!reader.ReadArray(static_cast<size_t>(k) * dims,
                          &model->centroid_values)) {
      return Truncated(id);
    }
  }
  return Status::OK();
}

Status DecodeFamily(ByteReader& reader, DecodedModel* model) {
  constexpr uint32_t id = static_cast<uint32_t>(SectionId::kFamily);
  switch (model->family) {
    case ModelFamilyKind::kMinHash: {
      ShortlistIndexOptions& options = model->minhash;
      uint8_t algorithm = 0;
      uint8_t minhash_mode = 0;
      uint8_t keep_signatures = 0;
      if (!reader.ReadU32(&options.banding.bands) ||
          !reader.ReadU32(&options.banding.rows) ||
          !reader.ReadU8(&algorithm) || !reader.ReadU8(&minhash_mode) ||
          !reader.ReadU64(&options.seed) || !reader.ReadU8(&keep_signatures)) {
        return Truncated(id);
      }
      if (algorithm >
              static_cast<uint8_t>(SignatureAlgorithm::kOnePermutation) ||
          minhash_mode > static_cast<uint8_t>(MinHashMode::kDoubleHashing) ||
          keep_signatures > 1) {
        return Status::InvalidArgument(
            "family section has malformed MinHash option tags");
      }
      options.algorithm = static_cast<SignatureAlgorithm>(algorithm);
      options.minhash_mode = static_cast<MinHashMode>(minhash_mode);
      options.keep_signatures = keep_signatures == 1;
      return Status::OK();
    }
    case ModelFamilyKind::kSimHash: {
      SimHashIndexOptions& options = model->simhash;
      if (!reader.ReadU32(&options.banding.bands) ||
          !reader.ReadU32(&options.banding.rows) ||
          !reader.ReadU64(&options.seed) ||
          !reader.ReadU32(&model->simhash_dimensions)) {
        return Truncated(id);
      }
      return Status::OK();
    }
    case ModelFamilyKind::kMixedConcat: {
      MixedIndexOptions& options = model->mixed;
      uint32_t mean_size = 0;
      if (!reader.ReadU32(&options.categorical_banding.bands) ||
          !reader.ReadU32(&options.categorical_banding.rows) ||
          !reader.ReadU32(&options.numeric_banding.bands) ||
          !reader.ReadU32(&options.numeric_banding.rows) ||
          !reader.ReadU64(&options.seed) || !reader.ReadU32(&mean_size) ||
          !reader.ReadArray(mean_size, &model->mixed_mean)) {
        return Truncated(id);
      }
      return Status::OK();
    }
    case ModelFamilyKind::kNone:
      break;
  }
  return Status::InvalidArgument(
      "family section present on a model without a family");
}

Status DecodeIndex(ByteReader& reader, DecodedModel* model) {
  constexpr uint32_t id = static_cast<uint32_t>(SectionId::kIndex);
  BandedIndex::Raw& raw = model->index_raw;
  uint32_t num_bands = 0;
  if (!reader.ReadU32(&raw.num_items) || !reader.ReadU32(&num_bands)) {
    return Truncated(id);
  }
  if (num_bands > 65536) {
    return Status::InvalidArgument("implausible index band count " +
                                   std::to_string(num_bands));
  }
  raw.bands.resize(num_bands);
  for (BandedIndex::RawBand& band : raw.bands) {
    uint32_t buckets = 0;
    if (!reader.ReadU32(&band.offset) || !reader.ReadU32(&band.rows) ||
        !reader.ReadU32(&buckets) ||
        !reader.ReadArray(buckets, &band.bucket_keys) ||
        !reader.ReadArray(static_cast<size_t>(buckets) + 1,
                          &band.bucket_offsets) ||
        !reader.ReadArray(raw.num_items, &band.bucket_items) ||
        !reader.ReadArray(raw.num_items, &band.item_bucket)) {
      return Truncated(id);
    }
  }
  model->has_index = true;
  return Status::OK();
}

Status DecodeAssignment(ByteReader& reader, DecodedModel* model) {
  constexpr uint32_t id = static_cast<uint32_t>(SectionId::kAssignment);
  uint32_t n = 0;
  if (!reader.ReadU32(&n) || !reader.ReadArray(n, &model->fit_assignment)) {
    return Truncated(id);
  }
  return Status::OK();
}

/// Expected band layout (rows per band, in signature order) of the
/// decoded family's options — what the persisted index must match.
std::vector<uint32_t> ExpectedBandLayout(const DecodedModel& model) {
  std::vector<uint32_t> layout;
  switch (model.family) {
    case ModelFamilyKind::kMinHash:
      layout.assign(model.minhash.banding.bands, model.minhash.banding.rows);
      break;
    case ModelFamilyKind::kSimHash:
      layout.assign(model.simhash.banding.bands, model.simhash.banding.rows);
      break;
    case ModelFamilyKind::kMixedConcat:
      layout.reserve(model.mixed.categorical_banding.bands +
                     model.mixed.numeric_banding.bands);
      layout.insert(layout.end(), model.mixed.categorical_banding.bands,
                    model.mixed.categorical_banding.rows);
      layout.insert(layout.end(), model.mixed.numeric_banding.bands,
                    model.mixed.numeric_banding.rows);
      break;
    case ModelFamilyKind::kNone:
      break;
  }
  return layout;
}

/// Cross-section consistency checks, after all sections decoded. The
/// per-section decoders validated local shape; this ties the sections to
/// one another (and to the family options) so every downstream consumer
/// can rely on the invariants without re-checking.
Status ValidateDecodedModel(const DecodedModel& model) {
  if (model.num_clusters < 1) {
    return Status::InvalidArgument("model has no clusters");
  }
  if (model.shape_primary < 1) {
    return Status::InvalidArgument("model has an empty primary shape");
  }
  switch (model.modality) {
    case ModelModality::kCategorical:
      if (!model.has_modes || model.has_centroids ||
          model.shape_secondary != 0) {
        return Status::InvalidArgument(
            "categorical model must carry exactly a mode table");
      }
      if (model.family != ModelFamilyKind::kNone &&
          model.family != ModelFamilyKind::kMinHash) {
        return Status::InvalidArgument(
            "categorical model carries a non-MinHash family");
      }
      break;
    case ModelModality::kNumeric:
      if (model.has_modes || !model.has_centroids ||
          model.shape_secondary != 0) {
        return Status::InvalidArgument(
            "numeric model must carry exactly a centroid table");
      }
      if (model.family != ModelFamilyKind::kNone &&
          model.family != ModelFamilyKind::kSimHash) {
        return Status::InvalidArgument(
            "numeric model carries a non-SimHash family");
      }
      break;
    case ModelModality::kMixed:
      if (!model.has_modes || !model.has_centroids ||
          model.shape_secondary < 1) {
        return Status::InvalidArgument(
            "mixed model must carry a mode table and a centroid table");
      }
      if (model.family != ModelFamilyKind::kNone &&
          model.family != ModelFamilyKind::kMixedConcat) {
        return Status::InvalidArgument(
            "mixed model carries a non-mixed family");
      }
      if (!std::isfinite(model.gamma) || model.gamma < 0.0) {
        return Status::InvalidArgument(
            "gamma must be a finite non-negative number");
      }
      break;
  }
  if (model.mode_codes.size() !=
      (model.has_modes ? static_cast<size_t>(model.num_clusters) *
                             model.shape_primary
                       : 0) ||
      model.centroid_values.size() !=
          (model.has_centroids ? static_cast<size_t>(model.num_clusters) *
                                     CentroidDims(model)
                               : 0)) {
    return Status::InvalidArgument("centroid array shape mismatch");
  }
  if (model.family == ModelFamilyKind::kNone) {
    return Status::OK();
  }

  // Routed models: options must be valid and every section must agree.
  switch (model.family) {
    case ModelFamilyKind::kMinHash:
      LSHC_RETURN_NOT_OK(MinHashShortlistFamily::ValidateOptions(model.minhash));
      break;
    case ModelFamilyKind::kSimHash:
      LSHC_RETURN_NOT_OK(SimHashShortlistFamily::ValidateOptions(model.simhash));
      if (model.simhash_dimensions != model.shape_primary) {
        return Status::InvalidArgument(
            "SimHash hasher dimensionality " +
            std::to_string(model.simhash_dimensions) +
            " disagrees with the model's " +
            std::to_string(model.shape_primary) + " dimensions");
      }
      break;
    case ModelFamilyKind::kMixedConcat:
      LSHC_RETURN_NOT_OK(MixedShortlistFamily::ValidateOptions(model.mixed));
      if (model.mixed_mean.size() != model.shape_secondary) {
        return Status::InvalidArgument(
            "mixed centering mean has " +
            std::to_string(model.mixed_mean.size()) +
            " coordinates; the model has " +
            std::to_string(model.shape_secondary) + " numeric dimensions");
      }
      break;
    case ModelFamilyKind::kNone:
      break;
  }
  if (!model.has_index) {
    return Status::InvalidArgument("routed model is missing its index");
  }
  const std::vector<uint32_t> layout = ExpectedBandLayout(model);
  if (model.index_raw.bands.size() != layout.size()) {
    return Status::InvalidArgument(
        "index has " + std::to_string(model.index_raw.bands.size()) +
        " bands; the family's banding options call for " +
        std::to_string(layout.size()));
  }
  for (size_t b = 0; b < layout.size(); ++b) {
    if (model.index_raw.bands[b].rows != layout[b]) {
      return Status::InvalidArgument(
          "index band " + std::to_string(b) + " covers " +
          std::to_string(model.index_raw.bands[b].rows) +
          " rows; the family's banding options call for " +
          std::to_string(layout[b]));
    }
  }
  if (model.fit_assignment.size() != model.index_raw.num_items) {
    return Status::InvalidArgument(
        "fit assignment covers " + std::to_string(model.fit_assignment.size()) +
        " items but the index holds " +
        std::to_string(model.index_raw.num_items));
  }
  for (const uint32_t cluster : model.fit_assignment) {
    if (cluster >= model.num_clusters) {
      return Status::InvalidArgument(
          "fit assignment references cluster " + std::to_string(cluster) +
          " of a " + std::to_string(model.num_clusters) + "-cluster model");
    }
  }
  return Status::OK();
}

}  // namespace

Result<DecodedModel> DecodeModelBytes(std::span<const uint8_t> data) {
  ModelFileInfo info;
  LSHC_RETURN_NOT_OK(ParseHeader(data, &info));

  // Locate the known sections; skip unknown ids (forward compat), reject
  // duplicates, and fail on any known section whose checksum is off.
  constexpr uint32_t kMaxKnownId =
      static_cast<uint32_t>(SectionId::kAssignment);
  std::array<const SectionInfo*, kMaxKnownId + 1> known{};
  for (const SectionInfo& section : info.sections) {
    if (!IsKnownSection(section.id)) continue;
    if (known[section.id] != nullptr) {
      return Status::InvalidArgument(
          "duplicate section '" + std::string(SectionName(section.id)) + "'");
    }
    if (!section.crc_ok) {
      return Status::IOError("section '" +
                             std::string(SectionName(section.id)) +
                             "' checksum mismatch: the file is corrupt");
    }
    known[section.id] = &section;
  }

  const auto payload = [&](SectionId id) {
    const SectionInfo* section = known[static_cast<uint32_t>(id)];
    return data.subspan(section->offset, section->size);
  };
  const auto present = [&](SectionId id) {
    return known[static_cast<uint32_t>(id)] != nullptr;
  };

  DecodedModel model;
  if (!present(SectionId::kModelInfo)) {
    return Status::InvalidArgument("model file has no model_info section");
  }
  {
    ByteReader reader(payload(SectionId::kModelInfo));
    LSHC_RETURN_NOT_OK(DecodeModelInfo(reader, &model));
  }
  if (!present(SectionId::kCentroids)) {
    return Status::InvalidArgument("model file has no centroids section");
  }
  const bool routed = model.family != ModelFamilyKind::kNone;
  if (routed) {
    for (const SectionId id :
         {SectionId::kFamily, SectionId::kIndex, SectionId::kAssignment}) {
      if (!present(id)) {
        return Status::InvalidArgument(
            "routed model file has no " +
            std::string(SectionName(static_cast<uint32_t>(id))) + " section");
      }
    }
  } else {
    for (const SectionId id :
         {SectionId::kFamily, SectionId::kIndex, SectionId::kAssignment}) {
      if (present(id)) {
        return Status::InvalidArgument(
            "exhaustive model file carries a " +
            std::string(SectionName(static_cast<uint32_t>(id))) + " section");
      }
    }
  }
  {
    ByteReader reader(payload(SectionId::kCentroids));
    LSHC_RETURN_NOT_OK(DecodeCentroids(reader, &model));
  }
  if (routed) {
    {
      ByteReader reader(payload(SectionId::kFamily));
      LSHC_RETURN_NOT_OK(DecodeFamily(reader, &model));
    }
    {
      ByteReader reader(payload(SectionId::kIndex));
      LSHC_RETURN_NOT_OK(DecodeIndex(reader, &model));
    }
    {
      ByteReader reader(payload(SectionId::kAssignment));
      LSHC_RETURN_NOT_OK(DecodeAssignment(reader, &model));
    }
  }
  LSHC_RETURN_NOT_OK(ValidateDecodedModel(model));
  return model;
}

Result<DecodedModel> DecodeModelFile(const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadWholeFile(path));
  Result<DecodedModel> model = DecodeModelBytes(data);
  if (!model.ok()) {
    return model.status().WithContext("model file '" + path + "'");
  }
  return model;
}

Result<ModelFileInfo> InspectModelFile(const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadWholeFile(path));
  ModelFileInfo info;
  const Status status = ParseHeader(data, &info);
  if (!status.ok()) {
    return status.WithContext("model file '" + path + "'");
  }
  return info;
}

Result<ModeTable> BuildModeTable(const DecodedModel& model) {
  if (!model.has_modes) {
    return Status::InvalidArgument("model carries no mode table");
  }
  ModeTable modes(model.num_clusters, model.shape_primary);
  for (uint32_t c = 0; c < model.num_clusters; ++c) {
    for (uint32_t a = 0; a < model.shape_primary; ++a) {
      modes.SetModeCode(
          c, a,
          model.mode_codes[static_cast<size_t>(c) * model.shape_primary + a]);
    }
  }
  return modes;
}

Result<CentroidTable> BuildCentroidTable(const DecodedModel& model) {
  if (!model.has_centroids) {
    return Status::InvalidArgument("model carries no centroid table");
  }
  const uint32_t dims = CentroidDims(model);
  CentroidTable centroids(model.num_clusters, dims);
  for (uint32_t c = 0; c < model.num_clusters; ++c) {
    centroids.SetCentroid(
        c, {model.centroid_values.data() + static_cast<size_t>(c) * dims,
            dims});
  }
  return centroids;
}

namespace {

/// Shared tail of the Build*Routing functions: adopt the index from the
/// decoded arrays. `family` already has its hashers rebuilt. No signature
/// is recomputed anywhere on this path.
template <typename Family>
Result<LoadedRouting<Family>> FinishRouting(Family family,
                                            DecodedModel&& model) {
  LSHC_ASSIGN_OR_RETURN(BandedIndex index,
                        BandedIndex::FromRaw(std::move(model.index_raw)));
  return LoadedRouting<Family>{
      std::move(family), std::make_unique<BandedIndex>(std::move(index)),
      std::move(model.fit_assignment)};
}

}  // namespace

Result<LoadedRouting<MinHashShortlistFamily>> BuildMinHashRouting(
    DecodedModel&& model) {
  if (model.family != ModelFamilyKind::kMinHash) {
    return Status::InvalidArgument("model does not carry a MinHash family");
  }
  // The MinHash hashers are built in the constructor, purely from the
  // options (seed included) — nothing else to restore.
  return FinishRouting(MinHashShortlistFamily(model.minhash),
                       std::move(model));
}

Result<LoadedRouting<SimHashShortlistFamily>> BuildSimHashRouting(
    DecodedModel&& model) {
  if (model.family != ModelFamilyKind::kSimHash) {
    return Status::InvalidArgument("model does not carry a SimHash family");
  }
  SimHashShortlistFamily family(model.simhash);
  family.RestoreHasher(model.simhash_dimensions);
  return FinishRouting(std::move(family), std::move(model));
}

Result<LoadedRouting<MixedShortlistFamily>> BuildMixedRouting(
    DecodedModel&& model) {
  if (model.family != ModelFamilyKind::kMixedConcat) {
    return Status::InvalidArgument("model does not carry a mixed family");
  }
  MixedShortlistFamily family(model.mixed);
  family.RestoreHashers(std::move(model.mixed_mean));
  return FinishRouting(std::move(family), std::move(model));
}

namespace {

using ModelPtr = std::shared_ptr<const serving::FrozenModel>;

/// Assembles the model of one modality from its decoded options and
/// centroids: an exhaustive model for a family-less file, else a routed
/// one whose family and index `build_routing` rebuilds from `model`.
template <typename Traits, typename Family, typename BuildRoutingFn>
Result<ModelPtr> Assemble(typename Traits::Options options,
                          typename Traits::Centroids centroids,
                          DecodedModel&& model,
                          BuildRoutingFn build_routing) {
  options.num_clusters = model.num_clusters;
  const uint32_t primary = model.shape_primary;
  const uint32_t secondary = model.shape_secondary;
  if (model.family == ModelFamilyKind::kNone) {
    return ModelPtr(
        std::make_shared<serving::internal::FrozenModelImpl<Traits>>(
            std::move(options), std::move(centroids), std::nullopt, nullptr,
            std::vector<uint32_t>(), primary, secondary));
  }
  LSHC_ASSIGN_OR_RETURN(LoadedRouting<Family> routing,
                        build_routing(std::move(model)));
  return ModelPtr(
      std::make_shared<serving::internal::FrozenModelImpl<Traits, Family>>(
          std::move(options), std::move(centroids), std::move(routing.family),
          std::move(routing.index), std::move(routing.fit_assignment),
          primary, secondary));
}

}  // namespace

Result<std::shared_ptr<const serving::FrozenModel>> BuildFrozenModel(
    DecodedModel&& model) {
  switch (model.modality) {
    case ModelModality::kCategorical: {
      LSHC_ASSIGN_OR_RETURN(ModeTable modes, BuildModeTable(model));
      return Assemble<CategoricalClusteringTraits, MinHashShortlistFamily>(
          EngineOptions{}, std::move(modes), std::move(model),
          BuildMinHashRouting);
    }
    case ModelModality::kNumeric: {
      LSHC_ASSIGN_OR_RETURN(CentroidTable centroids,
                            BuildCentroidTable(model));
      return Assemble<NumericClusteringTraits, SimHashShortlistFamily>(
          KMeansOptions{}, std::move(centroids), std::move(model),
          BuildSimHashRouting);
    }
    case ModelModality::kMixed: {
      LSHC_ASSIGN_OR_RETURN(ModeTable modes, BuildModeTable(model));
      LSHC_ASSIGN_OR_RETURN(CentroidTable centroids,
                            BuildCentroidTable(model));
      KPrototypesOptions options;
      options.gamma = model.gamma;
      return Assemble<MixedClusteringTraits, MixedShortlistFamily>(
          options,
          MixedClusteringTraits::Centroids{std::move(modes),
                                           std::move(centroids)},
          std::move(model), BuildMixedRouting);
    }
  }
  return Status::InvalidArgument("unknown model modality");
}

}  // namespace lshclust::persist

namespace lshclust::serving {

using persist::DecodedModel;

Status SaveFrozenModel(const FrozenModel& model, const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(DecodedModel decoded, persist::ExtractModel(model));
  const std::string bytes = persist::EncodeModel(decoded);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError("failed writing model file '" + path + "'");
  }
  return Status::OK();
}

Result<std::shared_ptr<const FrozenModel>> LoadFrozenModel(
    const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(DecodedModel model, persist::DecodeModelFile(path));
  return persist::BuildFrozenModel(std::move(model));
}

Result<uint64_t> ModelServer::PublishFromFile(const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(std::shared_ptr<const FrozenModel> model,
                        LoadFrozenModel(path));
  return Publish(std::move(model));
}

}  // namespace lshclust::serving
