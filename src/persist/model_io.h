#pragma once

/// \file model_io.h
/// \brief The model persistence subsystem: versioned, checksummed on-disk
/// snapshots of `serving::FrozenModel`.
///
/// File layout (every scalar little-endian, see util/binary_io.h):
///
///   magic "LSHM" | u32 format_version | u32 section_count |
///   TOC: section_count x { u32 section_id, u64 offset, u64 size,
///                          u32 crc32 } |
///   section payloads, concatenated in TOC order
///
/// Sections carry exactly the FrozenModel members: ModelInfo (modality,
/// family kind, k, shapes, gamma), Centroids (mode and/or centroid
/// matrices), Family (the LSH family's options + seeds — hashers rebuild
/// from these on load; the mixed family additionally persists its
/// data-dependent centering mean), Index (the raw CSR band/bucket arrays,
/// dumped verbatim and adopted verbatim — signatures are never re-hashed
/// on load) and Assignment (the fit-time item->cluster array, the routed
/// path's cluster-reference store). Exhaustive models carry only
/// ModelInfo + Centroids.
///
/// Version / compatibility policy: readers accept exactly
/// `kModelFormatVersion` and reject other versions with a typed Status.
/// Within a version, the section framing is the forward-compat seam:
/// readers skip section ids they do not know and ignore trailing bytes of
/// known sections, so future writers may append new sections or extend
/// existing ones without breaking this reader. A change that removes
/// bytes from a section is not additive and bumps the version: version 2
/// dropped 9 option bytes from every Family payload (and section id 5,
/// which stays unused), so version 1 files are rejected rather than
/// misread.
///
/// Every load validates hard — truncation anywhere, bad magic, wrong
/// version, a TOC entry pointing outside the file, a section CRC-32
/// mismatch, and internally inconsistent CSR state all come back as typed
/// `Status` errors; corrupt input can never construct a model.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "clustering/centroid_table.h"
#include "clustering/modes.h"
#include "core/cluster_shortlist_index.h"
#include "core/mixed_shortlist_index.h"
#include "core/simhash_shortlist_index.h"
#include "lsh/banded_index.h"
#include "serving/frozen_model.h"
#include "util/result.h"

namespace lshclust::persist {

/// First 4 bytes of every model file.
inline constexpr char kModelMagic[4] = {'L', 'S', 'H', 'M'};

/// The one format version this build writes and reads.
inline constexpr uint32_t kModelFormatVersion = 2;

/// Section ids of the current format version. Unknown ids are skipped on
/// load. Id 5 belonged to a version-1 section and is left unused.
enum class SectionId : uint32_t {
  kModelInfo = 1,
  kCentroids = 2,
  kFamily = 3,
  kIndex = 4,
  kAssignment = 6,
};

/// Human-readable section name ("model_info", ...; "unknown" for ids this
/// build does not define). For diagnostics and model_inspect.
const char* SectionName(uint32_t id);

/// Modality of a persisted model, as stored in the ModelInfo section.
enum class ModelModality : uint8_t {
  kCategorical = 0,
  kNumeric = 1,
  kMixed = 2,
};

/// LSH family kind of a persisted model. kNone = exhaustive snapshot.
enum class ModelFamilyKind : uint8_t {
  kNone = 0,
  kMinHash = 1,
  kSimHash = 2,
  kMixedConcat = 3,
};

/// \brief A fully decoded + cross-validated model file: plain arrays and
/// option structs, ready for BuildFrozenModel. Only the fields matching
/// `modality` / `family` are meaningful.
struct DecodedModel {
  ModelModality modality = ModelModality::kCategorical;
  ModelFamilyKind family = ModelFamilyKind::kNone;
  uint32_t num_clusters = 0;
  uint32_t shape_primary = 0;    ///< attributes / dims / categorical attrs
  uint32_t shape_secondary = 0;  ///< numeric dims of a mixed model, else 0
  double gamma = 1.0;            ///< K-Prototypes weight (mixed only)

  // Centroids section.
  bool has_modes = false;
  bool has_centroids = false;
  std::vector<uint32_t> mode_codes;     ///< k x shape_primary
  std::vector<double> centroid_values;  ///< k x numeric dimensionality

  // Family section (one of, per `family`).
  ShortlistIndexOptions minhash;
  SimHashIndexOptions simhash;
  MixedIndexOptions mixed;
  uint32_t simhash_dimensions = 0;  ///< fitted dims of the SimHash hasher
  std::vector<double> mixed_mean;   ///< mixed family's centering mean

  // Index / Assignment sections (routed models only).
  bool has_index = false;
  BandedIndex::Raw index_raw;
  std::vector<uint32_t> fit_assignment;
};

/// Reads, checksum-verifies and cross-validates a model file.
Result<DecodedModel> DecodeModelFile(const std::string& path);

/// The in-memory core of DecodeModelFile: decodes a model image already in
/// memory. Exposed for embedders that transport model images off the
/// filesystem (and for the fuzz harness, which drives the decoder with
/// adversarial bytes — see tests/fuzz/model_io_fuzz.cpp).
Result<DecodedModel> DecodeModelBytes(std::span<const uint8_t> data);

/// \brief One TOC entry as found on disk, plus whether its payload's
/// CRC-32 matched. For model_inspect and corruption diagnostics.
struct SectionInfo {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc32 = 0;
  bool crc_ok = false;
};

/// \brief Header-level view of a model file (no section decoding).
struct ModelFileInfo {
  uint32_t format_version = 0;
  uint64_t file_size = 0;
  std::vector<SectionInfo> sections;
};

/// Parses the header + TOC and checks every section's checksum, without
/// decoding payloads. Fails on truncation / bad magic / wrong version /
/// out-of-file TOC entries; a payload CRC mismatch is reported per section
/// via `crc_ok` rather than failing, so model_inspect can localize
/// corruption.
Result<ModelFileInfo> InspectModelFile(const std::string& path);

/// Rebuilds the mode table of a decoded categorical or mixed model.
Result<ModeTable> BuildModeTable(const DecodedModel& model);

/// Rebuilds the centroid table of a decoded numeric or mixed model.
Result<CentroidTable> BuildCentroidTable(const DecodedModel& model);

/// \brief The routed half of a loaded model: a family with rebuilt
/// hashers, the adopted (not re-hashed) index and the fit assignment —
/// everything a routed FrozenModelImpl needs beyond the centroids.
template <typename Family>
struct LoadedRouting {
  Family family;
  std::unique_ptr<BandedIndex> index;
  std::vector<uint32_t> fit_assignment;
};

/// Reconstruct the routed state of a decoded model of the matching family
/// kind. Consumes `model`'s arrays. The family's hashers are rebuilt
/// deterministically from (options, seed) — plus the persisted centering
/// mean for the mixed family — and the index is adopted from the raw CSR
/// dump via BandedIndex::FromRaw, so no signature is ever recomputed.
Result<LoadedRouting<MinHashShortlistFamily>> BuildMinHashRouting(
    DecodedModel&& model);
Result<LoadedRouting<SimHashShortlistFamily>> BuildSimHashRouting(
    DecodedModel&& model);
Result<LoadedRouting<MixedShortlistFamily>> BuildMixedRouting(
    DecodedModel&& model);

/// The one DecodedModel -> FrozenModel path, behind both
/// serving::LoadFrozenModel and Clusterer::FromSnapshot: the centroids
/// rebuilt by BuildModeTable / BuildCentroidTable, and for a routed model
/// the family and index from the matching Build*Routing. Consumes
/// `model`'s arrays.
Result<std::shared_ptr<const serving::FrozenModel>> BuildFrozenModel(
    DecodedModel&& model);

}  // namespace lshclust::persist

namespace lshclust::serving {

/// Writes `model` to `path` in the versioned section format above. The
/// encoding is deterministic: saving, loading and saving again produces a
/// byte-identical file.
[[nodiscard]] Status SaveFrozenModel(const FrozenModel& model, const std::string& path);

/// Loads a model file into a routing-ready FrozenModel. The loaded
/// snapshot routes queries bit-identically to the snapshot that was saved
/// (and therefore to `PredictRouted` on the fit it came from), across
/// SIMD tiers and thread counts, without re-signing the fitted dataset.
Result<std::shared_ptr<const FrozenModel>> LoadFrozenModel(
    const std::string& path);

}  // namespace lshclust::serving
