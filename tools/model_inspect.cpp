/// \file model_inspect.cpp
/// \brief Dumps a model file written by `lshclust cluster --save-model` /
/// serving::SaveFrozenModel: the header + table of contents (section ids,
/// offsets, sizes, checksums), then the decoded model's shape and the
/// banded index's bucket occupancy, and whether the loaded model routes
/// over per-bucket cluster lists (rebuilt at load, never stored). Exit 0 when the file is fully intact,
/// 1 on any error or checksum mismatch, 2 on usage errors — so CI can use
/// it as a corruption smoke test on saved artifacts.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "persist/model_io.h"
#include "serving/frozen_model.h"

namespace {

using lshclust::persist::DecodedModel;
using lshclust::persist::ModelFamilyKind;
using lshclust::persist::ModelFileInfo;
using lshclust::persist::ModelModality;

const char* ModalityName(ModelModality modality) {
  switch (modality) {
    case ModelModality::kCategorical:
      return "categorical";
    case ModelModality::kNumeric:
      return "numeric";
    case ModelModality::kMixed:
      return "mixed";
  }
  return "unknown";
}

const char* FamilyName(ModelFamilyKind family) {
  switch (family) {
    case ModelFamilyKind::kNone:
      return "none (exhaustive)";
    case ModelFamilyKind::kMinHash:
      return "minhash";
    case ModelFamilyKind::kSimHash:
      return "simhash";
    case ModelFamilyKind::kMixedConcat:
      return "mixed-concat";
  }
  return "unknown";
}

/// Header + TOC dump. Returns whether every section checksum matched.
bool PrintFileInfo(const ModelFileInfo& info) {
  std::printf("format version: %u\n", info.format_version);
  std::printf("file size:      %" PRIu64 " bytes\n", info.file_size);
  std::printf("sections:       %zu\n", info.sections.size());
  std::printf("  %-4s %-12s %10s %12s %10s  %s\n", "id", "name", "offset",
              "size", "crc32", "check");
  bool all_ok = true;
  for (const auto& section : info.sections) {
    std::printf("  %-4u %-12s %10" PRIu64 " %12" PRIu64 "   0x%08x  %s\n",
                section.id, lshclust::persist::SectionName(section.id),
                section.offset, section.size, section.crc32,
                section.crc_ok ? "ok" : "MISMATCH");
    all_ok = all_ok && section.crc_ok;
  }
  return all_ok;
}

/// Whether the loaded model routes over per-bucket cluster lists, and
/// their entries against the items x bands a walk over bucket items holds.
void PrintRouting(const DecodedModel& model,
                  const lshclust::serving::FrozenModel& loaded) {
  const uint64_t item_entries =
      static_cast<uint64_t>(model.index_raw.num_items) *
      model.index_raw.bands.size();
  if (loaded.cluster_list_entries() == 0) {
    std::printf("cluster lists:  no (routes over %" PRIu64
                " bucket items)\n",
                item_entries);
    return;
  }
  std::printf("cluster lists:  yes, %" PRIu64 " entries of %" PRIu64
              " items x bands (%.1f%%)\n",
              loaded.cluster_list_entries(), item_entries,
              100.0 * static_cast<double>(loaded.cluster_list_entries()) /
                  static_cast<double>(item_entries));
}

void PrintModel(const DecodedModel& model) {
  std::printf("\nmodality:       %s\n", ModalityName(model.modality));
  std::printf("family:         %s\n", FamilyName(model.family));
  std::printf("clusters:       %u\n", model.num_clusters);
  if (model.modality == ModelModality::kMixed) {
    std::printf("shape:          %u categorical + %u numeric attributes\n",
                model.shape_primary, model.shape_secondary);
    std::printf("gamma:          %g\n", model.gamma);
  } else if (model.modality == ModelModality::kNumeric) {
    std::printf("shape:          %u dimensions\n", model.shape_primary);
  } else {
    std::printf("shape:          %u attributes\n", model.shape_primary);
  }
  if (!model.has_index) return;

  const auto& raw = model.index_raw;
  std::printf("\nindex:          %u items x %zu bands\n", raw.num_items,
              raw.bands.size());
  size_t buckets = 0, largest = 0;
  uint32_t signature_width = 0;
  for (const auto& band : raw.bands) {
    buckets += band.bucket_keys.size();
    signature_width += band.rows;
    for (size_t b = 0; b + 1 < band.bucket_offsets.size(); ++b) {
      largest = std::max(
          largest, size_t{band.bucket_offsets[b + 1] - band.bucket_offsets[b]});
    }
  }
  std::printf("buckets:        %zu total", buckets);
  if (buckets > 0 && !raw.bands.empty()) {
    std::printf(" (avg occupancy %.2f, largest %zu)",
                static_cast<double>(raw.num_items) *
                    static_cast<double>(raw.bands.size()) /
                    static_cast<double>(buckets),
                largest);
  }
  std::printf("\nsignature:      %u hashes\n", signature_width);
  std::printf("assignment:     %zu items\n", model.fit_assignment.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: model_inspect <model-file>\n");
    return 2;
  }
  const std::string path = argv[1];

  auto info = lshclust::persist::InspectModelFile(path);
  if (!info.ok()) {
    std::fprintf(stderr, "error: %s\n", info.status().ToString().c_str());
    return 1;
  }
  const bool checksums_ok = PrintFileInfo(*info);

  auto model = lshclust::persist::DecodeModelFile(path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  PrintModel(*model);
  if (model->has_index) {
    auto loaded = lshclust::serving::LoadFrozenModel(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    PrintRouting(*model, **loaded);
  }
  return checksums_ok ? 0 : 1;
}
