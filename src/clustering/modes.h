#pragma once

/// \file modes.h
/// \brief Cluster mode (categorical centroid) computation.
///
/// A mode of a cluster is the vector of per-attribute most frequent codes
/// among its members; Theorem 1 of Huang (1998), restated in §III-A1 of the
/// paper, shows this minimises D(X, Q) = Σ d(X_i, Q). Ties break towards
/// the smallest code so runs are reproducible.

#include <cstdint>
#include <span>
#include <vector>

#include "clustering/types.h"
#include "data/categorical_dataset.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace lshclust {

/// \brief Owns the k x m mode matrix and recomputes it from an assignment.
///
/// A recompute is cluster-major. A counting sort lists each cluster's
/// members in ascending id; then, for every non-empty cluster and every
/// attribute, the members' codes are counted in one dense counter over
/// the code space while a running best (highest count, then smallest
/// code) is kept, and a second walk over the same members clears the
/// counter for the next pair. That is one O(n·m) sweep with no hashing.
/// All of its scratch (O(n + k + num_codes)) lives in the call, so a
/// ModeTable held by a fitted model is only its k x m codes, k sizes and
/// the attribute-major copy below.
///
/// Next to the row-major codes the table keeps an attribute-major copy
/// (m rows of `stride()` >= k entries, padded to simd::kScanLanes), which
/// every mutator keeps equal to the row-major codes. ScanMismatches reads
/// it to count an item's mismatches against all k modes in one kernel
/// call. Mode(), ModeData() and model files use the row-major codes only.
class ModeTable {
 public:
  /// \param num_clusters k
  /// \param num_attributes m
  ModeTable(uint32_t num_clusters, uint32_t num_attributes);

  /// k.
  uint32_t num_clusters() const { return num_clusters_; }
  /// m.
  uint32_t num_attributes() const { return num_attributes_; }

  /// The mode of `cluster`, length m.
  std::span<const uint32_t> Mode(uint32_t cluster) const {
    LSHC_DCHECK(cluster < num_clusters_) << "cluster index out of range";
    return {codes_.data() + static_cast<size_t>(cluster) * num_attributes_,
            num_attributes_};
  }

  /// Raw pointer to the mode of `cluster` (hot path).
  const uint32_t* ModeData(uint32_t cluster) const {
    return codes_.data() + static_cast<size_t>(cluster) * num_attributes_;
  }

  /// Sets the mode of `cluster` to the codes of a dataset row (seeding).
  void SetModeFromItem(uint32_t cluster, const CategoricalDataset& dataset,
                       uint32_t item);

  /// Overwrites one component of a mode (used by incremental maintainers
  /// such as core/streaming.h).
  void SetModeCode(uint32_t cluster, uint32_t attribute, uint32_t code) {
    LSHC_DCHECK(cluster < num_clusters_ && attribute < num_attributes_);
    codes_[static_cast<size_t>(cluster) * num_attributes_ + attribute] = code;
    codes_t_[static_cast<size_t>(attribute) * stride_ + cluster] = code;
  }

  /// out[c] = mismatches between `row` (m codes) and mode c, for all k
  /// clusters; `out` must hold k entries.
  void ScanMismatches(const uint32_t* row, uint32_t* out) const {
    simd::ActiveKernels().mismatch_scan(row, codes_t_.data(),
                                        num_attributes_, num_clusters_,
                                        stride_, out);
  }

  /// Row stride of the attribute-major copy: k rounded up to a multiple
  /// of simd::kScanLanes.
  uint32_t stride() const { return stride_; }

  /// The attribute-major copy: attribute j of mode c is entry
  /// j * stride() + c; padding entries are 0.
  std::span<const uint32_t> attribute_major() const { return codes_t_; }

  /// Recomputes every non-empty cluster's mode as the per-attribute
  /// majority code of its members. Empty clusters follow `policy`:
  /// kKeepPreviousMode leaves their row untouched, kReseedRandomItem copies
  /// a random item drawn from `rng`.
  ///
  /// \param dataset the items
  /// \param assignment item -> cluster, size n, all entries < k
  /// \param policy empty-cluster handling
  /// \param rng used only by kReseedRandomItem
  void RecomputeFromAssignment(const CategoricalDataset& dataset,
                               std::span<const uint32_t> assignment,
                               EmptyClusterPolicy policy, Rng& rng);

  /// Number of members per cluster after the last Recompute (size k).
  const std::vector<uint32_t>& cluster_sizes() const { return sizes_; }

 private:
  uint32_t num_clusters_;
  uint32_t num_attributes_;
  uint32_t stride_;
  std::vector<uint32_t> codes_;    // row-major k x m
  std::vector<uint32_t> codes_t_;  // attribute-major m x stride_
  std::vector<uint32_t> sizes_;
};

}  // namespace lshclust
