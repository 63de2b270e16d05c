#pragma once

/// \file centroid_table.h
/// \brief Numeric centroid storage + recomputation — the numeric
/// counterpart of ModeTable, shared by the K-Means and K-Prototypes
/// traits of the unified clustering engine.

#include <cstdint>
#include <span>
#include <vector>

#include "clustering/types.h"
#include "data/categorical_dataset.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace lshclust {

/// \brief Owns the k x d centroid matrix and recomputes it from an
/// assignment (per-cluster mean of members).
///
/// Like ModeTable, it keeps an attribute-major copy (d rows of
/// `stride()` >= k entries, padded to simd::kScanLanes) equal to the
/// row-major matrix after every mutator, for ScanSquaredL2's one-call
/// distance scan over all k centroids.
class CentroidTable {
 public:
  /// \param num_clusters k
  /// \param dimensions d
  CentroidTable(uint32_t num_clusters, uint32_t dimensions)
      : num_clusters_(num_clusters),
        dimensions_(dimensions),
        stride_(simd::ScanStride(num_clusters)),
        values_(static_cast<size_t>(num_clusters) * dimensions, 0.0),
        values_t_(static_cast<size_t>(dimensions) * stride_, 0.0),
        sizes_(num_clusters, 0) {}

  uint32_t num_clusters() const { return num_clusters_; }
  uint32_t dimensions() const { return dimensions_; }

  /// The centroid of `cluster`, length d.
  std::span<const double> Centroid(uint32_t cluster) const {
    LSHC_DCHECK(cluster < num_clusters_) << "cluster index out of range";
    return {values_.data() + static_cast<size_t>(cluster) * dimensions_,
            dimensions_};
  }

  /// Raw pointer to the centroid of `cluster` (hot path).
  const double* CentroidData(uint32_t cluster) const {
    return values_.data() + static_cast<size_t>(cluster) * dimensions_;
  }

  /// Overwrites the centroid of `cluster` with explicit coordinates
  /// (length d) — how the persistence loader restores a saved table.
  void SetCentroid(uint32_t cluster, std::span<const double> values) {
    LSHC_DCHECK(cluster < num_clusters_ && values.size() == dimensions_)
        << "centroid shape mismatch";
    for (uint32_t j = 0; j < dimensions_; ++j) Set(cluster, j, values[j]);
  }

  /// Sets the centroid of `cluster` to the coordinates of a dataset row
  /// (seeding).
  void SetFromItem(uint32_t cluster, const NumericDataset& dataset,
                   uint32_t item) {
    const auto row = dataset.Row(item);
    for (uint32_t j = 0; j < dimensions_; ++j) Set(cluster, j, row[j]);
  }

  /// Recomputes every non-empty cluster's centroid as the mean of its
  /// members. Empty clusters follow `policy`: kKeepPreviousMode leaves the
  /// previous centroid in place (classic Lloyd), kReseedRandomItem copies a
  /// random item drawn from `rng`.
  void RecomputeFromAssignment(const NumericDataset& dataset,
                               std::span<const uint32_t> assignment,
                               EmptyClusterPolicy policy, Rng& rng) {
    const uint32_t n = dataset.num_items();
    const uint32_t d = dimensions_;
    std::vector<double> sums(static_cast<size_t>(num_clusters_) * d, 0.0);
    std::fill(sizes_.begin(), sizes_.end(), 0u);
    for (uint32_t item = 0; item < n; ++item) {
      const uint32_t cluster = assignment[item];
      ++sizes_[cluster];
      const auto row = dataset.Row(item);
      double* sum = sums.data() + static_cast<size_t>(cluster) * d;
      for (uint32_t j = 0; j < d; ++j) sum[j] += row[j];
    }
    for (uint32_t cluster = 0; cluster < num_clusters_; ++cluster) {
      if (sizes_[cluster] == 0) {
        if (policy == EmptyClusterPolicy::kReseedRandomItem && n > 0) {
          SetFromItem(cluster, dataset,
                      static_cast<uint32_t>(rng.Below(n)));
        }
        continue;
      }
      const double* sum = sums.data() + static_cast<size_t>(cluster) * d;
      for (uint32_t j = 0; j < d; ++j) {
        Set(cluster, j, sum[j] / sizes_[cluster]);
      }
    }
  }

  /// Number of members per cluster after the last Recompute (size k).
  const std::vector<uint32_t>& cluster_sizes() const { return sizes_; }

  /// out[c] = squared L2 distance of `x` (d values) to centroid c, for all
  /// k clusters, bit for bit the value of an unbounded
  /// internal::BoundedSquaredL2; `out` must hold k entries.
  void ScanSquaredL2(const double* x, double* out) const {
    simd::ActiveKernels().sql2_scan(x, values_t_.data(), dimensions_,
                                    num_clusters_, stride_, out);
  }

  /// Row stride of the attribute-major copy: k rounded up to a multiple
  /// of simd::kScanLanes.
  uint32_t stride() const { return stride_; }

  /// The attribute-major copy: coordinate j of centroid c is entry
  /// j * stride() + c; padding entries are 0.
  std::span<const double> attribute_major() const { return values_t_; }

 private:
  /// Writes coordinate j of `cluster` into both layouts.
  void Set(uint32_t cluster, uint32_t j, double value) {
    values_[static_cast<size_t>(cluster) * dimensions_ + j] = value;
    values_t_[static_cast<size_t>(j) * stride_ + cluster] = value;
  }

  uint32_t num_clusters_;
  uint32_t dimensions_;
  uint32_t stride_;
  std::vector<double> values_;    // row-major k x d
  std::vector<double> values_t_;  // attribute-major d x stride_
  std::vector<uint32_t> sizes_;
};

}  // namespace lshclust
