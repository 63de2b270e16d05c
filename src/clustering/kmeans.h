#pragma once

/// \file kmeans.h
/// \brief K-Means (Lloyd) on numeric data as a traits instantiation of the
/// unified clustering engine (clustering/engine.h), plus the mini-batch
/// variant (Sculley 2010, paper ref [16]).
///
/// The paper's framework is algorithm-agnostic for centroid-based
/// clustering (§I, §VI names numeric data as future work); this module is
/// the numeric substrate that core/lsh_kmeans.h accelerates with SimHash.
/// The refinement loop itself lives in ClusteringEngine — K-Means only
/// supplies the squared-L2 distance and mean-centroid update.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "clustering/centroid_table.h"
#include "clustering/dissimilarity.h"
#include "clustering/engine.h"
#include "clustering/types.h"
#include "data/categorical_dataset.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/rng.h"

namespace lshclust {

/// \brief Options for K-Means runs: the shared engine options. (kHuang and
/// kCao seeding are categorical-only; numeric runs use kRandom.)
struct KMeansOptions : EngineOptions {};

/// \brief Candidate provider scanning all clusters (original K-Means).
using ExhaustiveNumericProvider = ExhaustiveProvider;

/// \brief Dissimilarity/centroid traits for numeric data (K-Means).
struct NumericClusteringTraits {
  using Dataset = NumericDataset;
  using Options = KMeansOptions;
  using DistanceType = double;
  using Centroids = CentroidTable;

  static constexpr DistanceType kInfiniteDistance =
      std::numeric_limits<double>::infinity();

  [[nodiscard]] static Status ValidateOptions(const Dataset&, const Options& options) {
    if (options.initial_seeds.empty() &&
        options.init_method != InitMethod::kRandom) {
      return Status::InvalidArgument(
          "only InitMethod::kRandom is supported for numeric data");
    }
    return Status::OK();
  }

  static Result<std::vector<uint32_t>> SelectSeedItems(const Dataset& dataset,
                                                       const Options& options,
                                                       Rng& rng) {
    return rng.SampleWithoutReplacement(dataset.num_items(),
                                        options.num_clusters);
  }

  static Centroids MakeCentroids(const Dataset& dataset,
                                 const Options& options) {
    return CentroidTable(options.num_clusters, dataset.dimensions());
  }

  static void SeedCentroid(Centroids& centroids, uint32_t cluster,
                           const Dataset& dataset, uint32_t item) {
    centroids.SetFromItem(cluster, dataset, item);
  }

  /// Squared L2 distance of item vs centroid; the bound is only honoured
  /// when EarlyExit is set (the blocked kernel is used either way so the
  /// summation order — and hence the value — never depends on the switch).
  template <bool EarlyExit>
  static DistanceType ComputeDistance(const Dataset& dataset,
                                      const Centroids& centroids,
                                      const Options&, uint32_t item,
                                      uint32_t cluster, DistanceType bound) {
    return internal::BoundedSquaredL2(
        dataset.Row(item).data(), centroids.CentroidData(cluster),
        dataset.dimensions(),
        EarlyExit ? bound : std::numeric_limits<double>::infinity());
  }

  /// Squared L2 of `item` to all k centroids, in scratch.sums: each the
  /// value ComputeDistance<false> returns, bit for bit.
  static std::span<const DistanceType> ScanDistances(
      const Dataset& dataset, const Centroids& centroids, const Options&,
      uint32_t item, DistanceScratch& scratch) {
    scratch.sums.resize(centroids.num_clusters());
    centroids.ScanSquaredL2(dataset.Row(item).data(), scratch.sums.data());
    return scratch.sums;
  }

  static void UpdateCentroids(const Dataset& dataset, Centroids& centroids,
                              std::span<const uint32_t> assignment,
                              const Options& options, Rng& rng) {
    centroids.RecomputeFromAssignment(dataset, assignment,
                                      options.empty_cluster_policy, rng);
  }

  /// Inertia: summed exact squared L2 of every item to its centroid.
  static double ComputeCost(const Dataset& dataset, const Centroids& centroids,
                            const Options&,
                            std::span<const uint32_t> assignment) {
    double inertia = 0;
    for (uint32_t item = 0; item < dataset.num_items(); ++item) {
      inertia += internal::SquaredL2(dataset.Row(item),
                                     centroids.Centroid(assignment[item]));
    }
    return inertia;
  }
};

/// \brief Runs Lloyd's algorithm with candidates from `provider` — the
/// numeric instantiation of the unified engine (same phase structure, same
/// instrumentation semantics as RunEngine).
template <typename Provider>
Result<ClusteringResult> RunKMeansEngine(const NumericDataset& dataset,
                                         const KMeansOptions& options,
                                         Provider& provider,
                                         CentroidTable* final_centroids =
                                             nullptr) {
  return ClusteringEngine<NumericClusteringTraits, Provider>::Run(
      dataset, options, provider, final_centroids);
}

/// Runs exhaustive K-Means (Lloyd's algorithm).
Result<ClusteringResult> RunKMeans(const NumericDataset& dataset,
                                   const KMeansOptions& options);

/// \brief Options for mini-batch K-Means (Sculley 2010).
struct MiniBatchKMeansOptions {
  /// Number of clusters k.
  uint32_t num_clusters = 0;
  /// Items sampled per batch.
  uint32_t batch_size = 256;
  /// Number of batches processed.
  uint32_t num_batches = 100;
  /// RNG seed (sampling and seeding).
  uint64_t seed = 42;
};

/// Runs mini-batch K-Means: per batch, assign the sampled items to their
/// nearest centroid, then move each touched centroid towards the batch
/// members with per-centroid learning rate 1/count. Converges orders of
/// magnitude faster than Lloyd on large n at a small inertia penalty —
/// the web-scale trade-off of the paper's ref [16]. The result's
/// `iterations` carry per-batch moves; `assignment` is a final full pass.
Result<ClusteringResult> RunMiniBatchKMeans(
    const NumericDataset& dataset, const MiniBatchKMeansOptions& options);

}  // namespace lshclust
