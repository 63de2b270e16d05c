#pragma once

/// \file kprototypes.h
/// \brief K-Prototypes (Huang 1998): centroid clustering of mixed
/// categorical + numeric items as a traits instantiation of the unified
/// clustering engine (clustering/engine.h).
///
/// Distance between item X and prototype P (mode Q, centroid c):
///   d(X, P) = mismatches(X_cat, Q) + gamma * ||X_num - c||^2
/// Prototype update: per-attribute majority for the categorical part,
/// mean for the numeric part. `gamma` balances the modalities (Huang
/// suggests ~0.5 * mean numeric variance; here it is explicit). The
/// refinement loop lives in ClusteringEngine; this module only supplies
/// the mixed distance and the dual-modality prototype update.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "clustering/centroid_table.h"
#include "clustering/dissimilarity.h"
#include "clustering/engine.h"
#include "clustering/modes.h"
#include "clustering/types.h"
#include "data/mixed_dataset.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/rng.h"

namespace lshclust {

/// \brief Options for K-Prototypes runs: the shared engine options plus
/// the modality weight.
struct KPrototypesOptions : EngineOptions {
  /// Weight of the numeric squared distance against categorical
  /// mismatches.
  double gamma = 1.0;
};

/// \brief Candidate provider scanning all clusters (original K-Prototypes).
using ExhaustiveMixedProvider = ExhaustiveProvider;

/// \brief Dissimilarity/centroid traits for mixed data (K-Prototypes).
struct MixedClusteringTraits {
  using Dataset = MixedDataset;
  using Options = KPrototypesOptions;
  using DistanceType = double;

  /// Mode + centroid per cluster.
  struct Centroids {
    ModeTable modes;
    CentroidTable centroids;
  };

  /// Not infinity: the categorical bound conversion below compares
  /// against 4e9 to detect "no bound yet", mirroring the historical
  /// K-Prototypes kernel.
  static constexpr DistanceType kInfiniteDistance =
      std::numeric_limits<double>::max();

  [[nodiscard]] static Status ValidateOptions(const Dataset&, const Options& options) {
    if (!(std::isfinite(options.gamma) && options.gamma >= 0.0)) {
      return Status::InvalidArgument(
          "gamma must be a finite non-negative number");
    }
    if (options.initial_seeds.empty() &&
        options.init_method != InitMethod::kRandom) {
      return Status::InvalidArgument(
          "only InitMethod::kRandom is supported for mixed data");
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
    return Centroids{
        ModeTable(options.num_clusters, dataset.num_categorical()),
        CentroidTable(options.num_clusters, dataset.num_numeric())};
  }

  static void SeedCentroid(Centroids& prototypes, uint32_t cluster,
                           const Dataset& dataset, uint32_t item) {
    prototypes.modes.SetModeFromItem(cluster, dataset.categorical(), item);
    prototypes.centroids.SetFromItem(cluster, dataset.numeric(), item);
  }

  /// Mixed distance with early exit through both modalities: the
  /// categorical mismatch count is a lower bound on the total, so the
  /// bounded kernel prunes before the numeric part is touched.
  template <bool EarlyExit>
  static DistanceType ComputeDistance(const Dataset& dataset,
                                      const Centroids& prototypes,
                                      const Options& options, uint32_t item,
                                      uint32_t cluster, DistanceType bound) {
    if constexpr (!EarlyExit) bound = kInfiniteDistance;
    const uint32_t m = dataset.num_categorical();
    const uint32_t categorical_part = BoundedMismatchDistance(
        dataset.categorical().Row(item).data(),
        prototypes.modes.ModeData(cluster), m,
        bound >= 4.0e9 ? ~0u : static_cast<uint32_t>(bound) + 1);
    if (static_cast<double>(categorical_part) >= bound) {
      return static_cast<double>(categorical_part);
    }
    const double numeric_part = internal::BoundedSquaredL2(
        dataset.numeric().Row(item).data(),
        prototypes.centroids.CentroidData(cluster), dataset.num_numeric(),
        (bound - categorical_part) / (options.gamma > 0 ? options.gamma
                                                        : 1.0));
    return categorical_part + options.gamma * numeric_part;
  }

  /// Mixed distance of `item` to all k prototypes, in scratch.sums: the
  /// two modality scans composed as cat + gamma * num, the expression
  /// ComputeDistance<false> evaluates, so each entry is its value.
  static std::span<const DistanceType> ScanDistances(
      const Dataset& dataset, const Centroids& prototypes,
      const Options& options, uint32_t item, DistanceScratch& scratch) {
    const uint32_t k = prototypes.modes.num_clusters();
    scratch.counts.resize(k);
    scratch.sums.resize(k);
    prototypes.modes.ScanMismatches(dataset.categorical().Row(item).data(),
                                    scratch.counts.data());
    prototypes.centroids.ScanSquaredL2(dataset.numeric().Row(item).data(),
                                       scratch.sums.data());
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      scratch.sums[cluster] = scratch.counts[cluster] +
                              options.gamma * scratch.sums[cluster];
    }
    return scratch.sums;
  }

  /// Majority modes + mean centroids. With kReseedRandomItem each empty
  /// cluster draws one random item per modality (two draws), so keep the
  /// default kKeepPreviousMode unless reseeding is really wanted.
  static void UpdateCentroids(const Dataset& dataset, Centroids& prototypes,
                              std::span<const uint32_t> assignment,
                              const Options& options, Rng& rng) {
    prototypes.modes.RecomputeFromAssignment(dataset.categorical(),
                                             assignment,
                                             options.empty_cluster_policy,
                                             rng);
    prototypes.centroids.RecomputeFromAssignment(
        dataset.numeric(), assignment, options.empty_cluster_policy, rng);
  }

  /// The mixed objective: summed exact mixed distance of every item to its
  /// prototype.
  static double ComputeCost(const Dataset& dataset,
                            const Centroids& prototypes,
                            const Options& options,
                            std::span<const uint32_t> assignment) {
    double cost = 0;
    for (uint32_t item = 0; item < dataset.num_items(); ++item) {
      cost += ComputeDistance<false>(dataset, prototypes, options, item,
                                     assignment[item], kInfiniteDistance);
    }
    return cost;
  }
};

/// \brief Runs K-Prototypes with candidates from `provider` — the mixed
/// instantiation of the unified engine (same phases, same instrumentation
/// as RunEngine / RunKMeansEngine).
template <typename Provider>
Result<ClusteringResult> RunKPrototypesEngine(
    const MixedDataset& dataset, const KPrototypesOptions& options,
    Provider& provider,
    MixedClusteringTraits::Centroids* final_prototypes = nullptr) {
  return ClusteringEngine<MixedClusteringTraits, Provider>::Run(
      dataset, options, provider, final_prototypes);
}

/// Runs exhaustive K-Prototypes.
inline Result<ClusteringResult> RunKPrototypes(
    const MixedDataset& dataset, const KPrototypesOptions& options) {
  ExhaustiveMixedProvider provider;
  return RunKPrototypesEngine(dataset, options, provider);
}

}  // namespace lshclust
