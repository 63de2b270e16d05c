#pragma once

/// \file routing.h
/// \brief The shared routed-query kernel: sign query -> probe buckets ->
/// exact distance over the shortlist, exhaustive fallback on an empty
/// probe.
///
/// FrozenModelImpl::RouteRange signs each query and calls this kernel;
/// both FrozenModel::RouteInto and Clusterer::PredictRouted route through
/// that one loop over the one fitted model, so their answers agree by
/// construction.
///
/// A probe builds the query's shortlist as one ⌈k/64⌉-word cluster mask:
/// from the model's per-bucket cluster masks when it holds them (dense
/// buckets, see BandedIndex::ClusterMasksFit), and otherwise by mapping
/// each probed item through the fit assignment. Both give the same set,
/// and either way its bits are scored in ascending cluster id. A
/// shortlist of at least a quarter of the clusters is scored from a
/// single all-clusters scan, a shorter one pair by pair. The k/4
/// crossover comes from BENCH_core.json `exhaustive_scan`: on perfbench's
/// fit shapes a scanned cluster costs a fifth to a half of a pair scored
/// with the early-exit kernels.
///
/// The kernel is pure per item and reads only immutable state through
/// RoutedStateView, so any number of threads may route concurrently as
/// long as each owns its RoutedScratch.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "clustering/engine.h"
#include "lsh/banded_index.h"

namespace lshclust::serving {

/// \brief Per-worker scratch of a routed-query pass: the query-signature
/// buffer, the query's shortlist mask, family-specific signing scratch
/// (token list for MinHash, centered vector for the mixed family) and the
/// all-clusters distance buffers of the scan and the exhaustive argmin —
/// one per worker, so the hot loop never allocates.
struct RoutedScratch {
  std::vector<uint64_t> signature;
  std::vector<uint64_t> mask;  // ⌈k/64⌉ words, bit c = cluster c
  std::vector<uint32_t> tokens;
  std::vector<double> centered;
  DistanceScratch distances;
};

/// A scratch sized for `num_clusters` clusters and a `signature_width`-wide
/// signature, its mask and distance buffers included. The token buffers
/// grow lazily on first use and keep their capacity, so steady-state
/// routing through a warmed scratch performs no allocation.
inline RoutedScratch MakeRoutedScratch(uint32_t num_clusters,
                                       uint32_t signature_width) {
  RoutedScratch scratch;
  scratch.signature.resize(signature_width);
  scratch.mask.resize((num_clusters + 63) / 64);
  scratch.distances.counts.resize(num_clusters);
  scratch.distances.sums.resize(num_clusters);
  return scratch;
}

/// \brief Read-only view of the routed-query state: the banded buckets
/// over the fitted items' signatures, the fitted assignment as the
/// cluster-reference store and, when the model filled them, the buckets'
/// cluster masks under that assignment, as a FrozenModelImpl holds them.
struct RoutedStateView {
  const BandedIndex* index = nullptr;
  std::span<const uint32_t> fit_assignment;
  /// Filled from `index` under `fit_assignment`; null = walk items.
  const BucketClusterMasks* cluster_masks = nullptr;
};

/// Routes one already-signed query (scratch.signature holds the query's
/// signature) through `view`: probe the fit-time buckets, collect the
/// clusters of the items they hold into scratch.mask (the OR of the
/// buckets' cluster masks, or each probed item's fitted cluster), and
/// return the nearest of them — with the engine's exhaustive argmin (one
/// all-clusters scan into scratch.distances) as the fallback for an empty
/// probe, so no query goes unanswered. Candidates are taken in ascending
/// cluster id, each replacing the best only if strictly nearer, which is
/// the exhaustive scan's lowest-id tie-breaking: a probe containing the
/// true argmin yields exactly Predict's answer.
///
/// A shortlist of at least k/4 clusters reads its distances from one
/// Traits::ScanDistances row; a shorter one scores its lowest cluster with
/// ComputeDistance<false> and the rest with the early-exit kernel. Both
/// pick the same cluster: scanned values equal ComputeDistance<false> bit
/// for bit, an early-exit value is never below the running best and so
/// never wins a strict `<`, and a NaN first candidate wins either way.
template <typename Traits>
uint32_t RouteSignedQuery(const typename Traits::Dataset& dataset,
                          const typename Traits::Centroids& model,
                          const typename Traits::Options& options,
                          const RoutedStateView& view, uint32_t item,
                          RoutedScratch& scratch) {
  using DistanceType = typename Traits::DistanceType;
  const uint32_t k = options.num_clusters;
  const uint32_t words = (k + 63) / 64;
  LSHC_DCHECK(scratch.mask.size() >= words) << "scratch mask too narrow";
  uint64_t* const mask = scratch.mask.data();
  if (view.cluster_masks != nullptr) {
    view.index->OrClusterMasksOfSignature(scratch.signature,
                                          *view.cluster_masks, mask);
  } else {
    std::fill(mask, mask + words, uint64_t{0});
    view.index->VisitCandidatesOfSignature(
        scratch.signature, [&](uint32_t other) {
          const uint32_t cluster = view.fit_assignment[other];
          mask[cluster / 64] |= uint64_t{1} << (cluster % 64);
        });
  }
  uint32_t shortlisted = 0;
  for (uint32_t w = 0; w < words; ++w) {
    shortlisted += static_cast<uint32_t>(std::popcount(mask[w]));
  }
  if (shortlisted == 0) {
    // External queries, unlike fitted items, share no bucket with
    // themselves, so an empty probe is possible: fall back to the
    // exhaustive kernel Predict uses, same seed, same tie-breaking.
    return BestClusterExhaustive<Traits>(dataset, model, options, item,
                                         /*seed_cluster=*/0,
                                         scratch.distances);
  }
  std::span<const DistanceType> scanned;
  if (uint64_t{shortlisted} * 4 >= k) {
    scanned = Traits::ScanDistances(dataset, model, options, item,
                                    scratch.distances);
  }
  uint32_t best_cluster = k;  // none yet
  DistanceType best_distance = Traits::kInfiniteDistance;
  for (uint32_t w = 0; w < words; ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const uint32_t cluster =
          w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      DistanceType distance;
      if (!scanned.empty()) {
        distance = scanned[cluster];
      } else if (best_cluster == k) {
        distance = Traits::template ComputeDistance<false>(
            dataset, model, options, item, cluster, Traits::kInfiniteDistance);
      } else {
        distance = Traits::template ComputeDistance<true>(
            dataset, model, options, item, cluster, best_distance);
      }
      if (best_cluster == k || distance < best_distance) {
        best_distance = distance;
        best_cluster = cluster;
      }
    }
  }
  return best_cluster;
}

}  // namespace lshclust::serving
