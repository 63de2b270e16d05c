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
/// The kernel is pure per item and reads only immutable state through
/// RoutedStateView, so any number of threads may route concurrently as
/// long as each owns its RoutedScratch.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "clustering/engine.h"
#include "core/shortlist_provider.h"
#include "lsh/banded_index.h"

namespace lshclust::serving {

/// \brief Per-worker scratch of a routed-query pass: epoch-stamped cluster
/// dedup, the query-signature buffer, family-specific signing scratch
/// (token list for MinHash, centered vector for the mixed family) and the
/// all-clusters distance buffers of the exhaustive argmin — one per
/// worker, so the hot loop never allocates.
struct RoutedScratch {
  ClusterDedupScratch dedup;
  std::vector<uint64_t> signature;
  std::vector<uint32_t> shortlist;
  std::vector<uint32_t> tokens;
  std::vector<double> centered;
  DistanceScratch distances;
};

/// A scratch sized for `num_clusters` clusters and a `signature_width`-wide
/// signature, its distance buffers included. The shortlist/token buffers
/// grow lazily on first use and keep their capacity, so steady-state
/// routing through a warmed scratch performs no allocation.
inline RoutedScratch MakeRoutedScratch(uint32_t num_clusters,
                                       uint32_t signature_width) {
  RoutedScratch scratch;
  scratch.dedup = MakeClusterDedupScratch(num_clusters);
  scratch.signature.resize(signature_width);
  scratch.distances.counts.resize(num_clusters);
  scratch.distances.sums.resize(num_clusters);
  return scratch;
}

/// \brief Read-only view of the routed-query state: the banded buckets
/// over the fitted items' signatures and the fitted assignment as the
/// cluster-reference store, as a FrozenModelImpl holds them.
struct RoutedStateView {
  const BandedIndex* index = nullptr;
  std::span<const uint32_t> fit_assignment;
};

/// Routes one already-signed query (scratch.signature holds the query's
/// signature) through `view`: probe the fit-time buckets, dereference
/// candidate clusters through the fitted assignment, and return the
/// nearest candidate — with the engine's exhaustive argmin (one
/// all-clusters scan into scratch.distances) as the fallback for an empty
/// probe, so no query goes unanswered. Candidates are scanned in
/// ascending cluster-id order with strict improvement, which is the
/// exhaustive scan's lowest-id tie-breaking: a probe containing the true
/// argmin yields exactly Predict's answer.
template <typename Traits>
uint32_t RouteSignedQuery(const typename Traits::Dataset& dataset,
                          const typename Traits::Centroids& model,
                          const typename Traits::Options& options,
                          const RoutedStateView& view, uint32_t item,
                          RoutedScratch& scratch) {
  scratch.shortlist.clear();
  BumpDedupEpoch(scratch.dedup);
  view.index->VisitCandidatesOfSignature(
      scratch.signature, [&](uint32_t other) {
        const uint32_t cluster = view.fit_assignment[other];
        if (scratch.dedup.cluster_stamp[cluster] == scratch.dedup.epoch) {
          return;
        }
        scratch.dedup.cluster_stamp[cluster] = scratch.dedup.epoch;
        scratch.shortlist.push_back(cluster);
      });
  if (scratch.shortlist.empty()) {
    // External queries, unlike fitted items, share no bucket with
    // themselves, so an empty probe is possible: fall back to the
    // exhaustive kernel Predict uses, same seed, same tie-breaking.
    return BestClusterExhaustive<Traits>(dataset, model, options, item,
                                         /*seed_cluster=*/0,
                                         scratch.distances);
  }
  std::sort(scratch.shortlist.begin(), scratch.shortlist.end());
  uint32_t best_cluster = scratch.shortlist.front();
  typename Traits::DistanceType best_distance =
      Traits::template ComputeDistance<false>(dataset, model, options, item,
                                              best_cluster,
                                              Traits::kInfiniteDistance);
  for (size_t i = 1; i < scratch.shortlist.size(); ++i) {
    const uint32_t cluster = scratch.shortlist[i];
    const typename Traits::DistanceType distance =
        Traits::template ComputeDistance<true>(dataset, model, options, item,
                                               cluster, best_distance);
    if (distance < best_distance) {
      best_distance = distance;
      best_cluster = cluster;
    }
  }
  return best_cluster;
}

}  // namespace lshclust::serving
