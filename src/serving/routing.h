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
/// A probe reads each bucket's distinct clusters from the model's
/// per-bucket cluster lists when the model built them (large buckets, see
/// RoutesOverClusterLists), and otherwise maps the bucket's items through
/// the fit assignment; both give the same shortlist. A short shortlist is
/// scored pair by pair; one holding at least a quarter of the clusters is
/// scored from a single all-clusters scan. The k/4 crossover comes from
/// BENCH_core.json `exhaustive_scan`: on perfbench's fit shapes a scanned
/// cluster costs a fifth to a half of a pair scored with the early-exit
/// kernels, and the pair path also sorts its shortlist.
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
/// over the fitted items' signatures, the fitted assignment as the
/// cluster-reference store and, when the model built them, the buckets'
/// cluster lists under that assignment, as a FrozenModelImpl holds them.
struct RoutedStateView {
  const BandedIndex* index = nullptr;
  std::span<const uint32_t> fit_assignment;
  /// Compacted from `index` under `fit_assignment`; null = walk items.
  const BucketClusterTable* cluster_lists = nullptr;
};

/// Mean bucket size (n x bands / buckets) from which a fitted model
/// compacts its buckets to cluster lists. Below it most buckets hold one
/// item, so the lists would repeat the fit assignment at a second copy's
/// cost and save no visits.
inline constexpr uint64_t kMinMeanBucketForClusterLists = 2;

/// Whether a model over `index` routes over per-bucket cluster lists:
/// its mean bucket holds at least kMinMeanBucketForClusterLists items.
/// O(bands), since every publish of a live session builds a model.
inline bool RoutesOverClusterLists(const BandedIndex& index) {
  return static_cast<uint64_t>(index.num_items()) * index.num_bands() >=
         kMinMeanBucketForClusterLists * index.num_buckets();
}

/// Routes one already-signed query (scratch.signature holds the query's
/// signature) through `view`: probe the fit-time buckets, collect the
/// distinct clusters of the items they hold (from the cluster lists, or
/// through the fitted assignment), and return the nearest candidate —
/// with the engine's exhaustive argmin (one all-clusters scan into
/// scratch.distances) as the fallback for an empty probe, so no query
/// goes unanswered. Candidates are taken in ascending cluster id, each
/// replacing the best only if strictly nearer, which is the exhaustive
/// scan's lowest-id tie-breaking: a probe containing the true argmin
/// yields exactly Predict's answer.
///
/// A shortlist of at least k/4 clusters is scored from one
/// Traits::ScanDistances row, masked to the shortlist; a shorter one is
/// sorted and scored pair by pair with the early-exit kernels. Both pick
/// the same cluster: scanned values equal ComputeDistance<false> bit for
/// bit, an early-exit value is never below the running best and so never
/// wins a strict `<`, and a NaN first candidate wins either way.
template <typename Traits>
uint32_t RouteSignedQuery(const typename Traits::Dataset& dataset,
                          const typename Traits::Centroids& model,
                          const typename Traits::Options& options,
                          const RoutedStateView& view, uint32_t item,
                          RoutedScratch& scratch) {
  scratch.shortlist.clear();
  BumpDedupEpoch(scratch.dedup);
  uint32_t* const stamp = scratch.dedup.cluster_stamp.data();
  const uint32_t epoch = scratch.dedup.epoch;
  const auto collect = [&](uint32_t cluster) {
    if (stamp[cluster] == epoch) return;
    stamp[cluster] = epoch;
    scratch.shortlist.push_back(cluster);
  };
  if (view.cluster_lists != nullptr) {
    view.index->VisitCandidateClustersOfSignature(scratch.signature,
                                                  *view.cluster_lists,
                                                  collect);
  } else {
    view.index->VisitCandidatesOfSignature(
        scratch.signature,
        [&](uint32_t other) { collect(view.fit_assignment[other]); });
  }
  if (scratch.shortlist.empty()) {
    // External queries, unlike fitted items, share no bucket with
    // themselves, so an empty probe is possible: fall back to the
    // exhaustive kernel Predict uses, same seed, same tie-breaking.
    return BestClusterExhaustive<Traits>(dataset, model, options, item,
                                         /*seed_cluster=*/0,
                                         scratch.distances);
  }
  const uint32_t k = options.num_clusters;
  if (scratch.shortlist.size() * 4 >= k) {
    // The stamps mark the shortlist: start at its lowest id, then take
    // each later shortlisted cluster that strictly improves.
    const std::span<const typename Traits::DistanceType> distances =
        Traits::ScanDistances(dataset, model, options, item,
                              scratch.distances);
    uint32_t cluster = 0;
    while (stamp[cluster] != epoch) ++cluster;
    uint32_t best_cluster = cluster;
    typename Traits::DistanceType best_distance = distances[cluster];
    for (++cluster; cluster < k; ++cluster) {
      if (stamp[cluster] == epoch && distances[cluster] < best_distance) {
        best_distance = distances[cluster];
        best_cluster = cluster;
      }
    }
    return best_cluster;
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
