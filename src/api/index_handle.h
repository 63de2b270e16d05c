#pragma once

/// \file index_handle.h
/// \brief A read-only handle on the shortlist index of a Clusterer's
/// fitted model — the fit-time LSH state (banded buckets over the fitted
/// items' signatures plus the fitted assignment as the cluster-reference
/// store) exposed to callers instead of being thrown away when Fit
/// returns. The model may also hold per-bucket cluster masks for routing
/// (see serving/frozen_model.h); the handle answers from the buckets and
/// the assignment, so its answers do not depend on whether it does.
///
/// The handle powers two things:
///  * diagnostics of the fitted index — bucket occupancy (computed from
///    the index), the model's memory footprint and the number of
///    full-dataset signing passes that built the index (1 after a Fit, 0
///    for a model loaded from a file, whose buckets were adopted
///    verbatim), and
///  * candidate enumeration for dedup-style workloads: the fitted items
///    co-bucketed with a fitted item are exactly the near-duplicate
///    candidates the paper's banding S-curve selects, without any
///    distance computation.
///
/// Lifetime: a handle shares ownership of the immutable fitted model it
/// was taken from — the same object Clusterer::Snapshot returns. It never
/// dangles: a later Fit swaps a new model into the Clusterer and leaves
/// this one, and every handle on it, untouched, and destroying the
/// Clusterer frees the model only once the last handle and snapshot on it
/// are gone. A handle therefore always describes the fit it was taken
/// from; fetch a fresh one after a refit to see the new index.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lsh/banded_index.h"
#include "util/logging.h"

namespace lshclust {

namespace internal {
class EngineDispatcher;
}  // namespace internal

/// \brief Read-only view of the shortlist index of a fitted model that
/// keeps that model alive. Obtained from Clusterer::index(); see the file
/// comment for the lifetime contract. Copyable.
class IndexHandle {
 public:
  /// Number of fitted items the index covers (= the fitted dataset size).
  uint32_t num_indexed_items() const { return index_->num_items(); }

  /// Number of bands of the banding layout.
  uint32_t num_bands() const { return index_->num_bands(); }

  /// Bucket-occupancy statistics, computed from the index.
  BandedIndex::Stats ComputeStats() const { return index_->ComputeStats(); }

  /// Approximate heap footprint of the model's shortlist state (banded
  /// index + fitted assignment + any per-bucket cluster masks) —
  /// FrozenModel::memory_bytes().
  uint64_t memory_bytes() const { return memory_bytes_; }

  /// Number of full-dataset signing passes that built the index: 1 for a
  /// fitted model, 0 for one loaded by Clusterer::FromSnapshot. Routed
  /// prediction signs only its queries and cannot change the immutable
  /// model, so this never grows.
  uint64_t dataset_sign_passes() const { return dataset_sign_passes_; }

  /// The fitted cluster of fitted item `item` (the assignment Fit
  /// returned — the cluster-reference store routed queries dereference).
  uint32_t ClusterOf(uint32_t item) const {
    LSHC_DCHECK(item < assignment_.size()) << "item index out of range";
    return assignment_[item];
  }

  /// The deduplicated fitted items co-bucketed with fitted `item` in at
  /// least one band, ascending (always includes `item` itself — an item
  /// shares every one of its buckets with itself). This is the raw
  /// near-duplicate candidate set of dedup workloads: pairs the banding
  /// S-curve considers similar, before any exact distance is computed.
  std::vector<uint32_t> CandidateItemsOf(uint32_t item) const {
    std::vector<uint32_t> items;
    index_->VisitCandidates(item,
                            [&](uint32_t other) { items.push_back(other); });
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    return items;
  }

  /// The deduplicated clusters (per the fitted assignment) of the items
  /// CandidateItemsOf enumerates, ascending — the shortlist a fit-time
  /// refinement query for `item` would see against the final assignment.
  std::vector<uint32_t> CandidateClustersOf(uint32_t item) const {
    std::vector<uint32_t> clusters;
    clusters.push_back(assignment_[item]);
    index_->VisitCandidates(item, [&](uint32_t other) {
      clusters.push_back(assignment_[other]);
    });
    std::sort(clusters.begin(), clusters.end());
    clusters.erase(std::unique(clusters.begin(), clusters.end()),
                   clusters.end());
    return clusters;
  }

 private:
  friend class internal::EngineDispatcher;

  /// `index` shares ownership of the model that holds it and
  /// `assignment`.
  IndexHandle(std::shared_ptr<const BandedIndex> index,
              std::span<const uint32_t> assignment, uint64_t memory_bytes,
              uint64_t dataset_sign_passes)
      : index_(std::move(index)),
        assignment_(assignment),
        memory_bytes_(memory_bytes),
        dataset_sign_passes_(dataset_sign_passes) {
    LSHC_DCHECK(index_ != nullptr) << "handle requires an index";
  }

  std::shared_ptr<const BandedIndex> index_;
  std::span<const uint32_t> assignment_;
  uint64_t memory_bytes_;
  uint64_t dataset_sign_passes_;
};

}  // namespace lshclust
