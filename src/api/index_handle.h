#pragma once

/// \file index_handle.h
/// \brief A read-only handle on the shortlist index a Clusterer::Fit
/// built and retained — the fit-time LSH state (banded buckets over the
/// fitted items' signatures plus the fitted assignment as the
/// cluster-reference store) exposed to callers instead of being thrown
/// away when Fit returns.
///
/// The handle powers two things:
///  * diagnostics of the retained state — bucket occupancy (computed
///    live from the index), plus the memory footprint and the provider's
///    dataset-signing counter (both snapshotted when the handle is
///    created; the counter proves routed prediction never re-signs the
///    fitted dataset — re-fetch a handle after routing to observe it),
///    and
///  * candidate enumeration for dedup-style workloads: the fitted items
///    co-bucketed with a fitted item are exactly the near-duplicate
///    candidates the paper's banding S-curve selects, without any
///    distance computation.
///
/// Lifetime: a handle is a *view* into the Clusterer's retained model. It
/// stays valid until the originating Clusterer is destroyed or its next
/// Fit call begins (a successful Fit replaces the retained index; a
/// rejected one leaves it — and outstanding handles — untouched). Moving
/// the Clusterer keeps handles valid (the model's storage is stable);
/// holding a handle across a Fit is a use-after-free. Each handle carries
/// its fit's generation, so staleness is *observable*: `valid()` flips to
/// false the moment a later Fit commits (destruction of the Clusterer is
/// still the caller's liability — the generation cell dies with it), and
/// debug builds assert validity in every accessor that dereferences the
/// retained state.
///
/// Contrast with the serving layer: a `serving::FrozenModel`
/// (Clusterer::Snapshot) is the opposite trade — a deep *copy* that stays
/// valid through refits and past the Clusterer's destruction, at the cost
/// of duplicating the index. Use handles for cheap same-fit diagnostics
/// and dedup probes; use snapshots for anything that outlives the fit.

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

/// \brief Read-only view of a Clusterer's retained fit-time shortlist
/// index. Obtained from Clusterer::index(); see the file comment for the
/// lifetime contract. Copyable (it is two pointers and two counters).
class IndexHandle {
 public:
  /// True while the fit this handle was taken from is still the
  /// Clusterer's current one; false as soon as a later Fit commits (the
  /// retained state this handle views has then been replaced and must not
  /// be dereferenced). Safe to call on a stale handle — this is the one
  /// accessor that touches no retained state; it exists so callers can
  /// detect staleness instead of discovering it as a use-after-free.
  bool valid() const { return *generation_ == created_generation_; }

  /// Number of fitted items the index covers (= the fitted dataset size).
  uint32_t num_indexed_items() const {
    LSHC_DCHECK(valid()) << "IndexHandle outlived its fit (see the lifetime "
                            "contract in api/index_handle.h)";
    return index_->num_items();
  }

  /// Number of bands of the banding layout.
  uint32_t num_bands() const {
    LSHC_DCHECK(valid()) << "IndexHandle outlived its fit (see the lifetime "
                            "contract in api/index_handle.h)";
    return index_->num_bands();
  }

  /// Bucket-occupancy statistics, computed from the live retained index.
  BandedIndex::Stats ComputeStats() const {
    LSHC_DCHECK(valid()) << "IndexHandle outlived its fit (see the lifetime "
                            "contract in api/index_handle.h)";
    return index_->ComputeStats();
  }

  /// Approximate heap footprint of the retained shortlist state (banded
  /// index + hashers + any kept signatures), as of handle creation.
  uint64_t memory_bytes() const { return memory_bytes_; }

  /// Number of completed full-dataset signing passes the retained
  /// provider had executed when this handle was created — 1 after a Fit,
  /// and still 1 on a handle fetched after any number of PredictRouted
  /// calls (each query signs only itself; the fitted dataset is never
  /// re-signed). Snapshotted at creation: to assert routing added no
  /// pass, fetch a fresh handle after routing.
  uint64_t dataset_sign_passes() const { return dataset_sign_passes_; }

  /// The fitted cluster of fitted item `item` (the assignment Fit
  /// returned — the cluster-reference store routed queries dereference).
  uint32_t ClusterOf(uint32_t item) const {
    LSHC_DCHECK(valid()) << "IndexHandle outlived its fit (see the lifetime "
                            "contract in api/index_handle.h)";
    LSHC_DCHECK(item < assignment_.size()) << "item index out of range";
    return assignment_[item];
  }

  /// The deduplicated fitted items co-bucketed with fitted `item` in at
  /// least one band, ascending (always includes `item` itself — an item
  /// shares every one of its buckets with itself). This is the raw
  /// near-duplicate candidate set of dedup workloads: pairs the banding
  /// S-curve considers similar, before any exact distance is computed.
  std::vector<uint32_t> CandidateItemsOf(uint32_t item) const {
    LSHC_DCHECK(valid()) << "IndexHandle outlived its fit (see the lifetime "
                            "contract in api/index_handle.h)";
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
    LSHC_DCHECK(valid()) << "IndexHandle outlived its fit (see the lifetime "
                            "contract in api/index_handle.h)";
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

  IndexHandle(const BandedIndex* index, std::span<const uint32_t> assignment,
              uint64_t memory_bytes, uint64_t dataset_sign_passes,
              std::shared_ptr<const uint64_t> generation,
              uint64_t created_generation)
      : index_(index),
        assignment_(assignment),
        memory_bytes_(memory_bytes),
        dataset_sign_passes_(dataset_sign_passes),
        generation_(std::move(generation)),
        created_generation_(created_generation) {
    LSHC_DCHECK(index != nullptr) << "handle requires a live index";
    LSHC_DCHECK(generation_ != nullptr) << "handle requires a generation";
  }

  const BandedIndex* index_;
  std::span<const uint32_t> assignment_;
  uint64_t memory_bytes_;
  uint64_t dataset_sign_passes_;
  // The dispatcher's fit-generation cell + its value at handle creation;
  // a later Fit bumps the cell, flipping valid() to false.
  std::shared_ptr<const uint64_t> generation_;
  uint64_t created_generation_ = 0;
};

}  // namespace lshclust
