#pragma once

/// \file canopy_shortlist_index.h
/// \brief The canopy-based candidate provider — the classic related-work
/// accelerator (paper ref [15]) plugged into the same engine hook as the
/// LSH shortlist providers, so the two search-space-reduction strategies
/// compare head-to-head.
///
/// Candidate clusters of item X = the clusters currently containing X's
/// canopy peers — structurally identical to the MinHash shortlist, with
/// canopies (cheap-distance balls) replacing LSH buckets. Canopies are
/// built once after the initial assignment, exactly where MH-K-Modes
/// builds its index, so phase timings are comparable.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "clustering/canopy.h"
#include "core/shortlist_provider.h"
#include "data/categorical_dataset.h"
#include "util/result.h"

namespace lshclust {

/// \brief Engine provider producing canopy-peer cluster shortlists.
/// Parallel-capable: queries are const with per-caller scratch, same
/// contract as ShortlistProvider.
class CanopyShortlistProvider {
 public:
  CanopyShortlistProvider(const CanopyOptions& options, uint32_t num_clusters)
      : options_(options), num_clusters_(num_clusters) {
    LSHC_DCHECK(num_clusters >= 1) << "need at least one cluster";
  }

  static constexpr bool kExhaustive = false;

  /// Per-caller query state (see ClusterDedupScratch).
  using Scratch = ClusterDedupScratch;

  /// A fresh scratch sized for this provider's cluster count.
  Scratch MakeScratch() const { return MakeClusterDedupScratch(num_clusters_); }

  /// Builds the canopy cover (the accelerator's one-time pass). The pool
  /// is accepted for engine-signature parity but unused (canopy
  /// construction is inherently sequential); when `cancel` is non-null it
  /// is polled before the build, and a true answer aborts with
  /// StatusCode::kCancelled leaving the provider cover-less (any previous
  /// cover is dropped on entry, matching ShortlistProvider::Prepare's
  /// no-partial-index contract).
  [[nodiscard]] Status Prepare(const CategoricalDataset& dataset,
                 ThreadPool* /*pool*/ = nullptr,
                 const std::function<bool()>* cancel = nullptr) {
    index_.reset();
    if (cancel != nullptr && (*cancel)()) {
      return Status::Cancelled(
          "canopy construction stopped by the cancellation hook");
    }
    LSHC_ASSIGN_OR_RETURN(CanopyIndex index,
                          CanopyIndex::Build(dataset, options_));
    index_ = std::make_unique<CanopyIndex>(std::move(index));
    return Status::OK();
  }

  /// Deduplicated clusters of the item's canopy peers, always containing
  /// its current cluster. Thread-safe given a private `scratch`.
  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     Scratch& scratch, std::vector<uint32_t>* out) const {
    CollectCandidateClusters(item, assignment, scratch, out,
                             [&](auto&& sink) {
                               index_->VisitCanopyPeers(item, sink);
                             });
  }

  /// The canopy cover (null before Prepare).
  const CanopyIndex* index() const { return index_.get(); }

 private:
  CanopyOptions options_;
  uint32_t num_clusters_;
  std::unique_ptr<CanopyIndex> index_;
};

}  // namespace lshclust
