#pragma once

/// \file frozen_model_impl.h
/// \brief Internal: the templated FrozenModel implementation — the one
/// representation of a fitted model.
///
/// `FrozenModelImpl<Traits, Family>` owns everything a fitted model is:
/// the engine options (progress/cancel hooks cleared — a model must never
/// call back into the Fit that produced it), the centroid/mode table, the
/// signing family (hashers, seeds and all), the banded index, the
/// fit-time assignment that serves as the cluster-reference store and —
/// when the index's buckets are large enough to pay for it
/// (RoutesOverClusterLists) — those buckets compacted once to the distinct
/// clusters of their items, which routed queries walk instead of the
/// items. It is immutable once built. A `Clusterer` holds its fitted state
/// as one of these behind a `shared_ptr<const FrozenModel>`, so
/// `Snapshot()` hands out that same object, `IndexHandle`s share it, and
/// `PredictRouted` and `RouteInto` run the same sign-and-route code
/// (RouteRange) over it.
/// `Family = internal::NoFamily` is the exhaustive specialization: no
/// index, routing degenerates to the exhaustive argmin (exactly Predict).
///
/// Models are built in three places: `Clusterer::Fit` (moving the
/// prepared provider's family and index in), `persist::BuildFrozenModel`
/// (the one load path, shared by `LoadFrozenModel` and
/// `Clusterer::FromSnapshot`) and `StreamingSession::Snapshot` (a copy of
/// the live session's state). Each constructs the cluster lists itself,
/// so model files never carry them. Applications program against
/// serving/frozen_model.h and never name these types.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "clustering/engine.h"
#include "data/categorical_dataset.h"
#include "data/mixed_dataset.h"
#include "lsh/banded_index.h"
#include "serving/frozen_model.h"
#include "serving/routing.h"
#include "util/macros.h"
#include "util/status.h"

namespace lshclust::serving::internal {

/// Family tag for exhaustive models (no index, no signing).
struct NoFamily {};

/// The one concrete RouteScratch type every FrozenModelImpl hands out and
/// accepts. Sharing a single type (rather than one per Traits/Family) is
/// what lets a reader keep its warmed scratch across ModelServer swaps:
/// RouteInto re-validates the sizes against its own model and only
/// reallocates when the model's shape actually changed.
class ScratchHolder final : public FrozenModel::RouteScratch {
 public:
  RoutedScratch scratch;
};

/// kInvalidArgument unless `queries` has the fitted model's shape
/// (`primary`/`secondary` as FrozenModelImpl stores them).
[[nodiscard]] inline Status CheckQueryShape(const CategoricalDataset& queries,
                                            uint32_t primary,
                                            uint32_t /*secondary*/) {
  if (queries.num_attributes() != primary) {
    return Status::InvalidArgument(
        "query dataset has " + std::to_string(queries.num_attributes()) +
        " attributes; the fitted model expects " + std::to_string(primary));
  }
  return Status::OK();
}

[[nodiscard]] inline Status CheckQueryShape(const NumericDataset& queries,
                                            uint32_t primary,
                                            uint32_t /*secondary*/) {
  if (queries.dimensions() != primary) {
    return Status::InvalidArgument(
        "query dataset has " + std::to_string(queries.dimensions()) +
        " dimensions; the fitted model expects " + std::to_string(primary));
  }
  return Status::OK();
}

[[nodiscard]] inline Status CheckQueryShape(const MixedDataset& queries,
                                            uint32_t primary,
                                            uint32_t secondary) {
  if (queries.num_categorical() != primary ||
      queries.num_numeric() != secondary) {
    return Status::InvalidArgument(
        "query dataset has " + std::to_string(queries.num_categorical()) +
        " categorical + " + std::to_string(queries.num_numeric()) +
        " numeric attributes; the fitted model expects " +
        std::to_string(primary) + " + " + std::to_string(secondary));
  }
  return Status::OK();
}

/// The fitted model for one (Traits, Family) pair; see the file comment.
template <typename Traits, typename Family = NoFamily>
class FrozenModelImpl final : public FrozenModel {
 public:
  static constexpr bool kRouted = !std::is_same_v<Family, NoFamily>;

  /// Takes ownership of the model's state. `index` may be null only when
  /// `Family` is NoFamily; `family` must be engaged iff routed.
  /// `shape_primary`/`shape_secondary` are the modality's shape
  /// (attributes / dimensions / categorical+numeric).
  FrozenModelImpl(typename Traits::Options options,
                  typename Traits::Centroids model,
                  std::optional<Family> family,
                  std::unique_ptr<const BandedIndex> index,
                  std::vector<uint32_t> fit_assignment, uint32_t shape_primary,
                  uint32_t shape_secondary)
      : options_(std::move(options)),
        model_(std::move(model)),
        family_(std::move(family)),
        index_(std::move(index)),
        fit_assignment_(std::move(fit_assignment)),
        shape_primary_(shape_primary),
        shape_secondary_(shape_secondary) {
    // A model outlives the Fit call whose hooks these were; routing must
    // never call back into them.
    options_.progress = nullptr;
    options_.cancel = nullptr;
    if (index_ != nullptr && RoutesOverClusterLists(*index_)) {
      index_->CompactClustersExact(fit_assignment_, options_.num_clusters,
                                   &cluster_lists_);
    }
    memory_bytes_ = (index_ != nullptr ? index_->MemoryUsageBytes() : 0) +
                    fit_assignment_.size() * sizeof(uint32_t) +
                    (cluster_lists_.empty()
                         ? 0
                         : cluster_lists_.MemoryUsageBytes());
  }

  std::unique_ptr<RouteScratch> MakeScratch() const override {
    auto holder = std::make_unique<ScratchHolder>();
    holder->scratch = NewRoutedScratch();
    return holder;
  }

  /// A RouteRange scratch sized for this model.
  RoutedScratch NewRoutedScratch() const {
    return MakeRoutedScratch(
        options_.num_clusters,
        index_ != nullptr ? index_->signature_width() : 0);
  }

  [[nodiscard]] Status RouteInto(const typename Traits::Dataset& queries,
                   RouteScratch& scratch,
                   std::span<uint32_t> out) const override {
    LSHC_RETURN_NOT_OK(CheckShape(queries));
    if (out.size() != queries.num_items()) {
      return Status::InvalidArgument(
          "output span holds " + std::to_string(out.size()) +
          " slots for " + std::to_string(queries.num_items()) + " queries");
    }
    auto* holder = dynamic_cast<ScratchHolder*>(&scratch);
    if (holder == nullptr) {
      return Status::InvalidArgument(
          "scratch was not created by FrozenModel::MakeScratch");
    }
    RoutedScratch& s = holder->scratch;
    if constexpr (kRouted) {
      // Re-fit the scratch to this model; every branch is a no-op once
      // the scratch is warm, preserving the zero-allocation hot path.
      // Stale stamp contents from a previous model are harmless: the
      // stamps are epoch-compared, and the epoch wrap clears them.
      if (s.dedup.cluster_stamp.size() < options_.num_clusters) {
        s.dedup = MakeClusterDedupScratch(options_.num_clusters);
      }
      if (s.signature.size() != index_->signature_width()) {
        s.signature.resize(index_->signature_width());
      }
    }
    RouteRange(queries, 0, queries.num_items(), s, out);
    return Status::OK();
  }

  /// Routes queries [begin, end) into out[begin, end): per item, sign the
  /// query with the family's hashers and hand it to the shared routing
  /// kernel (serving/routing.h) — or, for an exhaustive model, take the
  /// exhaustive argmin. `scratch` must be sized for this model
  /// (NewRoutedScratch). Pure per
  /// item, so any decomposition of the item range gives the same answers;
  /// RouteInto and Clusterer::PredictRouted both route through here.
  void RouteRange(const typename Traits::Dataset& queries, uint32_t begin,
                  uint32_t end, RoutedScratch& scratch,
                  std::span<uint32_t> out) const {
    if constexpr (!kRouted) {
      for (uint32_t item = begin; item < end; ++item) {
        out[item] = BestClusterExhaustive<Traits>(
            queries, model_, options_, item, /*seed_cluster=*/0,
            scratch.distances);
      }
    } else {
      const RoutedStateView view{index_.get(), fit_assignment_,
                                 cluster_lists()};
      for (uint32_t item = begin; item < end; ++item) {
        SignQuery(queries, item, scratch);
        out[item] = RouteSignedQuery<Traits>(queries, model_, options_, view,
                                             item, scratch);
      }
    }
  }

  /// kInvalidArgument unless `queries` has this model's shape.
  [[nodiscard]] Status CheckShape(
      const typename Traits::Dataset& queries) const {
    return CheckQueryShape(queries, shape_primary_, shape_secondary_);
  }

  uint32_t num_clusters() const override { return options_.num_clusters; }
  bool has_index() const override { return index_ != nullptr; }
  uint64_t memory_bytes() const override { return memory_bytes_; }
  uint64_t cluster_list_entries() const override {
    return cluster_lists_.num_entries();
  }

  // Read-only views of the model's members, for the Clusterer (Predict,
  // index()) and the model-file encoder (persist/model_io.cpp), which
  // dynamic_cast a FrozenModel down to the concrete instantiation.
  const typename Traits::Options& options() const { return options_; }
  const typename Traits::Centroids& centroids() const { return model_; }
  const std::optional<Family>& family() const { return family_; }
  const BandedIndex* index() const { return index_.get(); }
  std::span<const uint32_t> fit_assignment() const { return fit_assignment_; }
  /// The buckets' cluster lists routed queries walk; null when the model
  /// walks bucket items instead.
  const BucketClusterTable* cluster_lists() const {
    return cluster_lists_.empty() ? nullptr : &cluster_lists_;
  }
  uint32_t shape_primary() const { return shape_primary_; }
  uint32_t shape_secondary() const { return shape_secondary_; }

  /// Signs query `item` into s.signature with the family's hashers (the
  /// first step of RouteRange; a no-op for an exhaustive model).
  void SignQuery(const typename Traits::Dataset& queries, uint32_t item,
                 RoutedScratch& s) const {
    if constexpr (kRouted) {
      if constexpr (std::is_same_v<typename Traits::Dataset,
                                   CategoricalDataset>) {
        queries.PresentTokens(item, &s.tokens);
        family_->ComputeQuerySignature(s.tokens, s.signature.data());
      } else if constexpr (std::is_same_v<typename Traits::Dataset,
                                          NumericDataset>) {
        family_->ComputeQuerySignature(queries.Row(item), s.signature.data());
      } else {
        queries.categorical().PresentTokens(item, &s.tokens);
        family_->ComputeQuerySignature(s.tokens, queries.numeric().Row(item),
                                       &s.centered, s.signature.data());
      }
    }
  }

 private:
  typename Traits::Options options_;
  typename Traits::Centroids model_;
  std::optional<Family> family_;
  std::unique_ptr<const BandedIndex> index_;
  std::vector<uint32_t> fit_assignment_;
  BucketClusterTable cluster_lists_;  // empty unless RoutesOverClusterLists
  uint32_t shape_primary_ = 0;
  uint32_t shape_secondary_ = 0;
  uint64_t memory_bytes_ = 0;
};

}  // namespace lshclust::serving::internal
