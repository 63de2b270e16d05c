#pragma once

/// \file frozen_model_impl.h
/// \brief Internal: the templated FrozenModel implementation.
///
/// `FrozenModelImpl<Traits, Family>` owns deep copies of everything a
/// routed query touches — engine options (progress/cancel hooks cleared,
/// a snapshot must not call back into the fit's lifetime), the
/// centroid/mode table, the signing family (its hashers cloned seeds and
/// all), the banded index's CSR arrays and the fit-time assignment.
/// `Family = internal::NoFamily` is the exhaustive specialization: no
/// index, Route degenerates to the exhaustive argmin (exactly Predict).
///
/// This header is internal plumbing for api/clusterer.cpp — applications
/// program against serving/frozen_model.h and never name these types.

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

/// Family tag for exhaustive snapshots (no index, no signing).
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

[[nodiscard]] inline Status CheckQueryShape(const CategoricalDataset& queries,
                              uint32_t primary, uint32_t /*secondary*/) {
  if (queries.num_attributes() != primary) {
    return Status::InvalidArgument(
        "query dataset has " + std::to_string(queries.num_attributes()) +
        " attributes but the snapshot was taken from a model over " +
        std::to_string(primary));
  }
  return Status::OK();
}

[[nodiscard]] inline Status CheckQueryShape(const NumericDataset& queries, uint32_t primary,
                              uint32_t /*secondary*/) {
  if (queries.dimensions() != primary) {
    return Status::InvalidArgument(
        "query dataset has " + std::to_string(queries.dimensions()) +
        " dimensions but the snapshot was taken from a model over " +
        std::to_string(primary));
  }
  return Status::OK();
}

[[nodiscard]] inline Status CheckQueryShape(const MixedDataset& queries, uint32_t primary,
                              uint32_t secondary) {
  if (queries.num_categorical() != primary ||
      queries.num_numeric() != secondary) {
    return Status::InvalidArgument(
        "query dataset has " + std::to_string(queries.num_categorical()) +
        " categorical + " + std::to_string(queries.num_numeric()) +
        " numeric attributes but the snapshot was taken from a model over " +
        std::to_string(primary) + " + " + std::to_string(secondary));
  }
  return Status::OK();
}

/// Deep-copied snapshot for one (Traits, Family) pair; see file comment.
template <typename Traits, typename Family = NoFamily>
class FrozenModelImpl final : public FrozenModel {
 public:
  static constexpr bool kRouted = !std::is_same_v<Family, NoFamily>;

  /// Takes ownership of already-copied state. `index` may be null only
  /// when `Family` is NoFamily; `family` must be engaged iff routed.
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
    // A snapshot outlives the Fit call whose hooks these were; routing
    // must never call back into them.
    options_.progress = nullptr;
    options_.cancel = nullptr;
    memory_bytes_ = (index_ != nullptr ? index_->MemoryUsageBytes() : 0) +
                    fit_assignment_.size() * sizeof(uint32_t);
  }

  std::unique_ptr<RouteScratch> MakeScratch() const override {
    auto holder = std::make_unique<ScratchHolder>();
    holder->scratch = MakeRoutedScratch(
        options_.num_clusters,
        index_ != nullptr ? index_->signature_width() : 0);
    return holder;
  }

  [[nodiscard]] Status RouteInto(const typename Traits::Dataset& queries,
                   RouteScratch& scratch,
                   std::span<uint32_t> out) const override {
    LSHC_RETURN_NOT_OK(
        CheckQueryShape(queries, shape_primary_, shape_secondary_));
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
    const uint32_t n = queries.num_items();
    const uint32_t k = options_.num_clusters;
    if constexpr (!kRouted) {
      for (uint32_t item = 0; item < n; ++item) {
        out[item] = BestClusterExhaustive<Traits, /*EarlyExit=*/true>(
            queries, model_, options_, item, /*seed_cluster=*/0, k);
      }
      return Status::OK();
    } else {
      // Re-fit the scratch to this model; every branch is a no-op once
      // the scratch is warm, preserving the zero-allocation hot path.
      // Stale stamp contents from a previous model are harmless: the
      // stamps are epoch-compared, and the epoch wrap clears them.
      if (s.dedup.cluster_stamp.size() < k) {
        s.dedup = MakeClusterDedupScratch(k);
      }
      if (s.signature.size() != index_->signature_width()) {
        s.signature.resize(index_->signature_width());
      }
      const RoutedStateView view{index_.get(), fit_assignment_};
      for (uint32_t item = 0; item < n; ++item) {
        SignQuery(queries, item, s);
        out[item] =
            RouteSignedQuery<Traits>(queries, model_, options_, view, item, s);
      }
      return Status::OK();
    }
  }

  uint32_t num_clusters() const override { return options_.num_clusters; }
  bool has_index() const override { return index_ != nullptr; }
  uint64_t memory_bytes() const override { return memory_bytes_; }

  // Read-only views of the frozen members, for the model-file encoder
  // (persist/model_io.cpp), which dynamic_casts a FrozenModel down to the
  // concrete instantiation and dumps exactly what the snapshot holds.
  const typename Traits::Options& options() const { return options_; }
  const typename Traits::Centroids& centroids() const { return model_; }
  const std::optional<Family>& family() const { return family_; }
  const BandedIndex* index() const { return index_.get(); }
  std::span<const uint32_t> fit_assignment() const { return fit_assignment_; }
  uint32_t shape_primary() const { return shape_primary_; }
  uint32_t shape_secondary() const { return shape_secondary_; }

 private:
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

  typename Traits::Options options_;
  typename Traits::Centroids model_;
  std::optional<Family> family_;
  std::unique_ptr<const BandedIndex> index_;
  std::vector<uint32_t> fit_assignment_;
  uint32_t shape_primary_ = 0;
  uint32_t shape_secondary_ = 0;
  uint64_t memory_bytes_ = 0;
};

}  // namespace lshclust::serving::internal
