#pragma once

/// \file simhash_shortlist_index.h
/// \brief The SimHash signature family that applies the paper's framework
/// to numeric data (its §VI future work): sign-random-projection
/// signatures, banded into buckets, queried as cluster shortlists.
/// Plugged into the generic ShortlistProvider
/// (core/shortlist_provider.h); `SimHashShortlistProvider` below is the
/// resulting provider type, the one LSH-K-Means runs on.
///
/// Collision probability per bit is 1 - theta/pi, so the banding S-curve
/// selects by angular similarity instead of Jaccard.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/shortlist_provider.h"
#include "data/categorical_dataset.h"
#include "hashing/simhash.h"
#include "lsh/banded_index.h"
#include "lsh/probability.h"
#include "util/result.h"

namespace lshclust {

/// \brief Index configuration of the SimHash family.
struct SimHashIndexOptions {
  /// Banding shape over SimHash bits.
  BandingParams banding = {16, 4};
  /// Hyperplane seed.
  uint64_t seed = 99;
};

/// \brief SimHash/angular signature family over numeric vectors.
class SimHashShortlistFamily {
 public:
  using Dataset = NumericDataset;
  using Options = SimHashIndexOptions;

  /// Validates the index configuration as a returned Status — the front
  /// door and the legacy entry points check this before constructing the
  /// family; the constructor keeps a debug backstop.
  [[nodiscard]] static Status ValidateOptions(const Options& options) {
    return ValidateBanding(options.banding, "SimHash banding");
  }

  explicit SimHashShortlistFamily(const Options& options)
      : options_(options) {
    LSHC_DCHECK(ValidateOptions(options).ok())
        << "invalid SimHash index options; call ValidateOptions first";
  }

  /// Move-only: a fitted model takes the family over from the provider
  /// that prepared it (ShortlistProvider::Release), never a copy.
  SimHashShortlistFamily(SimHashShortlistFamily&&) noexcept = default;
  SimHashShortlistFamily& operator=(SimHashShortlistFamily&&) noexcept =
      default;

  /// One SimHash bit vector per item. The hasher is created here because
  /// its hyperplanes need the dataset dimensionality. Chunked across
  /// `pool` when given; projections are pure per item, so the parallel
  /// pass is bit-identical to the sequential one. When `cancel` is
  /// non-null it is polled at batch boundaries (thread-safe hook
  /// required); a true answer aborts with StatusCode::kCancelled.
  [[nodiscard]] Status ComputeSignatures(const Dataset& dataset,
                           std::vector<uint64_t>* signatures,
                           ThreadPool* pool = nullptr,
                           const std::function<bool()>* cancel = nullptr) {
    const uint32_t n = dataset.num_items();
    const uint32_t width = options_.banding.num_hashes();
    hasher_ = std::make_unique<SimHasher>(width, dataset.dimensions(),
                                          options_.seed);
    signatures->resize(static_cast<size_t>(n) * width);
    std::atomic<bool> cancelled{false};
    const auto sign_range = [&](uint32_t begin, uint32_t end, uint32_t) {
      if (cancel != nullptr) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        if ((*cancel)()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
      }
      for (uint32_t item = begin; item < end; ++item) {
        hasher_->ComputeSignature(dataset.Row(item),
                                  signatures->data() +
                                      static_cast<size_t>(item) * width);
      }
    };
    if (pool == nullptr) {
      for (uint32_t begin = 0; begin < n; begin += kSignatureChunkSize) {
        sign_range(begin, std::min(n, begin + kSignatureChunkSize), 0);
        if (cancelled.load(std::memory_order_relaxed)) break;
      }
    } else {
      pool->ParallelFor(0, n, kSignatureChunkSize, sign_range);
    }
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled(
          "signature computation stopped by the cancellation hook at a "
          "batch boundary");
    }
    return Status::OK();
  }

  /// Uniform layout: banding.bands bands of banding.rows rows.
  std::vector<uint32_t> BandLayout() const {
    return std::vector<uint32_t>(options_.banding.bands,
                                 options_.banding.rows);
  }

  uint32_t signature_width() const { return options_.banding.num_hashes(); }
  bool keep_signatures() const { return false; }

  /// Signature of an external vector (length = dataset dimensionality).
  void ComputeQuerySignature(std::span<const double> vec,
                             uint64_t* out) const {
    LSHC_CHECK(hasher_ != nullptr) << "ComputeSignatures must run first";
    hasher_->ComputeSignature(vec, out);
  }

  /// Rebuilds the fitted hasher for a known dataset dimensionality without
  /// a signing pass — the persistence warm-start seam. The hyperplanes are
  /// a pure function of (width, dimensions, seed), so the rebuilt hasher
  /// signs queries bit-identically to the one the saved fit used.
  void RestoreHasher(uint32_t dimensions) {
    hasher_ = std::make_unique<SimHasher>(options_.banding.num_hashes(),
                                          dimensions, options_.seed);
  }

  /// Dimensionality the fitted hasher projects from; 0 before signing.
  uint32_t fitted_dimensions() const {
    return hasher_ == nullptr ? 0 : hasher_->dimensions();
  }

  uint64_t MemoryUsageBytes() const {
    return hasher_ == nullptr
               ? 0
               : static_cast<uint64_t>(hasher_->num_hashes()) *
                     hasher_->dimensions() * sizeof(double);
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::unique_ptr<SimHasher> hasher_;
};

/// \brief Engine provider producing SimHash cluster shortlists for numeric
/// items (the numeric twin of ClusterShortlistProvider).
using SimHashShortlistProvider = ShortlistProvider<SimHashShortlistFamily>;

}  // namespace lshclust
