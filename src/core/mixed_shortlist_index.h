#pragma once

/// \file mixed_shortlist_index.h
/// \brief The concatenated MinHash + SimHash signature family for mixed
/// categorical + numeric items — one LSH family per modality, one banding
/// index. Plugged into the generic ShortlistProvider
/// (core/shortlist_provider.h); `MixedShortlistProvider` below is the
/// resulting provider type, the one LSH-K-Prototypes runs on.
///
/// The categorical half of an item is MinHashed (Jaccard over present
/// tokens, as in MH-K-Modes); the numeric half is SimHashed (angular
/// similarity). The two signatures are concatenated and indexed by one
/// BandedIndex with a heterogeneous band layout — the categorical bands
/// first, then the numeric bands. Banding semantics make this exactly the
/// union of the per-modality candidate sets: an item similar to a cluster
/// in *either* modality reaches the exact mixed distance computation,
/// which then weighs the modalities by gamma.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/shortlist_provider.h"
#include "data/mixed_dataset.h"
#include "hashing/minhash.h"
#include "hashing/simhash.h"
#include "lsh/banded_index.h"
#include "util/result.h"

namespace lshclust {

/// \brief Index configuration of the mixed family.
struct MixedIndexOptions {
  /// Banding over the MinHash signature of the categorical tokens.
  BandingParams categorical_banding = {20, 5};
  /// Banding over the SimHash bits of the numeric vector. SimHash bits
  /// are weak (collision probability 0.5 for orthogonal vectors), so
  /// numeric bands need far more rows than MinHash bands: 16 bits per
  /// band keeps merely-angularly-close clusters out of the shortlist
  /// while near-identical vectors still collide with high probability.
  BandingParams numeric_banding = {10, 16};
  /// Hash family seed.
  uint64_t seed = 99;
};

/// \brief Concatenated MinHash + SimHash signature family over mixed
/// items.
class MixedShortlistFamily {
 public:
  using Dataset = MixedDataset;
  using Options = MixedIndexOptions;

  /// Validates the index configuration as a returned Status — the front
  /// door and the legacy entry points check this before constructing the
  /// family; the constructor keeps a debug backstop.
  [[nodiscard]] static Status ValidateOptions(const Options& options) {
    LSHC_RETURN_NOT_OK(ValidateBanding(options.categorical_banding,
                                       "mixed categorical banding"));
    return ValidateBanding(options.numeric_banding, "mixed numeric banding");
  }

  explicit MixedShortlistFamily(const Options& options) : options_(options) {
    LSHC_DCHECK(ValidateOptions(options).ok())
        << "invalid mixed index options; call ValidateOptions first";
  }

  /// Move-only: a fitted model takes the family over from the provider
  /// that prepared it (ShortlistProvider::Release), never a copy.
  MixedShortlistFamily(MixedShortlistFamily&&) noexcept = default;
  MixedShortlistFamily& operator=(MixedShortlistFamily&&) noexcept = default;

  /// One concatenated signature per item: the MinHash components over the
  /// present categorical tokens, then the SimHash bits of the
  /// *mean-centered* numeric vector. SimHash discriminates by angle from
  /// the origin; centering spreads clusters across directions so
  /// nearby-but-distinct clusters stop sharing sign patterns. Distances
  /// are computed on the raw data — centering only affects candidate
  /// generation. The hashers and the centering mean are retained so
  /// external items can later be signed into the same bucket space
  /// (ComputeQuerySignature). When `cancel` is non-null it is polled at
  /// batch boundaries of both passes (thread-safe hook required); a true
  /// answer aborts with StatusCode::kCancelled.
  [[nodiscard]] Status ComputeSignatures(const Dataset& dataset,
                           std::vector<uint64_t>* signatures,
                           ThreadPool* pool = nullptr,
                           const std::function<bool()>* cancel = nullptr) {
    const uint32_t n = dataset.num_items();
    const uint32_t categorical_width =
        options_.categorical_banding.num_hashes();
    const uint32_t numeric_width = options_.numeric_banding.num_hashes();
    const uint32_t width = categorical_width + numeric_width;
    signatures->resize(static_cast<size_t>(n) * width);
    const uint32_t workers = pool == nullptr ? 1 : pool->num_threads();
    std::atomic<bool> cancelled{false};
    const auto poll_cancel = [&] {
      if (cancel == nullptr) return false;
      if (cancelled.load(std::memory_order_relaxed)) return true;
      if ((*cancel)()) {
        cancelled.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    const auto run_batched = [&](const auto& sign_range) {
      if (pool == nullptr) {
        for (uint32_t begin = 0; begin < n; begin += kSignatureChunkSize) {
          sign_range(begin, std::min(n, begin + kSignatureChunkSize), 0u);
          if (cancelled.load(std::memory_order_relaxed)) break;
        }
      } else {
        pool->ParallelFor(0, n, kSignatureChunkSize, sign_range);
      }
    };

    // Both halves are pure per item once their hashers exist (the mean is
    // fixed before the numeric pass), so the chunked parallel passes are
    // bit-identical to the sequential loops.

    // Categorical part: MinHash over present tokens.
    {
      categorical_hasher_ =
          std::make_unique<MinHasher>(categorical_width, options_.seed);
      std::vector<std::vector<uint32_t>> worker_tokens(workers);
      run_batched([&](uint32_t begin, uint32_t end, uint32_t worker) {
        if (poll_cancel()) return;
        std::vector<uint32_t>& tokens = worker_tokens[worker];
        for (uint32_t item = begin; item < end; ++item) {
          dataset.categorical().PresentTokens(item, &tokens);
          categorical_hasher_->ComputeSignature(
              tokens,
              signatures->data() + static_cast<size_t>(item) * width);
        }
      });
    }

    // Numeric part: SimHash bits over centered vectors. The mean stays a
    // single sequential scan: it is cheap, and its floating-point
    // summation order is part of the signatures.
    if (!cancelled.load(std::memory_order_relaxed)) {
      const uint32_t d = dataset.num_numeric();
      mean_.assign(d, 0.0);
      for (uint32_t item = 0; item < n; ++item) {
        const auto row = dataset.numeric().Row(item);
        for (uint32_t j = 0; j < d; ++j) mean_[j] += row[j];
      }
      for (auto& coordinate : mean_) coordinate /= n;

      numeric_hasher_ = std::make_unique<SimHasher>(
          numeric_width, d, options_.seed ^ 0x51A5ULL);
      std::vector<std::vector<double>> worker_centered(
          workers, std::vector<double>(d));
      run_batched([&](uint32_t begin, uint32_t end, uint32_t worker) {
        if (poll_cancel()) return;
        std::vector<double>& centered = worker_centered[worker];
        for (uint32_t item = begin; item < end; ++item) {
          const auto row = dataset.numeric().Row(item);
          for (uint32_t j = 0; j < d; ++j) centered[j] = row[j] - mean_[j];
          numeric_hasher_->ComputeSignature(
              centered, signatures->data() +
                            static_cast<size_t>(item) * width +
                            categorical_width);
        }
      });
    }
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled(
          "signature computation stopped by the cancellation hook at a "
          "batch boundary");
    }
    return Status::OK();
  }

  /// Signature of an external mixed item: MinHash over its present
  /// categorical tokens (codes in the fitted dataset's code space)
  /// followed by the SimHash bits of its numeric vector centered on the
  /// *fitted* dataset's mean — the exact signing rule of
  /// ComputeSignatures, so an external duplicate of a fitted item lands
  /// in the same buckets. `centered_scratch` is caller-owned so repeated
  /// queries (the routed-predict hot path) never allocate. Requires a
  /// completed ComputeSignatures (the hashers and the mean live there).
  void ComputeQuerySignature(std::span<const uint32_t> tokens,
                             std::span<const double> numeric,
                             std::vector<double>* centered_scratch,
                             uint64_t* out) const {
    LSHC_CHECK(categorical_hasher_ != nullptr && numeric_hasher_ != nullptr)
        << "ComputeSignatures must run first";
    categorical_hasher_->ComputeSignature(tokens, out);
    const uint32_t d = static_cast<uint32_t>(mean_.size());
    centered_scratch->resize(d);
    for (uint32_t j = 0; j < d; ++j) {
      (*centered_scratch)[j] = numeric[j] - mean_[j];
    }
    numeric_hasher_->ComputeSignature(
        *centered_scratch, out + options_.categorical_banding.num_hashes());
  }

  /// The fitted centering mean (empty before the first signing pass).
  const std::vector<double>& mean() const { return mean_; }

  /// Rebuilds both hashers from (options, seed) and restores the
  /// data-dependent centering mean without a signing pass — the
  /// persistence warm-start seam. The hashers are pure functions of their
  /// seeds, and `mean` carries the one data-dependent input, so the
  /// restored family signs queries bit-identically to the saved fit.
  /// `mean.size()` fixes the numeric dimensionality.
  void RestoreHashers(std::vector<double> mean) {
    categorical_hasher_ = std::make_unique<MinHasher>(
        options_.categorical_banding.num_hashes(), options_.seed);
    numeric_hasher_ = std::make_unique<SimHasher>(
        options_.numeric_banding.num_hashes(),
        static_cast<uint32_t>(mean.size()), options_.seed ^ 0x51A5ULL);
    mean_ = std::move(mean);
  }

  /// Heterogeneous layout: the categorical bands, then the numeric bands.
  std::vector<uint32_t> BandLayout() const {
    std::vector<uint32_t> layout;
    layout.reserve(options_.categorical_banding.bands +
                   options_.numeric_banding.bands);
    layout.insert(layout.end(), options_.categorical_banding.bands,
                  options_.categorical_banding.rows);
    layout.insert(layout.end(), options_.numeric_banding.bands,
                  options_.numeric_banding.rows);
    return layout;
  }

  uint32_t signature_width() const {
    return options_.categorical_banding.num_hashes() +
           options_.numeric_banding.num_hashes();
  }
  bool keep_signatures() const { return false; }

  /// Approximate footprint of the retained hashers + centering mean.
  uint64_t MemoryUsageBytes() const {
    uint64_t bytes = mean_.size() * sizeof(double);
    if (categorical_hasher_ != nullptr) {
      bytes += static_cast<uint64_t>(
                   options_.categorical_banding.num_hashes()) *
               sizeof(uint64_t);
    }
    if (numeric_hasher_ != nullptr) {
      bytes += static_cast<uint64_t>(numeric_hasher_->num_hashes()) *
               numeric_hasher_->dimensions() * sizeof(double);
    }
    return bytes;
  }

  const Options& options() const { return options_; }

 private:
  Options options_;
  // Retained by ComputeSignatures so external queries sign identically
  // (ComputeQuerySignature); null / empty before the first signing pass.
  std::unique_ptr<MinHasher> categorical_hasher_;
  std::unique_ptr<SimHasher> numeric_hasher_;
  std::vector<double> mean_;
};

/// \brief Dual-modality engine provider for RunKPrototypesEngine.
using MixedShortlistProvider = ShortlistProvider<MixedShortlistFamily>;

}  // namespace lshclust
