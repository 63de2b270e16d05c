#pragma once

/// \file cluster_shortlist_index.h
/// \brief The MinHash signature family that turns "all k clusters" into a
/// per-item shortlist of candidate clusters (Algorithm 2): presence
/// filtered tokens (Alg. 2 lines 1-5) -> MinHash signature -> banding
/// index. Plugged into the generic ShortlistProvider
/// (core/shortlist_provider.h); `ClusterShortlistProvider` below is the
/// resulting provider type, the one MH-K-Modes runs on.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/shortlist_provider.h"
#include "data/categorical_dataset.h"
#include "hashing/minhash.h"
#include "hashing/one_permutation_minhash.h"
#include "lsh/banded_index.h"
#include "lsh/probability.h"
#include "util/result.h"

namespace lshclust {

/// \brief Which signature generator backs the index.
enum class SignatureAlgorithm {
  /// Algorithm 1 of the paper: n independent(ish) hash functions.
  kClassicMinHash,
  /// One-permutation MinHash with densification: O(|S| + n) per item.
  kOnePermutation,
};

/// \brief Options for the shortlist index.
struct ShortlistIndexOptions {
  /// Banding shape (b bands of r rows; the paper's "20b 5r" notation).
  BandingParams banding;
  /// Signature generator.
  SignatureAlgorithm algorithm = SignatureAlgorithm::kClassicMinHash;
  /// Hash-derivation mode for kClassicMinHash.
  MinHashMode minhash_mode = MinHashMode::kDoubleHashing;
  /// Seed of the hash family.
  uint64_t seed = 99;
  /// Keep per-item signatures after the index is built (needed only for
  /// querying items outside the indexed dataset).
  bool keep_signatures = false;
};

/// \brief MinHash/Jaccard signature family over categorical token sets
/// (the paper's family).
class MinHashShortlistFamily {
 public:
  using Dataset = CategoricalDataset;
  using Options = ShortlistIndexOptions;

  /// Validates the index configuration as a returned Status — the front
  /// door and the legacy entry points check this before constructing the
  /// family; the constructor keeps a debug backstop.
  [[nodiscard]] static Status ValidateOptions(const Options& options);

  explicit MinHashShortlistFamily(const Options& options);

  /// Deep copy: clones the live hasher (seeds included) so the copy signs
  /// queries bit-identically and independently of the source's lifetime —
  /// this is what StreamingSession snapshots rely on.
  MinHashShortlistFamily(const MinHashShortlistFamily& other);
  MinHashShortlistFamily& operator=(const MinHashShortlistFamily& other);
  MinHashShortlistFamily(MinHashShortlistFamily&&) noexcept = default;
  MinHashShortlistFamily& operator=(MinHashShortlistFamily&&) noexcept =
      default;

  /// One MinHash signature per item over its *present* tokens (the
  /// presence filtering of Alg. 2 lines 2-4). Chunked across `pool` when
  /// given (per-worker token scratch); bit-identical to the sequential
  /// pass. When `cancel` is non-null it is polled at batch boundaries
  /// (kSignatureChunkSize items; thread-safe hook required) and a true
  /// answer aborts with StatusCode::kCancelled.
  [[nodiscard]] Status ComputeSignatures(const Dataset& dataset,
                           SignatureMatrix* signatures,
                           ThreadPool* pool = nullptr,
                           const std::function<bool()>* cancel =
                               nullptr) const;

  /// Uniform layout: banding.bands bands of banding.rows rows.
  std::vector<uint32_t> BandLayout() const {
    return std::vector<uint32_t>(options_.banding.bands,
                                 options_.banding.rows);
  }

  uint32_t signature_width() const { return options_.banding.num_hashes(); }
  bool keep_signatures() const { return options_.keep_signatures; }

  /// Signature of an external token set (tokens in the dataset's code
  /// space) — enables GetCandidatesForQuery on the provider and routed
  /// queries on a fitted model.
  void ComputeQuerySignature(std::span<const uint32_t> tokens,
                             uint64_t* out) const;

  /// Approximate hasher footprint.
  uint64_t MemoryUsageBytes() const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::unique_ptr<MinHasher> minhasher_;
  std::unique_ptr<OnePermutationMinHasher> oph_;
};

/// \brief Engine provider producing MinHash cluster shortlists — the
/// provider of MH-K-Modes (Algorithm 2).
using ClusterShortlistProvider = ShortlistProvider<MinHashShortlistFamily>;

}  // namespace lshclust
