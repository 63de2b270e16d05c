#pragma once

/// \file shortlist_provider.h
/// \brief The generic LSH cluster-shortlist provider — the heart of the
/// paper (Algorithm 2), templated on the hash family.
///
/// All three LSH accelerations (MH-K-Modes, LSH-K-Means,
/// LSH-K-Prototypes) are this one class instantiated with a different
/// signature family:
///
///  * MinHashShortlistFamily (core/cluster_shortlist_index.h) — Jaccard
///    over present tokens, categorical data.
///  * SimHashShortlistFamily (core/simhash_shortlist_index.h) — angular
///    similarity, numeric data.
///  * MixedShortlistFamily (core/mixed_shortlist_index.h) — concatenated
///    MinHash + SimHash signatures over a heterogeneous band layout,
///    mixed data.
///
/// Lifecycle, following §III-B exactly:
///  1. After the initial assignment, one pass over the dataset computes a
///     signature per item (family-specific) and builds the banding index.
///     Items never change, so this happens once.
///  2. During refinement, an item's query walks its own buckets (it was
///     inserted, so the buckets are known — no re-hashing) and collects
///     the clusters of the co-bucketed items, read through the
///     `assignment` span the caller passes; the deduplicated cluster list,
///     the item's current cluster first, is the shortlist. Where buckets
///     are few and wide (BandedIndex::ClusterMasksFit), BeginPass fills
///     one ⌈k/64⌉-word cluster bitmask per bucket under the pass's
///     assignment snapshot, and the optional mask hook CandidateMask
///     answers for exactly that span with the OR of the item's bucket
///     masks: the shortlist as a set, with no order. GetCandidates always
///     takes the item walk: for every item when the buckets are sparse,
///     and for the rare masked item whose scan the engine cannot settle
///     from the set alone.
///  3. "Updating the index after a move" is writing assignment[item] — an
///     assignment array is the cluster reference store, which is why
///     updates are "a fast operation ... merely update the item's cluster
///     that is stored via a reference or pointer" (§III-B). Note the
///     unified engine passes a snapshot of the assignment taken at the
///     start of each refinement pass (moves become visible to queries at
///     the *next* pass, not mid-pass) — that is what makes its
///     batch-parallel assignment deterministic for every thread count;
///     see clustering/engine.h.
///
/// The item always shares its buckets with itself, so the shortlist always
/// contains its current cluster and is never empty.
///
/// The class meets the engine's one provider contract (see
/// clustering/engine.h): `kExhaustive = false`, `MakeScratch() const`,
/// `Prepare(dataset, pool, cancel)` and a const
/// `GetCandidates(item, assignment, scratch, out)`, plus the optional pass
/// hook `BeginPass(reference, pool)` / `EndPass()` and the optional mask
/// hook `CandidateMask(item, assignment, mask)`. Queries take an
/// explicit Scratch, so the engine runs them from many worker threads at
/// once (one scratch per worker).
///
/// The family concept:
/// \code
///   struct SomeFamily {
///     using Dataset = ...;                       // what gets indexed
///     using Options = ...;                       // index configuration
///     explicit SomeFamily(const Options&);
///     // Row-major n x signature_width() matrix of signature components.
///     // Signing is pure per item, so families fan the loop out across
///     // `pool` when one is given (nullptr = sequential) — results are
///     // bit-identical either way. `cancel` (may be null) is polled at
///     // batch boundaries; a true answer returns kCancelled (Prepare
///     // forwards the engine's cooperative-cancel hook).
///     Status ComputeSignatures(const Dataset&, SignatureMatrix*,
///                              ThreadPool* pool,
///                              const std::function<bool()>* cancel);
///     // Rows per band, concatenated over the signature.
///     std::vector<uint32_t> BandLayout() const;
///     uint32_t signature_width() const;
///     bool keep_signatures() const;              // retain the matrix?
///     uint64_t MemoryUsageBytes() const;         // hasher footprint
///   };
/// \endcode
/// Families may additionally expose ComputeQuerySignature(query, out) for
/// external (non-indexed) queries; see GetCandidatesForQuery.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lsh/banded_index.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/large_block_allocator.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace lshclust {

/// Items per ParallelFor unit of a parallel signing pass. Fixed (never
/// derived from the thread count) so the decomposition is identical for
/// every pool size; smaller than the engine's assignment chunk because a
/// signature costs far more than a distance.
inline constexpr uint32_t kSignatureChunkSize = 256;

/// Row-major n x width signature matrix of a signing pass: a Fit's
/// largest transient (n x width x 8 B, 40 MB at 50,000 items x 100
/// hashes). A matrix of 1 MB or more gets its own mapping, so where it
/// lands never depends on what the heap held before (see
/// util/large_block_allocator.h).
using SignatureMatrix = std::vector<uint64_t, LargeBlockAllocator<uint64_t>>;

/// \brief Per-caller query state for epoch-stamped cluster deduplication:
/// no per-query allocation, O(1) reset. Shared by every shortlist-style
/// provider (LSH families here, canopies in core/canopy_kmodes.h); the
/// engine makes one per worker thread.
struct ClusterDedupScratch {
  std::vector<uint32_t> cluster_stamp;
  uint32_t epoch = 0;
  /// Always 0. Kept only because the benchmark's traced provider
  /// (perfbench/src/trace.h) still reads it; nothing in the library
  /// writes it.
  uint64_t last_pruned = 0;
};

/// Returns a scratch sized for `num_clusters` clusters.
inline ClusterDedupScratch MakeClusterDedupScratch(uint32_t num_clusters) {
  ClusterDedupScratch scratch;
  scratch.cluster_stamp.assign(num_clusters, 0);
  return scratch;
}

/// Starts a new dedup epoch. After 2^32 queries the epoch counter wraps
/// into values the stamp array may still hold from earlier epochs, which
/// would make stale stamps read as "already seen" and silently drop
/// clusters from shortlists — so on wrap the stamps are cleared and the
/// epoch restarts at 1 (stamp 0 = "never stamped"). Every epoch bump in
/// the library must go through here.
inline void BumpDedupEpoch(ClusterDedupScratch& scratch) {
  if (++scratch.epoch == 0) {
    std::fill(scratch.cluster_stamp.begin(), scratch.cluster_stamp.end(), 0u);
    scratch.epoch = 1;
  }
}

/// Collects into `out` the clusters (per `assignment`) of the peers that
/// `visit_peers` enumerates, deduplicated by first occurrence, first entry
/// being `item`'s own current cluster. The one dedup loop behind every
/// shortlist provider.
///
/// \param visit_peers callable invoked as visit_peers(sink) where sink is
///        a callable taking a peer item id; peers may repeat freely
template <typename VisitPeersFn>
void CollectCandidateClusters(uint32_t item,
                              std::span<const uint32_t> assignment,
                              ClusterDedupScratch& scratch,
                              std::vector<uint32_t>* out,
                              VisitPeersFn&& visit_peers) {
  out->clear();
  BumpDedupEpoch(scratch);
  // The current cluster is always a candidate (the item collides with
  // itself, but make it unconditional so the contract holds even for
  // degenerate banding).
  const uint32_t current = assignment[item];
  scratch.cluster_stamp[current] = scratch.epoch;
  out->push_back(current);
  visit_peers([&](uint32_t other) {
    const uint32_t cluster = assignment[other];
    if (scratch.cluster_stamp[cluster] != scratch.epoch) {
      scratch.cluster_stamp[cluster] = scratch.epoch;
      out->push_back(cluster);
    }
  });
}

/// \brief Engine provider (see clustering/engine.h) producing LSH cluster
/// shortlists. Also usable standalone for any "candidate clusters of this
/// item" query.
template <typename Family>
class ShortlistProvider {
 public:
  using Dataset = typename Family::Dataset;
  using Options = typename Family::Options;

  /// \param options family/index configuration
  /// \param num_clusters k — shortlist entries are cluster ids < k
  ShortlistProvider(const Options& options, uint32_t num_clusters)
      : family_(options), num_clusters_(num_clusters) {
    LSHC_DCHECK(num_clusters >= 1) << "need at least one cluster";
    scratch_ = MakeScratch();
  }

  /// Engine contract: shortlists instead of exhaustive scans.
  static constexpr bool kExhaustive = false;

  /// Per-caller query state (see ClusterDedupScratch).
  using Scratch = ClusterDedupScratch;

  /// A fresh scratch sized for this provider's cluster count.
  Scratch MakeScratch() const { return MakeClusterDedupScratch(num_clusters_); }

  /// Computes all signatures and builds the banding index (the one-time
  /// pass of Alg. 2). Called by the engine after the initial assignment.
  /// Signature computation is embarrassingly parallel over items, so when
  /// the engine hands over its worker pool the signing pass is chunked
  /// across it; the index build then fans its bands out over the same pool
  /// (bands have disjoint bucket spaces). Bit-identical for every pool size
  /// including none.
  ///
  /// Cooperative cancellation: when `cancel` is non-null it is polled at
  /// signing-batch boundaries (every kSignatureChunkSize items, from
  /// whichever worker runs the batch — the hook must be thread-safe, same
  /// contract as EngineOptions::cancel) and again between the signing and
  /// index-build phases. A poll answering true aborts with
  /// StatusCode::kCancelled and leaves the provider index-less: any
  /// previous index is dropped on entry and the new one is only installed
  /// on success, so a cancelled Prepare can never leak a stale or partial
  /// index into diagnostics.
  [[nodiscard]] Status Prepare(const Dataset& dataset, ThreadPool* pool = nullptr,
                 const std::function<bool()>* cancel = nullptr) {
    const uint32_t n = dataset.num_items();
    if (n == 0) return Status::InvalidArgument("dataset is empty");

    // Either this Prepare completes and installs a fresh index, or the
    // provider ends up with none — never a half-built or stale one. The
    // cluster masks describe the old index, so they go too.
    index_.reset();
    signatures_.clear();
    DropClusterMasks();

    Stopwatch watch;
    SignatureMatrix signatures;
    LSHC_RETURN_NOT_OK(
        family_.ComputeSignatures(dataset, &signatures, pool, cancel));
    ++dataset_sign_passes_;
    signature_seconds_ = watch.ElapsedSeconds();

    if (cancel != nullptr && (*cancel)()) {
      return Status::Cancelled(
          "index preparation stopped by the cancellation hook between "
          "signature computation and index construction");
    }

    watch.Restart();
    const std::vector<uint32_t> layout = family_.BandLayout();
    index_ = std::make_unique<BandedIndex>(signatures, n, layout, pool);
    index_seconds_ = watch.ElapsedSeconds();

    if (family_.keep_signatures()) {
      signatures_ = std::move(signatures);
    }
    return Status::OK();
  }

  /// Engine pass hook: when the index's buckets are few and wide
  /// (BandedIndex::ClusterMasksFit), fills every bucket's cluster bitmask
  /// under `reference` (BandedIndex::FillClusterMasks, bands fanned out
  /// over `pool` when given) and binds the masks to that exact span. Until
  /// EndPass, the next BeginPass, Prepare or Release, CandidateMask then
  /// answers for a call passing the same span (same data pointer and
  /// size). Otherwise it binds nothing and refinement takes the item walk.
  /// The caller must not write `reference`'s contents while it is bound.
  /// The storage is allocated by the first fill after Prepare, on the
  /// calling thread, and reused by later passes.
  void BeginPass(std::span<const uint32_t> reference, ThreadPool* pool) {
    LSHC_CHECK(index_ != nullptr) << "Prepare() must run before BeginPass";
    bound_ = {};
    if (!index_->ClusterMasksFit(num_clusters_)) return;
    index_->FillClusterMasks(reference, num_clusters_, &masks_, pool);
    bound_ = reference;
  }

  /// Unbinds the masks: CandidateMask answers for no span until the next
  /// BeginPass. Keeps the masks' storage for reuse. The engine calls this
  /// when refinement ends, so an assignment later allocated at the freed
  /// snapshot's address can never match.
  void EndPass() { bound_ = {}; }

  /// Fills `out` with the deduplicated candidate clusters of `item`:
  /// the clusters *currently* containing the items LSH considers similar
  /// to it, plus the item's own current cluster, in the order the
  /// co-bucketed items are walked. Reads `assignment` as the
  /// cluster-reference store (the engine passes its per-pass snapshot).
  /// Thread-safe given a private `scratch`.
  void GetCandidates(uint32_t item, std::span<const uint32_t> assignment,
                     Scratch& scratch, std::vector<uint32_t>* out) const {
    LSHC_DCHECK(index_ != nullptr) << "Prepare() must run before queries";
    CollectCandidateClusters(item, assignment, scratch, out,
                             [&](auto&& sink) {
                               index_->VisitCandidates(item, sink);
                             });
  }

  /// Engine mask hook: when BeginPass bound cluster masks to exactly
  /// `assignment`, writes into `mask` (⌈k/64⌉ words) the set of `item`'s
  /// shortlist — the clusters GetCandidates would list, in no order —
  /// and returns true. Otherwise leaves `mask` alone and returns false.
  /// Thread-safe.
  bool CandidateMask(uint32_t item, std::span<const uint32_t> assignment,
                     std::span<uint64_t> mask) const {
    if (bound_.empty() || assignment.data() != bound_.data() ||
        assignment.size() != bound_.size()) {
      return false;
    }
    LSHC_DCHECK(mask.size() == masks_.words()) << "mask width mismatch";
    index_->OrClusterMasks(item, masks_, mask.data());
    return true;
  }

  /// As GetCandidates but for an external item given by its
  /// family-specific query representation (e.g. a token set for MinHash, a
  /// vector for SimHash) — a new item arriving after clustering. Only
  /// available for families exposing ComputeQuerySignature.
  template <typename Query>
  void GetCandidatesForQuery(const Query& query,
                             std::span<const uint32_t> assignment,
                             std::vector<uint32_t>* out) {
    LSHC_CHECK(index_ != nullptr) << "Prepare() must run before queries";
    out->clear();
    BumpDedupEpoch(scratch_);
    // The signature buffer lives in the provider so repeated queries (the
    // streaming hot path) never allocate.
    query_signature_.resize(family_.signature_width());
    family_.ComputeQuerySignature(query, query_signature_.data());
    index_->VisitCandidatesOfSignature(query_signature_, [&](uint32_t other) {
      const uint32_t cluster = assignment[other];
      if (scratch_.cluster_stamp[cluster] != scratch_.epoch) {
        scratch_.cluster_stamp[cluster] = scratch_.epoch;
        out->push_back(cluster);
      }
    });
  }

  /// The hash family (hashers + configuration).
  const Family& family() const { return family_; }

  /// Moves the family and the prepared index out, leaving the provider
  /// spent. Clusterer::Fit builds its fitted model from them, so the
  /// index built once after the initial assignment is the one that model
  /// routes with — never a copy.
  std::pair<Family, std::unique_ptr<BandedIndex>> Release() && {
    DropClusterMasks();
    return {std::move(family_), std::move(index_)};
  }

  /// The per-item signature matrix computed by Prepare — non-empty only
  /// when the family keeps signatures. Lets callers (e.g. the streaming
  /// bootstrap) reuse the signing pass instead of re-hashing every item.
  std::span<const uint64_t> signatures() const { return signatures_; }

  /// The underlying banding index (null before Prepare).
  const BandedIndex* index() const { return index_.get(); }

  /// Occupancy statistics of the underlying index.
  BandedIndex::Stats IndexStats() const {
    LSHC_CHECK(index_ != nullptr) << "Prepare() must run before IndexStats";
    return index_->ComputeStats();
  }

  /// Approximate heap footprint (index + any kept signatures + the
  /// per-pass cluster masks).
  uint64_t MemoryUsageBytes() const {
    uint64_t bytes = sizeof(*this);
    if (index_ != nullptr) bytes += index_->MemoryUsageBytes();
    bytes += masks_.MemoryUsageBytes() - sizeof(masks_);
    bytes += signatures_.size() * sizeof(uint64_t);
    bytes += scratch_.cluster_stamp.size() * sizeof(uint32_t);
    bytes += query_signature_.capacity() * sizeof(uint64_t);
    bytes += family_.MemoryUsageBytes();
    return bytes;
  }

  /// Seconds spent in the last Prepare, split into signature computation
  /// and index construction.
  double signature_seconds() const { return signature_seconds_; }
  double index_seconds() const { return index_seconds_; }

  /// Number of completed full-dataset signing passes this provider has
  /// executed — 1 after one successful Prepare. Query-side work (routed
  /// prediction, GetCandidatesForQuery) signs only the query and never
  /// raises this, which is how callers assert the fitted dataset is never
  /// re-signed when the fit-time index is reused.
  uint64_t dataset_sign_passes() const { return dataset_sign_passes_; }

 private:
  void DropClusterMasks() {
    bound_ = {};
    masks_ = {};
  }

  Family family_;
  uint32_t num_clusters_;
  std::unique_ptr<BandedIndex> index_;
  BucketClusterMasks masks_;            // filled by BeginPass
  std::span<const uint32_t> bound_;     // the span they describe, if any
  SignatureMatrix signatures_;  // kept only if family says so
  Scratch scratch_;                   // for GetCandidatesForQuery
  std::vector<uint64_t> query_signature_;  // GetCandidatesForQuery buffer

  double signature_seconds_ = 0;
  double index_seconds_ = 0;
  uint64_t dataset_sign_passes_ = 0;
};

}  // namespace lshclust
