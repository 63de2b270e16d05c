#pragma once

/// \file banded_index.h
/// \brief The banding LSH index over a static set of item signatures.
///
/// Signatures are divided into b bands of r rows; each band's r values are
/// hashed to a bucket key, and each band maintains its own bucket space so
/// "no overlapping between bands can occur" (§III-A2). Two items are
/// *candidates* iff they share a bucket in at least one band, which happens
/// with probability 1 - (1 - s^r)^b for Jaccard similarity s.
///
/// The index is built once over all items (the paper's single pass after
/// centroid initialisation) and is immutable afterwards. Buckets use a CSR
/// layout (offsets + flat item array) per band, so a candidate visit is a
/// contiguous scan. Bands share nothing, so the build fans them out over a
/// thread pool when it is given one, with the same result as without.
///
/// A query that only wants the *clusters* of its co-bucketed items can
/// instead walk a BucketClusterTable: every bucket compacted, under one
/// assignment, to the distinct clusters of its items. Compaction is one
/// O(n) sweep per band; each query then visits Σ distinct clusters of its
/// buckets instead of Σ bucket sizes. Fit-time refinement compacts once
/// per pass (by member item); an immutable fitted model compacts once, at
/// construction, and routes external signatures over the lists.

#include <cstdint>
#include <span>
#include <vector>

#include "lsh/flat_hash_table.h"
#include "lsh/probability.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"

namespace lshclust {

class DynamicBandedIndex;
class ThreadPool;

/// \brief Each bucket of a BandedIndex compacted to the distinct clusters
/// of its items under one assignment: per band, a CSR of cluster lists,
/// each in the order the cluster first occurs when the bucket's items are
/// walked in ascending id.
///
/// Filled by BandedIndex::CompactClusters or CompactClustersExact and
/// read by BandedIndex::VisitCandidateClusters (member items) and
/// VisitCandidateClustersOfSignature (external signatures). Validity
/// window: the lists describe the assignment *content* of the last
/// compaction, for the index it was made from. They go stale
/// the moment that assignment is written or the index is replaced; nothing
/// here detects either, so the owner must drop or recompact the table
/// first. Two owners exist: ShortlistProvider binds a table to exactly one
/// assignment span and one refinement pass, and a fitted FrozenModelImpl
/// owns one next to the immutable index and fit assignment it was
/// compacted from, so it stays valid for the model's whole life.
///
/// CompactClusters sizes storage on its first call for an (index, k)
/// shape and reuses it for later calls of the same shape, so a run pays
/// the allocation once, not once per pass. CompactClustersExact sizes
/// each list to its entries instead, for a table that is built once and
/// then only read.
class BucketClusterTable {
 public:
  /// True until the table is first compacted.
  bool empty() const { return bands_.empty(); }

  /// Cluster entries listed across every bucket of every band: what one
  /// walk over all buckets would visit (at most n x bands).
  uint64_t num_entries() const;

  /// Approximate heap footprint in bytes.
  uint64_t MemoryUsageBytes() const;

 private:
  friend class BandedIndex;

  struct Band {
    std::vector<uint32_t> offsets;   // CSR offsets, size buckets + 1
    std::vector<uint32_t> clusters;  // CSR payload, capacity n
    std::vector<uint32_t> stamp;     // cluster -> bucket that last listed it
  };

  std::vector<Band> bands_;
};

/// Hashes the `rows` signature components of band `band` into a bucket
/// key. Seeded with the band index so identical row values in different
/// bands never alias ("no overlapping between bands can occur", §III-A2).
/// Shared by the static and dynamic indexes so their bucketing agrees.
inline uint64_t ComputeBandKey(const uint64_t* band_rows, uint32_t band,
                               uint32_t rows) {
  uint64_t key = Mix64(0x9E3779B97F4A7C15ULL ^ band);
  for (uint32_t r = 0; r < rows; ++r) {
    key = Mix64(key ^ band_rows[r]);
  }
  return key;
}

/// \brief Immutable banding index; query by member item id or by external
/// signature.
///
/// Bands are laid out consecutively over the signature but need not all
/// have the same row count: a heterogeneous layout lets one index serve
/// concatenated multi-family signatures (e.g. the mixed MinHash + SimHash
/// signature of LSH-K-Prototypes, whose modalities want very different
/// band shapes). Candidate semantics are unchanged — a pair is a
/// candidate iff it collides in at least one band of the layout, which
/// for a concatenated layout is exactly the union of the per-family
/// candidate sets.
class BandedIndex {
 public:
  /// Builds a uniform index: b bands of r rows.
  /// \param signatures row-major n x (bands*rows) signature matrix
  /// \param num_items n
  /// \param params banding shape; bands*rows must equal the signature width
  /// \param pool when given, bands are built in parallel (see Build)
  BandedIndex(std::span<const uint64_t> signatures, uint32_t num_items,
              BandingParams params, ThreadPool* pool = nullptr);

  /// Builds a heterogeneous index: band i covers band_rows[i] consecutive
  /// signature components, in order.
  /// \param signatures row-major n x sum(band_rows) signature matrix
  /// \param num_items n
  /// \param band_rows rows per band; all entries must be >= 1
  /// \param pool when given, bands are built in parallel (see Build)
  BandedIndex(std::span<const uint64_t> signatures, uint32_t num_items,
              std::span<const uint32_t> band_rows, ThreadPool* pool = nullptr);

  /// Freezes a streaming DynamicBandedIndex into the CSR layout. The
  /// result equals the index built from the same signatures by the
  /// constructors above: same bucket ids, same CSR arrays, same ToRaw
  /// dump. The dynamic index already holds Build's first pass (dense
  /// bucket ids in first-occurrence order, each item's bucket), so this
  /// copies it, shrinking any band map larger than its keys need, and
  /// runs Build's counting-sort fill: O(n + slots) per band, no
  /// signatures.
  /// Used by StreamingSession::Snapshot to hand the serving layer a
  /// scan-friendly immutable copy of the live index.
  explicit BandedIndex(const DynamicBandedIndex& dynamic);

  /// Number of indexed items.
  uint32_t num_items() const { return num_items_; }
  /// Number of bands.
  uint32_t num_bands() const { return static_cast<uint32_t>(bands_.size()); }
  /// Total signature components covered by the layout.
  uint32_t signature_width() const { return signature_width_; }
  /// The banding shape. For a heterogeneous layout `rows` is 0 (there is
  /// no single row count); `bands` is always the band count.
  BandingParams params() const { return params_; }

  /// Invokes `visit(item_id)` for every item sharing a bucket with `item`
  /// in any band. Includes `item` itself (once per band); an item
  /// co-bucketed in several bands is visited several times — deduplication
  /// is the caller's concern (the shortlist builder uses an epoch stamp).
  template <typename Visitor>
  void VisitCandidates(uint32_t item, Visitor&& visit) const {
    LSHC_DCHECK(item < num_items_) << "item index out of range";
    for (const Band& band : bands_) {
      const uint32_t bucket = band.item_bucket[item];
      const uint32_t begin = band.bucket_offsets[bucket];
      const uint32_t end = band.bucket_offsets[bucket + 1];
      for (uint32_t i = begin; i < end; ++i) {
        visit(band.bucket_items[i]);
      }
    }
  }

  /// Compacts every bucket of every band to the distinct clusters of its
  /// items under `assignment` (cluster ids < `num_clusters`), into
  /// `table`. Any storage the table lacks for this shape is allocated here,
  /// on the calling thread; bands are independent, so with a `pool` they
  /// are fanned out across its workers, which only write into that
  /// storage. The result is identical for every pool size including none.
  /// Must not be called from a worker of `pool`.
  void CompactClusters(std::span<const uint32_t> assignment,
                       uint32_t num_clusters, BucketClusterTable* table,
                       ThreadPool* pool) const;

  /// CompactClusters on the calling thread, with every band's lists
  /// sized to their entries rather than to n: one sweep per band counts
  /// them, a second fills them, and no compaction stamps are kept. For a
  /// table that is compacted once and only read afterwards.
  void CompactClustersExact(std::span<const uint32_t> assignment,
                            uint32_t num_clusters,
                            BucketClusterTable* table) const;

  /// Invokes `visit(cluster_id)` for every cluster that `table` lists for
  /// `item`'s bucket, band by band. This is VisitCandidates mapped through
  /// the assignment `table` was compacted from, with repeats *within* a
  /// bucket removed: the first occurrence of each cluster keeps its
  /// position, so deduplicating either stream by first occurrence yields
  /// the same list in the same order. `table` must come from
  /// CompactClusters on this index and still be valid (see
  /// BucketClusterTable).
  template <typename Visitor>
  void VisitCandidateClusters(uint32_t item, const BucketClusterTable& table,
                              Visitor&& visit) const {
    LSHC_DCHECK(item < num_items_) << "item index out of range";
    LSHC_DCHECK(table.bands_.size() == bands_.size())
        << "cluster table was not compacted from this index";
    for (size_t b = 0; b < bands_.size(); ++b) {
      const BucketClusterTable::Band& lists = table.bands_[b];
      const uint32_t bucket = bands_[b].item_bucket[item];
      const uint32_t begin = lists.offsets[bucket];
      const uint32_t end = lists.offsets[bucket + 1];
      for (uint32_t i = begin; i < end; ++i) {
        visit(lists.clusters[i]);
      }
    }
  }

  /// VisitCandidateClusters for an external `signature` (length
  /// signature_width()): invokes `visit(cluster_id)` for every cluster
  /// `table` lists for the bucket the signature's key selects in each band,
  /// band by band. Bands whose key was never inserted are skipped. This is
  /// VisitCandidatesOfSignature mapped through the assignment `table` was
  /// compacted from, with repeats within a bucket removed, so
  /// deduplicating either stream by first occurrence yields the same list.
  template <typename Visitor>
  void VisitCandidateClustersOfSignature(std::span<const uint64_t> signature,
                                         const BucketClusterTable& table,
                                         Visitor&& visit) const {
    LSHC_DCHECK(signature.size() == signature_width_)
        << "signature width mismatch";
    LSHC_DCHECK(table.bands_.size() == bands_.size())
        << "cluster table was not compacted from this index";
    for (uint32_t b = 0; b < num_bands(); ++b) {
      const uint32_t* bucket =
          bands_[b].key_to_bucket.Find(BandKey(signature.data(), b));
      if (bucket == nullptr) continue;
      const BucketClusterTable::Band& lists = table.bands_[b];
      const uint32_t begin = lists.offsets[*bucket];
      const uint32_t end = lists.offsets[*bucket + 1];
      for (uint32_t i = begin; i < end; ++i) {
        visit(lists.clusters[i]);
      }
    }
  }

  /// Invokes `visit(item_id)` for every indexed item sharing a bucket with
  /// the external `signature` (length signature_width()). Bands whose
  /// key was never inserted are skipped.
  template <typename Visitor>
  void VisitCandidatesOfSignature(std::span<const uint64_t> signature,
                                  Visitor&& visit) const {
    LSHC_DCHECK(signature.size() == signature_width_)
        << "signature width mismatch";
    for (uint32_t b = 0; b < num_bands(); ++b) {
      const uint64_t key = BandKey(signature.data(), b);
      const Band& band = bands_[b];
      const uint32_t* bucket = band.key_to_bucket.Find(key);
      if (bucket == nullptr) continue;
      const uint32_t begin = band.bucket_offsets[*bucket];
      const uint32_t end = band.bucket_offsets[*bucket + 1];
      for (uint32_t i = begin; i < end; ++i) {
        visit(band.bucket_items[i]);
      }
    }
  }

  /// The number of items in `item`'s bucket of band `b` (including itself).
  uint32_t BucketSize(uint32_t band, uint32_t item) const {
    LSHC_DCHECK(band < num_bands() && item < num_items_);
    const Band& b = bands_[band];
    const uint32_t bucket = b.item_bucket[item];
    return b.bucket_offsets[bucket + 1] - b.bucket_offsets[bucket];
  }

  /// Buckets across all bands, in O(bands); n x bands over this is the
  /// mean bucket size ComputeStats reports, without its O(buckets) loop.
  uint64_t num_buckets() const {
    uint64_t buckets = 0;
    for (const Band& band : bands_) buckets += band.bucket_offsets.size() - 1;
    return buckets;
  }

  /// \brief Aggregate occupancy statistics for diagnostics and tests.
  struct Stats {
    uint64_t total_buckets = 0;   ///< buckets across all bands
    uint64_t largest_bucket = 0;  ///< max items in one bucket
    double mean_bucket_size = 0;  ///< n*b / total_buckets
  };
  /// Computes occupancy statistics over all bands.
  Stats ComputeStats() const;

  /// Approximate heap footprint of the index in bytes.
  uint64_t MemoryUsageBytes() const;

  /// \brief One band's CSR state with the hash map flattened to a dense
  /// `bucket id -> band key` array — the persistence seam. Deterministic:
  /// two indexes with identical buckets dump identical Raw state.
  struct RawBand {
    uint32_t offset = 0;                   ///< first signature component
    uint32_t rows = 0;                     ///< components in this band
    std::vector<uint64_t> bucket_keys;     ///< size buckets
    std::vector<uint32_t> bucket_offsets;  ///< size buckets + 1
    std::vector<uint32_t> bucket_items;    ///< size n
    std::vector<uint32_t> item_bucket;     ///< size n
    bool operator==(const RawBand&) const = default;
  };
  /// \brief The whole index as plain arrays (see RawBand).
  struct Raw {
    uint32_t num_items = 0;
    std::vector<RawBand> bands;
    bool operator==(const Raw&) const = default;
  };

  /// Dumps the CSR state as plain arrays, keyed by dense bucket id.
  Raw ToRaw() const;

  /// Rebuilds an index from dumped arrays — re-deriving only the per-band
  /// key->bucket hash maps; signatures are never re-hashed (the dump *is*
  /// the bucket state). Every CSR invariant is validated hard: offsets
  /// monotone and spanning exactly `num_items` entries, items in range and
  /// strictly ascending per bucket, `item_bucket` consistent with the
  /// bucket slices, bands contiguous over the signature, bucket keys
  /// unique per band. Any violation returns kInvalidArgument — corrupt
  /// input can never construct an index that would index out of bounds.
  static Result<BandedIndex> FromRaw(Raw raw);

 private:
  struct Band {
    FlatHashMap64 key_to_bucket;          // band key -> dense bucket id
    std::vector<uint32_t> bucket_offsets; // CSR offsets, size buckets+1
    std::vector<uint32_t> bucket_items;   // CSR payload, size n
    std::vector<uint32_t> item_bucket;    // item -> its bucket id, size n
    uint32_t offset = 0;                  // first signature component
    uint32_t rows = 0;                    // components in this band
  };

  /// Compacts band `band`'s buckets, in order, to the distinct clusters
  /// of their items under `assignment`: offsets[bucket] becomes the first
  /// entry of the bucket's list and offsets[buckets] the band's total.
  /// With kFill the lists are written into `clusters`; without, it only
  /// counts. `stamp` is k words of scratch.
  template <bool kFill>
  static void CompactBand(const Band& band,
                          std::span<const uint32_t> assignment,
                          uint32_t num_clusters, uint32_t* stamp,
                          uint32_t* offsets, uint32_t* clusters);

  /// Buckets every band: dense bucket ids in the order their keys first
  /// occur over ascending item ids, then the CSR fill. Bands have disjoint
  /// bucket spaces (§III-A2), so with a `pool` they are fanned out across
  /// its workers. All storage is sized first, on the calling thread, and
  /// workers only write into it (or shrink their own band's map), so the
  /// index — and its ToRaw dump — is identical for every pool size
  /// including none. Must not be called from a worker of `pool`.
  void Build(std::span<const uint64_t> signatures, ThreadPool* pool);

  /// Build's second pass, shared with the freeze: given `item_bucket`
  /// and each bucket's size in bucket_offsets[id + 1] (bucket_offsets[0]
  /// is 0), turns the offsets into CSR offsets and fills `bucket_items`
  /// (already n long) with every bucket's items in ascending order.
  static void FillBuckets(uint32_t num_buckets, Band& band);

  /// Band key of one band of a full signature.
  uint64_t BandKey(const uint64_t* signature, uint32_t band) const {
    return ComputeBandKey(signature + bands_[band].offset, band,
                          bands_[band].rows);
  }

  /// For FromRaw, which fills the members itself.
  BandedIndex() = default;

  uint32_t num_items_ = 0;
  BandingParams params_;
  uint32_t signature_width_ = 0;
  std::vector<Band> bands_;
};

}  // namespace lshclust
