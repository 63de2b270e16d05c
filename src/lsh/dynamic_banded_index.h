#pragma once

/// \file dynamic_banded_index.h
/// \brief Growable banding index for streaming workloads (§VI of the
/// paper: "adapting our algorithm to develop an online streaming
/// clustering framework").
///
/// The static BandedIndex packs buckets into CSR arrays for scan speed but
/// cannot accept new items. This variant keeps, per band, exactly the
/// state the static build derives in its first pass, and grows it one
/// item at a time with the identical band-key function:
///  - `key_to_bucket` maps a band key to a *dense bucket id*, assigned
///    when the key is first inserted. Items arrive in ascending id order,
///    so ids follow first occurrence over ascending items, the order
///    BandedIndex's build numbers buckets in.
///  - `item_bucket` maps every item to its bucket id.
/// Freezing (BandedIndex's constructor from this class) is then a copy of
/// both plus the static build's counting-sort fill, and yields the index
/// a signature-built BandedIndex over the same signatures would: same
/// bucket ids, same CSR, same ToRaw dump.
///
/// Walks run over newest-first chains: `heads` maps a bucket to its
/// newest item and `next` links each item to the bucket's previous one.
/// A walk therefore visits a bucket's items in descending id order, and
/// an insert learns the bucket's newest item before it becomes it.
///
/// Per band this costs 4 B per item for each of `next` and `item_bucket`
/// and 4 B per bucket for `heads`, plus 13 B per slot of the key map (at
/// most 0.7 keys per slot). `item_bucket` and `heads` are the price of a
/// freeze that copies instead of walking every chain: ~8 B per item per
/// band where, as on streams of mostly distinct rows, buckets hold about
/// one item.

#include <cstdint>
#include <span>
#include <vector>

#include "lsh/banded_index.h"
#include "lsh/flat_hash_table.h"
#include "lsh/probability.h"
#include "util/logging.h"

namespace lshclust {

/// \brief Insert-only banding index over growing item ids 0, 1, 2, ...
class DynamicBandedIndex {
 public:
  /// \param params banding shape
  /// \param expected_items sizing hint for the per-band arrays and maps
  explicit DynamicBandedIndex(BandingParams params,
                              uint32_t expected_items = 0)
      : params_(params) {
    LSHC_CHECK(params.bands >= 1 && params.rows >= 1)
        << "banding needs at least one band and one row";
    bands_.resize(params.bands);
    for (auto& band : bands_) {
      band.key_to_bucket.Reserve(expected_items);
      band.next.reserve(expected_items);
      band.item_bucket.reserve(expected_items);
    }
  }

  /// Number of inserted items.
  uint32_t num_items() const { return num_items_; }
  /// The banding shape.
  BandingParams params() const { return params_; }

  /// Inserts the next item (id = num_items()) with the given signature
  /// (length params().num_hashes()). Returns the assigned id.
  uint32_t Insert(std::span<const uint64_t> signature) {
    bool unused = false;
    return InsertDetectingRecent(signature, ~0u, &unused);
  }

  /// As Insert, but additionally reports through `saw_recent` whether any
  /// of the item's buckets already held an item with id >= `min_item`.
  /// Bucket chains are newest-first, so inspecting each pre-insert head is
  /// exact and free — this is how the streaming micro-batch apply phase
  /// detects that a provisional shortlist computed against a frozen index
  /// missed an in-batch predecessor.
  uint32_t InsertDetectingRecent(std::span<const uint64_t> signature,
                                 uint32_t min_item, bool* saw_recent) {
    LSHC_DCHECK(signature.size() == params_.num_hashes())
        << "signature width mismatch";
    const uint32_t item = num_items_++;
    bool recent = false;
    for (uint32_t b = 0; b < params_.bands; ++b) {
      const uint32_t previous = InsertIntoBand(
          bands_[b],
          ComputeBandKey(
              signature.data() + static_cast<size_t>(b) * params_.rows, b,
              params_.rows),
          item);
      recent |= previous != 0 && previous - 1 >= min_item;
    }
    *saw_recent = recent;
    return item;
  }

  /// Bulk-inserts `count` consecutive items whose signatures are packed
  /// row-major (count x num_hashes()) in `signatures` — the layout
  /// ShortlistProvider::signatures() keeps — so warm-up loading is one
  /// pass over an existing matrix instead of re-signing row by row. Runs
  /// band-major to keep each band's hash map cache-resident; the resulting
  /// structure is identical to `count` sequential Insert calls.
  void InsertBatch(std::span<const uint64_t> signatures, uint32_t count) {
    const uint32_t width = params_.num_hashes();
    LSHC_CHECK(signatures.size() == static_cast<size_t>(count) * width)
        << "signature matrix is " << signatures.size()
        << " components, expected " << count << " x " << width;
    const uint32_t first = num_items_;
    for (uint32_t b = 0; b < params_.bands; ++b) {
      Band& band = bands_[b];
      band.key_to_bucket.Reserve(band.key_to_bucket.size() + count);
      band.next.reserve(band.next.size() + count);
      band.item_bucket.reserve(band.item_bucket.size() + count);
      const uint64_t* rows =
          signatures.data() + static_cast<size_t>(b) * params_.rows;
      for (uint32_t i = 0; i < count; ++i) {
        InsertIntoBand(band,
                       ComputeBandKey(rows + static_cast<size_t>(i) * width,
                                      b, params_.rows),
                       first + i);
      }
    }
    num_items_ = first + count;
  }

  /// Invokes `visit(item_id)` for every inserted item sharing a bucket
  /// with `signature` in any band, newest first within each bucket
  /// (repeats across bands possible, like BandedIndex).
  template <typename Visitor>
  void VisitCandidatesOfSignature(std::span<const uint64_t> signature,
                                  Visitor&& visit) const {
    LSHC_DCHECK(signature.size() == params_.num_hashes())
        << "signature width mismatch";
    for (uint32_t b = 0; b < params_.bands; ++b) {
      const Band& band = bands_[b];
      const uint64_t key = ComputeBandKey(
          signature.data() + static_cast<size_t>(b) * params_.rows, b,
          params_.rows);
      const uint32_t* bucket = band.key_to_bucket.Find(key);
      if (bucket == nullptr) continue;
      for (uint32_t cursor = band.heads[*bucket]; cursor != 0;
           cursor = band.next[cursor - 1]) {
        visit(cursor - 1);
      }
    }
  }

  /// Approximate heap footprint in bytes.
  uint64_t MemoryUsageBytes() const {
    uint64_t bytes = sizeof(*this);
    for (const Band& band : bands_) {
      bytes += band.key_to_bucket.capacity() *
               (sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint8_t));
      bytes += (band.heads.capacity() + band.next.capacity() +
                band.item_bucket.capacity()) *
               sizeof(uint32_t);
    }
    return bytes;
  }

 private:
  /// BandedIndex's freezing constructor copies each band's key map and
  /// item_bucket array and counting-sorts its CSR from them.
  friend class BandedIndex;

  struct Band {
    FlatHashMap64 key_to_bucket;        // band key -> dense bucket id
    std::vector<uint32_t> heads;        // bucket -> 1 + newest item
    std::vector<uint32_t> next;         // item -> 1 + previous item (0 = end)
    std::vector<uint32_t> item_bucket;  // item -> its bucket id
  };

  /// Appends `item` to the bucket of `key` in `band`, opening the bucket
  /// (next dense id) when the key is new. Returns the bucket's previous
  /// head: 1 + its newest item before this insert, or 0 if it was new.
  static uint32_t InsertIntoBand(Band& band, uint64_t key, uint32_t item) {
    const uint32_t fresh = static_cast<uint32_t>(band.heads.size());
    const uint32_t bucket = *band.key_to_bucket.FindOrInsert(key, fresh);
    if (bucket == fresh) band.heads.push_back(0);
    const uint32_t previous = band.heads[bucket];
    band.next.push_back(previous);
    band.item_bucket.push_back(bucket);
    band.heads[bucket] = item + 1;
    return previous;
  }

  BandingParams params_;
  uint32_t num_items_ = 0;
  std::vector<Band> bands_;
};

}  // namespace lshclust
