#include "lsh/banded_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "lsh/dynamic_banded_index.h"
#include "util/thread_pool.h"

namespace lshclust {

BandedIndex::BandedIndex(std::span<const uint64_t> signatures,
                         uint32_t num_items, BandingParams params,
                         ThreadPool* pool)
    : num_items_(num_items), params_(params) {
  LSHC_CHECK(params.bands >= 1 && params.rows >= 1)
      << "banding needs at least one band and one row";
  signature_width_ = params.num_hashes();
  bands_.resize(params.bands);
  for (uint32_t b = 0; b < params.bands; ++b) {
    bands_[b].offset = b * params.rows;
    bands_[b].rows = params.rows;
  }
  Build(signatures, pool);
}

BandedIndex::BandedIndex(std::span<const uint64_t> signatures,
                         uint32_t num_items,
                         std::span<const uint32_t> band_rows,
                         ThreadPool* pool)
    : num_items_(num_items) {
  LSHC_CHECK_GE(band_rows.size(), 1u)
      << "banding needs at least one band";
  bands_.resize(band_rows.size());
  uint32_t offset = 0;
  for (size_t b = 0; b < band_rows.size(); ++b) {
    LSHC_CHECK_GE(band_rows[b], 1u) << "every band needs at least one row";
    bands_[b].offset = offset;
    bands_[b].rows = band_rows[b];
    offset += band_rows[b];
  }
  signature_width_ = offset;
  // Summary shape: rows is only meaningful when uniform.
  const bool uniform = std::all_of(
      band_rows.begin(), band_rows.end(),
      [&](uint32_t rows) { return rows == band_rows[0]; });
  params_ = {static_cast<uint32_t>(band_rows.size()),
             uniform ? band_rows[0] : 0};
  Build(signatures, pool);
}

BandedIndex::BandedIndex(const DynamicBandedIndex& dynamic)
    : num_items_(dynamic.num_items_), params_(dynamic.params_) {
  signature_width_ = params_.num_hashes();
  bands_.resize(params_.bands);
  for (uint32_t b = 0; b < params_.bands; ++b) {
    Band& band = bands_[b];
    const DynamicBandedIndex::Band& source = dynamic.bands_[b];
    band.offset = b * params_.rows;
    band.rows = params_.rows;
    // The live band already holds Build's pass-1 state: dense ids in
    // first-occurrence order and every item's bucket. Copy both, count
    // the buckets' sizes and run Build's fill. A live map can hold more
    // slots than its keys need (InsertBatch reserves one key per item);
    // its copy is shrunk so no snapshot carries those slots.
    band.key_to_bucket = source.key_to_bucket;
    band.key_to_bucket.ShrinkToFit();
    band.item_bucket = source.item_bucket;
    const uint32_t num_buckets = static_cast<uint32_t>(source.heads.size());
    band.bucket_offsets.assign(static_cast<size_t>(num_buckets) + 1, 0);
    for (const uint32_t bucket : band.item_bucket) {
      ++band.bucket_offsets[bucket + 1];
    }
    band.bucket_items.resize(num_items_);
    FillBuckets(num_buckets, band);
  }
}

void BandedIndex::FillBuckets(uint32_t num_buckets, Band& band) {
  // offsets[id + 1] becomes the bucket's start and serves as its fill
  // cursor; after the fill it is the bucket's end, i.e. the CSR offset of
  // bucket id + 1.
  uint32_t* offsets = band.bucket_offsets.data();
  uint32_t start = 0;
  for (uint32_t bucket = 0; bucket < num_buckets; ++bucket) {
    const uint32_t size = offsets[bucket + 1];
    offsets[bucket + 1] = start;
    start += size;
  }
  const uint32_t num_items = static_cast<uint32_t>(band.item_bucket.size());
  for (uint32_t item = 0; item < num_items; ++item) {
    band.bucket_items[offsets[band.item_bucket[item] + 1]++] = item;
  }
}

void BandedIndex::Build(std::span<const uint64_t> signatures,
                        ThreadPool* pool) {
  LSHC_CHECK_EQ(signatures.size(),
                static_cast<size_t>(num_items_) * signature_width_)
      << "signature matrix size does not match items x hashes";

  const uint32_t num_items = num_items_;
  const uint32_t width = signature_width_;

  // Size every array here, on the calling thread: the band workers below
  // only write into storage that already exists, except when one shrinks
  // its band's map at the end. A band has at most n buckets, so n + 1
  // offsets and a map reserved for n keys always fit.
  for (Band& band : bands_) {
    band.key_to_bucket.Reserve(num_items);
    band.item_bucket.resize(num_items);
    band.bucket_items.resize(num_items);
    band.bucket_offsets.assign(static_cast<size_t>(num_items) + 1, 0);
  }

  const auto build_band = [&](uint32_t b) {
    Band& band = bands_[b];
    [[maybe_unused]] const size_t reserved = band.key_to_bucket.capacity();
    uint32_t* offsets = band.bucket_offsets.data();

    // Pass 1: dense bucket ids in first-occurrence order; offsets[id + 1]
    // counts the bucket's items.
    uint32_t num_buckets = 0;
    for (uint32_t item = 0; item < num_items; ++item) {
      const uint64_t* signature =
          signatures.data() + static_cast<size_t>(item) * width;
      const uint32_t bucket =
          *band.key_to_bucket.FindOrInsert(BandKey(signature, b), num_buckets);
      if (bucket == num_buckets) ++num_buckets;
      band.item_bucket[item] = bucket;
      ++offsets[bucket + 1];
    }

    // Pass 2: the counting-sort fill.
    FillBuckets(num_buckets, band);
    LSHC_DCHECK(band.key_to_bucket.capacity() == reserved)
        << "a band worker grew its hash map";

    // A map reserved for n keys but holding far fewer (a few wide
    // buckets, as SimHash's coarse bands make) is rehashed to fit. Within
    // 4x it stays: the O(capacity) rehash would save little memory, and
    // a fuller map lengthens the probe chains of routed lookups.
    if (FlatHashMap64::CapacityFor(num_buckets) * 4 <=
        band.key_to_bucket.capacity()) {
      band.key_to_bucket.ShrinkToFit();
    }
  };
  if (pool == nullptr) {
    for (uint32_t b = 0; b < num_bands(); ++b) build_band(b);
  } else {
    pool->ParallelFor(0, num_bands(), 1,
                      [&](uint32_t begin, uint32_t end, uint32_t) {
                        for (uint32_t b = begin; b < end; ++b) build_band(b);
                      });
  }

  // Every key is one bucket, so the map's size is the band's bucket count.
  for (Band& band : bands_) {
    band.bucket_offsets.resize(band.key_to_bucket.size() + 1);
    band.bucket_offsets.shrink_to_fit();
  }
}

template <bool kFill>
void BandedIndex::CompactBand(const Band& band,
                              std::span<const uint32_t> assignment,
                              uint32_t num_clusters, uint32_t* stamp,
                              uint32_t* offsets, uint32_t* clusters) {
  // stamp[c] == bucket  <=>  c is already listed for `bucket`. Bucket ids
  // are < n, so the fill value never collides with one.
  std::fill(stamp, stamp + num_clusters, ~0u);
  const uint32_t num_buckets =
      static_cast<uint32_t>(band.bucket_offsets.size()) - 1;
  uint32_t write = 0;
  for (uint32_t bucket = 0; bucket < num_buckets; ++bucket) {
    offsets[bucket] = write;
    const uint32_t end = band.bucket_offsets[bucket + 1];
    for (uint32_t i = band.bucket_offsets[bucket]; i < end; ++i) {
      const uint32_t cluster = assignment[band.bucket_items[i]];
      LSHC_DCHECK(cluster < num_clusters) << "cluster id out of range";
      if (stamp[cluster] != bucket) {
        stamp[cluster] = bucket;
        if constexpr (kFill) clusters[write] = cluster;
        ++write;
      }
    }
  }
  offsets[num_buckets] = write;
}

void BandedIndex::CompactClusters(std::span<const uint32_t> assignment,
                                  uint32_t num_clusters,
                                  BucketClusterTable* table,
                                  ThreadPool* pool) const {
  LSHC_CHECK_EQ(assignment.size(), static_cast<size_t>(num_items_))
      << "assignment does not cover the indexed items";
  LSHC_CHECK_GE(num_clusters, 1u) << "need at least one cluster";

  // Size every array here, on the calling thread: workers below only write
  // into storage that already exists. Same shape as the last call = no
  // allocation.
  table->bands_.resize(bands_.size());
  for (size_t b = 0; b < bands_.size(); ++b) {
    BucketClusterTable::Band& lists = table->bands_[b];
    lists.offsets.resize(bands_[b].bucket_offsets.size());
    lists.clusters.resize(num_items_);
    lists.stamp.resize(num_clusters);
  }

  const auto compact_band = [&](uint32_t b) {
    BucketClusterTable::Band& lists = table->bands_[b];
    CompactBand<true>(bands_[b], assignment, num_clusters,
                      lists.stamp.data(), lists.offsets.data(),
                      lists.clusters.data());
  };
  if (pool == nullptr) {
    for (uint32_t b = 0; b < num_bands(); ++b) compact_band(b);
  } else {
    pool->ParallelFor(0, num_bands(), 1,
                      [&](uint32_t begin, uint32_t end, uint32_t) {
                        for (uint32_t b = begin; b < end; ++b) compact_band(b);
                      });
  }
}

void BandedIndex::CompactClustersExact(std::span<const uint32_t> assignment,
                                       uint32_t num_clusters,
                                       BucketClusterTable* table) const {
  LSHC_CHECK_EQ(assignment.size(), static_cast<size_t>(num_items_))
      << "assignment does not cover the indexed items";
  LSHC_CHECK_GE(num_clusters, 1u) << "need at least one cluster";
  std::vector<uint32_t> stamp(num_clusters);
  table->bands_.resize(bands_.size());
  for (size_t b = 0; b < bands_.size(); ++b) {
    BucketClusterTable::Band& lists = table->bands_[b];
    lists.offsets.resize(bands_[b].bucket_offsets.size());
    CompactBand<false>(bands_[b], assignment, num_clusters, stamp.data(),
                       lists.offsets.data(), nullptr);
    lists.clusters.assign(lists.offsets.back(), 0);
    lists.clusters.shrink_to_fit();
    CompactBand<true>(bands_[b], assignment, num_clusters, stamp.data(),
                      lists.offsets.data(), lists.clusters.data());
    lists.stamp = {};
  }
}

BandedIndex::Raw BandedIndex::ToRaw() const {
  Raw raw;
  raw.num_items = num_items_;
  raw.bands.resize(bands_.size());
  for (size_t b = 0; b < bands_.size(); ++b) {
    const Band& band = bands_[b];
    RawBand& out = raw.bands[b];
    out.offset = band.offset;
    out.rows = band.rows;
    out.bucket_offsets = band.bucket_offsets;
    out.bucket_items = band.bucket_items;
    out.item_bucket = band.item_bucket;
    // Flatten the hash map into dense-bucket-id order: the map's slot
    // order is capacity-dependent, bucket ids are not, so the dump is
    // deterministic (save -> load -> save is byte-identical).
    out.bucket_keys.resize(band.bucket_offsets.size() - 1);
    band.key_to_bucket.ForEach([&](uint64_t key, uint32_t bucket) {
      out.bucket_keys[bucket] = key;
    });
  }
  return raw;
}

Result<BandedIndex> BandedIndex::FromRaw(Raw raw) {
  const auto invalid = [](size_t band, const std::string& what) {
    return Status::InvalidArgument("index band " + std::to_string(band) +
                                   " " + what);
  };
  if (raw.num_items < 1) {
    return Status::InvalidArgument("index dump covers no items");
  }
  if (raw.bands.empty()) {
    return Status::InvalidArgument("index dump has no bands");
  }
  const uint32_t n = raw.num_items;
  BandedIndex index;
  index.num_items_ = n;
  index.bands_.resize(raw.bands.size());
  uint32_t expected_offset = 0;
  for (size_t b = 0; b < raw.bands.size(); ++b) {
    RawBand& src = raw.bands[b];
    if (src.rows < 1) return invalid(b, "has zero rows");
    if (src.offset != expected_offset) {
      return invalid(b, "starts at signature component " +
                            std::to_string(src.offset) + ", expected " +
                            std::to_string(expected_offset) +
                            " (bands must tile the signature)");
    }
    expected_offset += src.rows;
    const size_t num_buckets = src.bucket_keys.size();
    if (src.bucket_offsets.size() != num_buckets + 1) {
      return invalid(b, "has " + std::to_string(src.bucket_offsets.size()) +
                            " offsets for " + std::to_string(num_buckets) +
                            " buckets");
    }
    if (src.bucket_offsets.front() != 0) {
      return invalid(b, "offsets do not start at 0");
    }
    for (size_t bucket = 0; bucket < num_buckets; ++bucket) {
      if (src.bucket_offsets[bucket + 1] < src.bucket_offsets[bucket]) {
        return invalid(b, "offsets are not monotone");
      }
    }
    if (src.bucket_offsets.back() != n) {
      return invalid(b, "offsets span " +
                            std::to_string(src.bucket_offsets.back()) +
                            " entries for " + std::to_string(n) + " items");
    }
    if (src.bucket_items.size() != n || src.item_bucket.size() != n) {
      return invalid(b, "CSR arrays are not item-sized");
    }
    // Each bucket slice must hold strictly ascending in-range items that
    // agree with item_bucket. Together with the slices covering exactly n
    // entries this makes bucket membership a bijection over the items, so
    // no item can be dropped or duplicated by a crafted dump.
    for (size_t bucket = 0; bucket < num_buckets; ++bucket) {
      const uint32_t begin = src.bucket_offsets[bucket];
      const uint32_t end = src.bucket_offsets[bucket + 1];
      for (uint32_t i = begin; i < end; ++i) {
        const uint32_t item = src.bucket_items[i];
        if (item >= n) return invalid(b, "references an out-of-range item");
        if (i > begin && src.bucket_items[i - 1] >= item) {
          return invalid(b, "bucket items are not strictly ascending");
        }
        if (src.item_bucket[item] != bucket) {
          return invalid(b, "item_bucket disagrees with the bucket slices");
        }
      }
    }
    Band& band = index.bands_[b];
    band.offset = src.offset;
    band.rows = src.rows;
    band.bucket_offsets = std::move(src.bucket_offsets);
    band.bucket_items = std::move(src.bucket_items);
    band.item_bucket = std::move(src.item_bucket);
    band.key_to_bucket.Reserve(num_buckets);
    for (size_t bucket = 0; bucket < num_buckets; ++bucket) {
      uint32_t* slot = band.key_to_bucket.FindOrInsert(
          src.bucket_keys[bucket], static_cast<uint32_t>(bucket));
      if (*slot != bucket) {
        return invalid(b, "contains duplicate bucket keys");
      }
    }
  }
  index.signature_width_ = expected_offset;
  const bool uniform =
      std::all_of(raw.bands.begin(), raw.bands.end(), [&](const RawBand& rb) {
        return rb.rows == raw.bands[0].rows;
      });
  index.params_ = {static_cast<uint32_t>(raw.bands.size()),
                   uniform ? raw.bands[0].rows : 0};
  return index;
}

BandedIndex::Stats BandedIndex::ComputeStats() const {
  Stats stats;
  uint64_t total_entries = 0;
  for (const Band& band : bands_) {
    const size_t buckets = band.bucket_offsets.size() - 1;
    stats.total_buckets += buckets;
    total_entries += band.bucket_items.size();
    for (size_t bucket = 0; bucket < buckets; ++bucket) {
      const uint64_t size =
          band.bucket_offsets[bucket + 1] - band.bucket_offsets[bucket];
      stats.largest_bucket = std::max(stats.largest_bucket, size);
    }
  }
  stats.mean_bucket_size =
      stats.total_buckets == 0
          ? 0.0
          : static_cast<double>(total_entries) /
                static_cast<double>(stats.total_buckets);
  return stats;
}

uint64_t BucketClusterTable::num_entries() const {
  uint64_t entries = 0;
  for (const Band& band : bands_) entries += band.offsets.back();
  return entries;
}

uint64_t BucketClusterTable::MemoryUsageBytes() const {
  uint64_t bytes = sizeof(*this);
  for (const Band& band : bands_) {
    bytes += (band.offsets.capacity() + band.clusters.capacity() +
              band.stamp.capacity()) *
             sizeof(uint32_t);
  }
  return bytes;
}

uint64_t BandedIndex::MemoryUsageBytes() const {
  uint64_t bytes = sizeof(*this);
  for (const Band& band : bands_) {
    bytes += band.key_to_bucket.capacity() *
             (sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint8_t));
    bytes += band.bucket_offsets.size() * sizeof(uint32_t);
    bytes += band.bucket_items.size() * sizeof(uint32_t);
    bytes += band.item_bucket.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace lshclust
