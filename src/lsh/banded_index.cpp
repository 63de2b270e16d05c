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

  // Reserve every array here, on the calling thread, so where the index
  // lands in the heap does not depend on the pool. Reserving writes
  // nothing: each band's worker sizes (and zeroes) its arrays within that
  // storage, so the first-touch page faults are taken in parallel, and
  // workers never allocate, except when one resizes its band's map at the
  // end. A band is first bucketed with a map and offsets for
  // kCoarseBandKeys keys, which a band of a few wide buckets never
  // outgrows (SimHash's coarse bands hold 16); a band with more keys
  // stops and is bucketed again below, with room for n.
  const uint32_t coarse_keys = std::min(num_items, kCoarseBandKeys);
  for (Band& band : bands_) {
    band.key_to_bucket.ReserveStorage(coarse_keys);
    band.item_bucket.reserve(num_items);
    band.bucket_items.reserve(num_items);
    band.bucket_offsets.reserve(static_cast<size_t>(coarse_keys) + 1);
  }

  // Buckets band `b` if it has at most `max_keys` keys; otherwise returns
  // false before writing past its reserved storage.
  const auto build_band = [&](uint32_t b, uint32_t max_keys) {
    Band& band = bands_[b];
    band.key_to_bucket.Reserve(max_keys);
    band.item_bucket.resize(num_items);
    band.bucket_offsets.assign(static_cast<size_t>(max_keys) + 1, 0);
    [[maybe_unused]] const size_t reserved = band.key_to_bucket.capacity();
    uint32_t* offsets = band.bucket_offsets.data();

    // Pass 1: dense bucket ids in first-occurrence order; offsets[id + 1]
    // counts the bucket's items. A full map only answers for known keys.
    uint32_t num_buckets = 0;
    for (uint32_t item = 0; item < num_items; ++item) {
      const uint64_t key =
          BandKey(signatures.data() + static_cast<size_t>(item) * width, b);
      uint32_t bucket;
      if (num_buckets < max_keys) {
        bucket = *band.key_to_bucket.FindOrInsert(key, num_buckets);
        if (bucket == num_buckets) ++num_buckets;
      } else {
        const uint32_t* found = band.key_to_bucket.Find(key);
        if (found == nullptr) return false;
        bucket = *found;
      }
      band.item_bucket[item] = bucket;
      ++offsets[bucket + 1];
    }

    // Pass 2: the counting-sort fill.
    band.bucket_items.resize(num_items);
    FillBuckets(num_buckets, band);
    LSHC_DCHECK(band.key_to_bucket.capacity() == reserved)
        << "a band worker grew its hash map";

    // Either round leaves the map the size n keys' slots would shrink to:
    // fitted to its keys, unless they fill more than a quarter of those
    // slots. Such a map keeps them, since a fuller one lengthens the
    // probe chains of routed lookups and a smaller one saves little.
    if (FlatHashMap64::CapacityFor(num_buckets) * 4 <=
        FlatHashMap64::CapacityFor(num_items)) {
      band.key_to_bucket.ShrinkToFit();
    } else {
      band.key_to_bucket.Reserve(num_items);
    }
    return true;
  };
  const auto build_bands = [&](std::span<const uint32_t> bands,
                               uint32_t max_keys, uint8_t* built) {
    const auto run = [&](uint32_t begin, uint32_t end, uint32_t) {
      for (uint32_t i = begin; i < end; ++i) {
        built[i] = build_band(bands[i], max_keys) ? 1 : 0;
      }
    };
    const auto count = static_cast<uint32_t>(bands.size());
    if (pool == nullptr) {
      run(0, count, 0);
    } else {
      pool->ParallelFor(0, count, 1, run);
    }
  };
  std::vector<uint32_t> all_bands(num_bands());
  std::vector<uint8_t> built(num_bands());
  for (uint32_t b = 0; b < num_bands(); ++b) all_bands[b] = b;
  build_bands(all_bands, coarse_keys, built.data());

  // The bands that stopped: a fresh map and offsets with room for n keys.
  std::vector<uint32_t> fine;
  for (uint32_t b = 0; b < num_bands(); ++b) {
    if (built[b] != 0) continue;
    fine.push_back(b);
    Band& band = bands_[b];
    band.key_to_bucket = FlatHashMap64();
    band.key_to_bucket.ReserveStorage(num_items);
    band.bucket_offsets.reserve(static_cast<size_t>(num_items) + 1);
  }
  build_bands(fine, num_items, built.data());

  // Every key is one bucket, so the map's size is the band's bucket count.
  for (Band& band : bands_) {
    band.bucket_offsets.resize(band.key_to_bucket.size() + 1);
    band.bucket_offsets.shrink_to_fit();
  }
}

void BandedIndex::FillClusterMasks(std::span<const uint32_t> assignment,
                                   uint32_t num_clusters,
                                   BucketClusterMasks* masks,
                                   ThreadPool* pool) const {
  LSHC_CHECK_EQ(assignment.size(), static_cast<size_t>(num_items_))
      << "assignment does not cover the indexed items";
  LSHC_CHECK_GE(num_clusters, 1u) << "need at least one cluster";

  // Size every array here, on the calling thread: workers below only write
  // into storage that already exists.
  const uint32_t words = (num_clusters + 63) / 64;
  masks->words_ = words;
  masks->bands_.resize(bands_.size());
  for (size_t b = 0; b < bands_.size(); ++b) {
    masks->bands_[b].resize((bands_[b].bucket_offsets.size() - 1) * words);
  }

  const auto fill_band = [&](uint32_t b) {
    std::vector<uint64_t>& rows = masks->bands_[b];
    std::fill(rows.begin(), rows.end(), uint64_t{0});
    const uint32_t* item_bucket = bands_[b].item_bucket.data();
    for (uint32_t item = 0; item < num_items_; ++item) {
      const uint32_t cluster = assignment[item];
      LSHC_DCHECK(cluster < num_clusters) << "cluster id out of range";
      rows[static_cast<size_t>(item_bucket[item]) * words + cluster / 64] |=
          uint64_t{1} << (cluster % 64);
    }
  };
  if (pool == nullptr) {
    for (uint32_t b = 0; b < num_bands(); ++b) fill_band(b);
  } else {
    pool->ParallelFor(0, num_bands(), 1,
                      [&](uint32_t begin, uint32_t end, uint32_t) {
                        for (uint32_t b = begin; b < end; ++b) fill_band(b);
                      });
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

uint64_t BucketClusterMasks::MemoryUsageBytes() const {
  uint64_t bytes = sizeof(*this);
  for (const std::vector<uint64_t>& rows : bands_) {
    bytes += rows.capacity() * sizeof(uint64_t);
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
