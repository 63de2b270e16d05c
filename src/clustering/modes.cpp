#include "clustering/modes.h"

#include <algorithm>
#include <vector>

namespace lshclust {

ModeTable::ModeTable(uint32_t num_clusters, uint32_t num_attributes)
    : num_clusters_(num_clusters),
      num_attributes_(num_attributes),
      stride_(simd::ScanStride(num_clusters)) {
  LSHC_CHECK_GE(num_clusters, 1u) << "need at least one cluster";
  LSHC_CHECK_GE(num_attributes, 1u) << "need at least one attribute";
  codes_.resize(static_cast<size_t>(num_clusters) * num_attributes, 0);
  codes_t_.resize(static_cast<size_t>(num_attributes) * stride_, 0);
  sizes_.resize(num_clusters, 0);
}

void ModeTable::SetModeFromItem(uint32_t cluster,
                                const CategoricalDataset& dataset,
                                uint32_t item) {
  LSHC_CHECK_LT(cluster, num_clusters_);
  LSHC_CHECK_EQ(dataset.num_attributes(), num_attributes_);
  const auto row = dataset.Row(item);
  for (uint32_t attribute = 0; attribute < num_attributes_; ++attribute) {
    SetModeCode(cluster, attribute, row[attribute]);
  }
}

void ModeTable::RecomputeFromAssignment(const CategoricalDataset& dataset,
                                        std::span<const uint32_t> assignment,
                                        EmptyClusterPolicy policy, Rng& rng) {
  const uint32_t n = dataset.num_items();
  const uint32_t m = num_attributes_;
  const uint32_t k = num_clusters_;
  LSHC_CHECK_EQ(assignment.size(), static_cast<size_t>(n))
      << "assignment must map every item";
  LSHC_CHECK_EQ(dataset.num_attributes(), m);

  std::fill(sizes_.begin(), sizes_.end(), 0);
  for (const uint32_t cluster : assignment) {
    LSHC_DCHECK(cluster < k) << "assignment out of range";
    ++sizes_[cluster];
  }

  // Counting sort of the items by cluster. offsets[c + 1] starts as
  // cluster c's start and serves as its fill cursor, so afterwards the
  // members of cluster c are members[offsets[c] .. offsets[c + 1]), in
  // ascending id.
  std::vector<uint32_t> offsets(static_cast<size_t>(k) + 1, 0);
  uint32_t start = 0;
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    offsets[cluster + 1] = start;
    start += sizes_[cluster];
  }
  std::vector<uint32_t> members(n);
  for (uint32_t item = 0; item < n; ++item) {
    members[offsets[assignment[item] + 1]++] = item;
  }

  // One dense counter over the code space, zero between (cluster,
  // attribute) pairs: each pair counts its members' codes, then re-walks
  // them to clear exactly the entries it touched.
  std::vector<uint32_t> count(dataset.num_codes(), 0);
  const uint32_t* codes = dataset.codes().data();
  for (uint32_t cluster = 0; cluster < k; ++cluster) {
    const uint32_t* begin = members.data() + offsets[cluster];
    const uint32_t* end = members.data() + offsets[cluster + 1];
    if (begin == end) continue;  // empty: handled by `policy` below
    for (uint32_t attribute = 0; attribute < m; ++attribute) {
      // Running argmax, ties to the smallest code. A code's final count is
      // reached at its last increment, so the smallest code with the
      // maximal count is the best when the walk ends.
      uint32_t best_count = 0;
      uint32_t best_code = 0;
      for (const uint32_t* it = begin; it != end; ++it) {
        const uint32_t code = codes[static_cast<size_t>(*it) * m + attribute];
        const uint32_t seen = ++count[code];
        if (seen > best_count || (seen == best_count && code < best_code)) {
          best_count = seen;
          best_code = code;
        }
      }
      SetModeCode(cluster, attribute, best_code);
      for (const uint32_t* it = begin; it != end; ++it) {
        count[codes[static_cast<size_t>(*it) * m + attribute]] = 0;
      }
    }
  }

  if (policy == EmptyClusterPolicy::kReseedRandomItem && n > 0) {
    for (uint32_t cluster = 0; cluster < num_clusters_; ++cluster) {
      if (sizes_[cluster] == 0) {
        const uint32_t item = static_cast<uint32_t>(rng.Below(n));
        SetModeFromItem(cluster, dataset, item);
      }
    }
  }
}

}  // namespace lshclust
