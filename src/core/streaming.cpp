#include "core/streaming.h"

#include <algorithm>

#include "clustering/dissimilarity.h"
#include "clustering/engine.h"
#include "shard/shard_executor.h"
#include "shard/shard_plan.h"
#include "util/macros.h"

namespace lshclust {

namespace {
/// skip_item value meaning "skip nothing" (no real item has this id).
constexpr uint32_t kSkipNone = ~0u;
}  // namespace

Status ValidateStreamingMHKModesOptions(
    const StreamingMHKModesOptions& options) {
  LSHC_RETURN_NOT_OK(ValidateEngineOptions(options.bootstrap.engine));
  LSHC_RETURN_NOT_OK(
      MinHashShortlistFamily::ValidateOptions(options.bootstrap.index));
  if (options.ingest_shards == 0) {
    return Status::InvalidArgument("ingest_shards must be >= 1");
  }
  if (options.ingest_chunk_size == 0) {
    return Status::InvalidArgument("ingest_chunk_size must be >= 1");
  }
  return Status::OK();
}

Result<StreamingMHKModes> StreamingMHKModes::Bootstrap(
    const CategoricalDataset& warmup,
    const StreamingMHKModesOptions& options) {
  const uint32_t k = options.bootstrap.engine.num_clusters;
  const uint32_t m = warmup.num_attributes();
  LSHC_RETURN_NOT_OK(ValidateStreamingMHKModesOptions(options));

  StreamingMHKModes stream;
  stream.options_ = options;
  stream.num_clusters_ = k;
  stream.num_attributes_ = m;

  // 1. Batch warm-up clustering, forcing the provider to keep its
  //    signature matrix, and 2. bulk-load it into the growable index —
  //    the warm-up items are signed exactly once, by the batch provider
  //    (in parallel when engine.num_threads says so), and the streaming
  //    index inherits those very signatures, so its buckets cannot
  //    diverge from the batch index's.
  {
    ShortlistIndexOptions index_options = options.bootstrap.index;
    index_options.keep_signatures = true;
    ClusterShortlistProvider provider(index_options, k);
    LSHC_ASSIGN_OR_RETURN(
        stream.bootstrap_result_,
        RunEngine(warmup, options.bootstrap.engine, provider));
    if (stream.bootstrap_result_.cancelled) {
      // A cancelled warm-up run is not a clustering to stream on top of
      // (it may not even have built the index); surface it instead of
      // bootstrapping a session from partial state.
      return Status::Cancelled(
          "streaming bootstrap cancelled by the engine's cancellation "
          "hook before the warm-up clustering completed");
    }
    stream.assignment_ = stream.bootstrap_result_.assignment;
    stream.index_ = std::make_unique<DynamicBandedIndex>(
        options.bootstrap.index.banding, warmup.num_items());
    stream.index_->InsertBatch(provider.signatures(), warmup.num_items());
  }

  // 3. Stream-time signature machinery: the same family type the provider
  //    used, constructed from the same options, hashes identically.
  stream.family_ =
      std::make_unique<MinHashShortlistFamily>(options.bootstrap.index);
  stream.signature_.resize(stream.family_->signature_width());

  // 4. Presence semantics for stream-time token filtering.
  if (warmup.has_absence_semantics()) {
    stream.absent_codes_.resize(warmup.num_codes());
    for (uint32_t code = 0; code < warmup.num_codes(); ++code) {
      stream.absent_codes_[code] = !warmup.IsPresent(code);
    }
  }

  // 5. Modes + incremental majority state.
  stream.modes_ = std::make_unique<ModeTable>(k, m);
  Rng rng(options.bootstrap.engine.seed);
  stream.modes_->RecomputeFromAssignment(
      warmup, stream.assignment_,
      options.bootstrap.engine.empty_cluster_policy, rng);

  stream.attribute_counts_.resize(m);
  stream.best_counts_.assign(static_cast<size_t>(k) * m, 0);
  const uint32_t* codes = warmup.codes().data();
  for (uint32_t attribute = 0; attribute < m; ++attribute) {
    FlatHashMap64& counts = stream.attribute_counts_[attribute];
    counts.Reserve(warmup.num_items());
    for (uint32_t item = 0; item < warmup.num_items(); ++item) {
      const uint32_t code = codes[static_cast<size_t>(item) * m + attribute];
      const uint64_t key =
          (static_cast<uint64_t>(stream.assignment_[item]) << 32) | code;
      ++*counts.FindOrInsert(key, 0);
    }
    // Seed the running maxima with the bootstrap modes' counts.
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      const uint32_t mode_code = stream.modes_->Mode(cluster)[attribute];
      const uint64_t key = (static_cast<uint64_t>(cluster) << 32) | mode_code;
      const uint32_t* count = counts.Find(key);
      stream.best_counts_[static_cast<size_t>(cluster) * m + attribute] =
          count == nullptr ? 0 : *count;
    }
  }

  stream.dedup_ = MakeClusterDedupScratch(k);
  stream.mode_dirty_ = MakeClusterDedupScratch(k);
  return stream;
}

void StreamingMHKModes::SignRow(std::span<const uint32_t> row,
                                std::vector<uint32_t>& tokens,
                                uint64_t* signature) const {
  // Presence filtering (Alg. 2 lines 2-4); codes beyond the warm-up
  // bitmap are new values, necessarily "present".
  tokens.clear();
  for (const uint32_t code : row) {
    if (code < absent_codes_.size() && absent_codes_[code]) continue;
    tokens.push_back(code);
  }
  family_->ComputeQuerySignature(tokens, signature);
}

void StreamingMHKModes::ShortlistSignature(
    std::span<const uint64_t> signature, uint32_t skip_item,
    ClusterDedupScratch& dedup, std::vector<uint32_t>* shortlist) const {
  shortlist->clear();
  BumpDedupEpoch(dedup);
  index_->VisitCandidatesOfSignature(signature, [&](uint32_t other) {
    // Skipping the item's own (already inserted, newest-first) entries
    // reproduces the pre-insert walk exactly.
    if (other == skip_item) return;
    const uint32_t cluster = assignment_[other];
    if (dedup.cluster_stamp[cluster] == dedup.epoch) return;
    dedup.cluster_stamp[cluster] = dedup.epoch;
    shortlist->push_back(cluster);
  });
}

uint32_t StreamingMHKModes::ScoreRow(
    std::span<const uint32_t> row,
    std::span<const uint32_t> shortlist) const {
  uint32_t best_cluster = 0;
  uint32_t best_distance = ~0u;
  if (shortlist.empty()) {
    // No similar predecessor anywhere: exhaustive scan (rare).
    for (uint32_t cluster = 0; cluster < num_clusters_; ++cluster) {
      const uint32_t distance = BoundedMismatchDistance(
          row.data(), modes_->ModeData(cluster), num_attributes_,
          best_distance);
      if (distance < best_distance) {
        best_distance = distance;
        best_cluster = cluster;
      }
    }
  } else {
    for (const uint32_t cluster : shortlist) {
      const uint32_t distance = BoundedMismatchDistance(
          row.data(), modes_->ModeData(cluster), num_attributes_,
          best_distance);
      if (distance < best_distance) {
        best_distance = distance;
        best_cluster = cluster;
      }
    }
  }
  return best_cluster;
}

void StreamingMHKModes::CommitAssignment(std::span<const uint32_t> row,
                                         uint32_t cluster,
                                         int64_t shortlist_size) {
  assignment_.push_back(cluster);
  ++stats_.ingested;
  if (shortlist_size < 0) {
    ++stats_.exhaustive_fallbacks;
    stats_.exact_distances_evaluated += num_clusters_;
  } else {
    stats_.shortlist_total += static_cast<uint64_t>(shortlist_size);
    stats_.exact_distances_evaluated +=
        static_cast<uint64_t>(shortlist_size);
  }
  if (options_.update_modes) {
    UpdateModeWithItem(cluster, row);
  }
}

void StreamingMHKModes::UpdateModeWithItem(uint32_t cluster,
                                           std::span<const uint32_t> row) {
  const uint32_t m = num_attributes_;
  for (uint32_t attribute = 0; attribute < m; ++attribute) {
    const uint64_t key =
        (static_cast<uint64_t>(cluster) << 32) | row[attribute];
    const uint32_t count =
        ++*attribute_counts_[attribute].FindOrInsert(key, 0);
    uint32_t& best = best_counts_[static_cast<size_t>(cluster) * m +
                                  attribute];
    // Increment-only majority: the mode component changes exactly when a
    // count strictly overtakes the current maximum.
    if (count > best) {
      best = count;
      modes_->SetModeCode(cluster, attribute, row[attribute]);
      // Record the change for IngestBatch validation: provisional results
      // that scored this cluster against pre-change modes are stale.
      if (mode_dirty_.cluster_stamp[cluster] != mode_dirty_.epoch) {
        mode_dirty_.cluster_stamp[cluster] = mode_dirty_.epoch;
        ++dirty_clusters_;
      }
    }
  }
}

Result<uint32_t> StreamingMHKModes::Ingest(std::span<const uint32_t> row) {
  if (row.size() != num_attributes_) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " codes, expected " +
        std::to_string(num_attributes_));
  }

  SignRow(row, tokens_, signature_.data());
  ShortlistSignature(signature_, kSkipNone, dedup_, &shortlist_);
  const uint32_t best = ScoreRow(row, shortlist_);
  index_->Insert(signature_);
  CommitAssignment(row, best,
                   shortlist_.empty()
                       ? -1
                       : static_cast<int64_t>(shortlist_.size()));
  return best;
}

Result<std::span<const uint32_t>> StreamingMHKModes::IngestBatch(
    std::span<const uint32_t> rows) {
  const uint32_t m = num_attributes_;
  if (m == 0 || rows.size() % m != 0) {
    return Status::InvalidArgument(
        "rows has " + std::to_string(rows.size()) +
        " codes, expected a multiple of " + std::to_string(m));
  }
  const uint32_t count = static_cast<uint32_t>(rows.size() / m);
  const size_t first_new = assignment_.size();
  if (count == 0) {
    return std::span<const uint32_t>();
  }

  const uint32_t width = family_->signature_width();
  const uint32_t num_threads = ResolveThreadCount(options_.ingest_threads);
  if (num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }
  const uint32_t workers = pool_ == nullptr ? 1 : pool_->num_threads();

  // The two-level (shard -> chunk) decomposition of this micro-batch:
  // `ingest_shards` contiguous arrival-order slices, each cut into
  // `ingest_chunk_size`-item chunks. Every (shard, worker) pair owns one
  // scratch slot, so a shard's queries never touch pool-global state.
  // Clamped() caps the shard count at the batch's flat chunk count, so
  // slot state stays proportional to actual work units.
  const ShardPlan plan = ShardPlan::Clamped(count, options_.ingest_shards,
                                            options_.ingest_chunk_size);
  const uint32_t slots = plan.num_shards() * workers;

  batch_.signatures.resize(static_cast<size_t>(count) * width);
  batch_.cluster.resize(count);
  batch_.refs.resize(count);
  if (batch_.worker_shortlists.size() < slots) {
    batch_.worker_shortlists.resize(slots);
    batch_.worker_tokens.resize(slots);
    batch_.worker_current.resize(slots);
    // Default-constructed scratches; the stamp arrays are materialised
    // lazily by the first chunk that runs on each slot.
    batch_.worker_dedup.resize(slots);
  }
  for (auto& buffer : batch_.worker_shortlists) buffer.clear();

  // --- Parallel phase: sign + provisionally shortlist and assign every
  // item against the index and modes frozen at batch start. The shard and
  // chunk boundaries are a pure function of the batch size and the
  // options, and each item touches only its own outputs, so the phase is
  // bit-identical for every (shard x worker) combination.
  const uint32_t frozen_items = index_->num_items();
  const auto chunk_fn = [&](uint32_t begin, uint32_t end, uint32_t slot) {
    std::vector<uint32_t>& tokens = batch_.worker_tokens[slot];
    ClusterDedupScratch& dedup = batch_.worker_dedup[slot];
    // Lazy stamp materialisation is race-free: a slot encodes its worker,
    // so it is only ever touched from that worker's thread (k >= 1, so
    // empty means never initialised).
    if (dedup.cluster_stamp.empty()) {
      dedup = MakeClusterDedupScratch(num_clusters_);
    }
    std::vector<uint32_t>& current = batch_.worker_current[slot];
    std::vector<uint32_t>& out = batch_.worker_shortlists[slot];
    for (uint32_t i = begin; i < end; ++i) {
      const std::span<const uint32_t> row =
          rows.subspan(static_cast<size_t>(i) * m, m);
      uint64_t* signature =
          batch_.signatures.data() + static_cast<size_t>(i) * width;
      SignRow(row, tokens, signature);

      // The same walk the sequential path runs (shared code keeps the
      // provisional and apply phases bit-aligned by construction); the
      // result is stashed in the slot's buffer for the apply phase.
      ShortlistSignature(std::span<const uint64_t>(signature, width),
                         kSkipNone, dedup, &current);
      const uint32_t offset = static_cast<uint32_t>(out.size());
      out.insert(out.end(), current.begin(), current.end());
      batch_.refs[i] = {slot, offset,
                        static_cast<uint32_t>(current.size())};
      batch_.cluster[i] = ScoreRow(row, current);
    }
  };
  ForEachShardChunk(plan, pool_.get(),
                    [&](const ShardPlan::Chunk& chunk, uint32_t,
                        uint32_t worker) {
                      chunk_fn(chunk.begin, chunk.end,
                               chunk.shard * workers + worker);
                    });

  // --- Sequential apply phase, in arrival order. Three cases, from cheap
  // to expensive, each reproducing exactly what a sequential Ingest of
  // this item would have computed:
  //
  //  * No in-batch predecessor in the item's buckets and no mode change
  //    (so far this batch) on any cluster the provisional decision
  //    compared: the frozen-state computation saw exactly the sequential
  //    state — accept it verbatim.
  //  * No in-batch predecessor but stale modes: the shortlist is still
  //    provably the sequential one (shortlists read the index, never the
  //    modes — and an empty one provably stays empty), so re-scoring the
  //    stored shortlist against the live modes is the sequential
  //    computation, with no index re-walk.
  //  * An in-batch predecessor shares a bucket: the sequential shortlist
  //    itself differs — re-walk the live index and re-score.
  BumpDedupEpoch(mode_dirty_);
  dirty_clusters_ = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const std::span<const uint32_t> row =
        rows.subspan(static_cast<size_t>(i) * m, m);
    const std::span<const uint64_t> signature(
        batch_.signatures.data() + static_cast<size_t>(i) * width, width);
    bool collided = false;
    const uint32_t id =
        index_->InsertDetectingRecent(signature, frozen_items, &collided);
    const BatchScratch::ShortlistRef ref = batch_.refs[i];
    if (collided) {
      ++stats_.revalidated;
      ++stats_.rewalked;
      ShortlistSignature(signature, /*skip_item=*/id, dedup_, &shortlist_);
      const uint32_t best = ScoreRow(row, shortlist_);
      CommitAssignment(row, best,
                       shortlist_.empty()
                           ? -1
                           : static_cast<int64_t>(shortlist_.size()));
      continue;
    }
    const std::span<const uint32_t> provisional(
        batch_.worker_shortlists[ref.slot].data() + ref.offset,
        ref.length);
    bool scores_stale = false;
    if (ref.length == 0) {
      // Provisional exhaustive fallback compared every cluster.
      scores_stale = dirty_clusters_ != 0;
    } else {
      for (const uint32_t cluster : provisional) {
        if (mode_dirty_.cluster_stamp[cluster] == mode_dirty_.epoch) {
          scores_stale = true;
          break;
        }
      }
    }
    uint32_t best = batch_.cluster[i];
    if (scores_stale) {
      ++stats_.revalidated;
      best = ScoreRow(row, provisional);
    }
    CommitAssignment(row, best,
                     ref.length == 0 ? -1 : static_cast<int64_t>(ref.length));
  }

  return std::span<const uint32_t>(assignment_).subspan(first_new, count);
}

}  // namespace lshclust
