#pragma once

/// \file streaming.h
/// \brief Streaming MH-K-Modes — the paper's §VI future work: an online
/// clustering front end built from the same pieces as the batch algorithm.
///
/// Lifecycle:
///  1. Bootstrap: run batch MH-K-Modes over a warm-up dataset; bulk-load
///     the signatures that clustering pass already computed into a
///     growable (dynamic) banding index; build incremental per-cluster
///     attribute frequency tables.
///  2. Ingest(row): presence-filter, sign, shortlist through the index
///     (falling back to an exhaustive mode scan when the shortlist is
///     empty — possible for items with no similar predecessor), assign to
///     the nearest mode, insert into the index, and update the assigned
///     cluster's mode incrementally (increment-only majority tracking is
///     exact: a mode component changes only when some count overtakes the
///     current maximum).
///  3. IngestBatch(rows): the same semantics over a micro-batch of
///     arrivals, with the expensive per-item work (presence filtering,
///     signing, provisional shortlisting) fanned out across a worker pool.
///
/// Every ingested item immediately becomes retrievable: later arrivals
/// shortlist against it exactly like against warm-up items.
///
/// ## Batch-parallel ingest
///
/// IngestBatch is bit-identical to calling Ingest on the same rows in the
/// same order, at every (shard count x thread count) combination, by a
/// speculate-then-validate scheme:
///
///  * Parallel phase: the micro-batch runs through the same two-level
///    (shard -> chunk) decomposition as the engine's assignment step
///    (src/shard/shard_plan.h): `ingest_shards` contiguous arrival-order
///    slices, each cut into `ingest_chunk_size`-item chunks (one chunk =
///    one ParallelFor unit; ClusterDedupScratch and token buffers are
///    owned per (shard, worker), never pool-global). Each item is
///    filtered, signed, shortlisted against the index *frozen at batch
///    start*, and provisionally assigned against the modes frozen at
///    batch start. Signing is the dominant per-item cost, so this is
///    where the wall time goes.
///  * Sequential apply phase, in arrival order: each item's signature is
///    inserted into the index; the insert reports whether any bucket
///    already held an in-batch predecessor (exact, because bucket chains
///    are newest-first). A provisional result is accepted verbatim iff no
///    such predecessor exists and no cluster the decision depended on had
///    a mode component change earlier in the batch — in that case the
///    frozen-state computation saw exactly the state a sequential Ingest
///    would have seen, so the outcome (and its stats) is bit-identical.
///    When only the modes went stale, the shortlist is still provably the
///    sequential one (shortlists read the index, never the modes), so the
///    item is merely re-scored against the live modes; only a genuine
///    in-batch bucket collision forces a re-walk of the live index. Both
///    recomputations *are* the sequential computation
///    (Stats::revalidated / Stats::rewalked count them). Index inserts
///    and mode updates always apply in arrival order.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/mh_kmodes.h"
#include "core/shortlist_provider.h"
#include "lsh/dynamic_banded_index.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace lshclust {

/// \brief Options for StreamingMHKModes.
struct StreamingMHKModesOptions {
  /// Batch options for the warm-up clustering (engine + index). The
  /// engine's num_threads also parallelizes the warm-up signature pass.
  MHKModesOptions bootstrap;
  /// Maintain modes incrementally as items arrive. When false, modes stay
  /// frozen at their bootstrap values (cheaper; suits stable streams).
  bool update_modes = true;
  /// Worker threads for IngestBatch's parallel phase. 1 = run in-line on
  /// the calling thread (default); 0 = one per hardware thread. Any value
  /// produces bit-identical results.
  uint32_t ingest_threads = 1;
  /// Item-space shards of IngestBatch's parallel phase: each micro-batch
  /// is partitioned into this many contiguous arrival-order slices, each
  /// owning its own query scratch. Must be >= 1; any value produces
  /// bit-identical results (1 = the historical flat decomposition).
  /// Values above the batch's flat chunk count
  /// (ceil(batch / ingest_chunk_size)) are clamped to it — the excess
  /// shards could not own a whole work unit anyway.
  uint32_t ingest_shards = 1;
  /// Items per ParallelFor unit within a shard of the parallel phase.
  /// Must be >= 1; any value produces bit-identical results. Smaller than
  /// the engine's assignment chunk because signing an item costs far more
  /// than a distance.
  uint32_t ingest_chunk_size = 64;
};

/// Validates a full streaming configuration (bootstrap engine + index
/// options + ingest knobs) as a returned Status, reusing the engine and
/// family validators. Bootstrap re-checks it; the front door
/// (api/clusterer.h) reports it at session-creation time.
[[nodiscard]] Status ValidateStreamingMHKModesOptions(
    const StreamingMHKModesOptions& options);

/// \brief Online clusterer; construct via Bootstrap.
class StreamingMHKModes {
 public:
  /// Runs the batch warm-up and prepares the streaming state.
  static Result<StreamingMHKModes> Bootstrap(
      const CategoricalDataset& warmup,
      const StreamingMHKModesOptions& options);

  /// Assigns one arriving item (a row of `num_attributes` codes in the
  /// warm-up dataset's code space; codes never seen before are legal) and
  /// returns its cluster.
  Result<uint32_t> Ingest(std::span<const uint32_t> row);

  /// Assigns a micro-batch of arriving items — `rows` is row-major,
  /// rows.size() = batch_size x num_attributes() — through the
  /// batch-parallel pipeline described in the file comment. Returns a view
  /// of the new items' assignments, in arrival order (valid until the next
  /// ingest call). Bit-identical to ingesting the rows one by one, for
  /// every ingest_threads setting.
  Result<std::span<const uint32_t>> IngestBatch(
      std::span<const uint32_t> rows);

  /// Number of clusters k.
  uint32_t num_clusters() const { return num_clusters_; }
  /// Attributes per item m.
  uint32_t num_attributes() const { return num_attributes_; }

  /// Assignment of every item seen so far (warm-up items first, then
  /// ingested ones in arrival order).
  const std::vector<uint32_t>& assignment() const { return assignment_; }

  /// The current mode of `cluster`.
  std::span<const uint32_t> ModeOf(uint32_t cluster) const {
    return modes_->Mode(cluster);
  }

  /// \brief Ingest-side counters.
  struct Stats {
    /// Items ingested after bootstrap.
    uint64_t ingested = 0;
    /// Ingests whose shortlist was empty (exhaustive fallback taken; such
    /// ingests scan all k clusters and contribute nothing to
    /// shortlist_total).
    uint64_t exhaustive_fallbacks = 0;
    /// Shortlist sizes summed over the ingests that actually shortlisted —
    /// fallbacks excluded, so the mean shortlist is
    /// total / (ingested - exhaustive_fallbacks); see mean_shortlist().
    uint64_t shortlist_total = 0;
    /// IngestBatch items whose provisional (frozen-state) assignment had
    /// to be recomputed in the apply phase — because an in-batch
    /// predecessor shared a bucket or a relevant mode changed mid-batch.
    /// Purely diagnostic; identical across thread counts but not
    /// incremented by plain Ingest.
    uint64_t revalidated = 0;
    /// The subset of revalidated that re-walked the live index (an
    /// in-batch predecessor shared a bucket); the rest only re-scored
    /// their unchanged shortlist against the live modes.
    uint64_t rewalked = 0;
    /// Exact mismatch-distance evaluations across all ingests: the
    /// shortlist length per shortlisted ingest, k per exhaustive
    /// fallback. Revalidations re-score, so their evaluations count the
    /// final (sequential-equivalent) scoring pass only.
    uint64_t exact_distances_evaluated = 0;

    /// Mean shortlist length over the ingests that shortlisted (0 when
    /// every ingest fell back or nothing was ingested).
    double mean_shortlist() const {
      return ingested > exhaustive_fallbacks
                 ? static_cast<double>(shortlist_total) /
                       static_cast<double>(ingested - exhaustive_fallbacks)
                 : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

  /// The bootstrap clustering outcome (per-iteration instrumentation).
  const ClusteringResult& bootstrap_result() const {
    return bootstrap_result_;
  }

  /// Read-only views of the live state, used by StreamingSession::Snapshot
  /// to deep-copy a FrozenModel out of the engine between ingests. Never
  /// call these concurrently with Ingest/IngestBatch — the session layer
  /// snapshots between ingest calls, on the writer's thread.
  const MinHashShortlistFamily& family() const { return *family_; }
  const DynamicBandedIndex& live_index() const { return *index_; }
  const ModeTable& modes() const { return *modes_; }

  /// Test hook: forces the dedup epoch close to (or at) the wraparound so
  /// tests can exercise the stamp-reset path without 2^32 ingests.
  void set_dedup_epoch_for_testing(uint32_t epoch) {
    dedup_.epoch = epoch;
    mode_dirty_.epoch = epoch;
    for (auto& scratch : batch_.worker_dedup) scratch.epoch = epoch;
  }

  StreamingMHKModes(StreamingMHKModes&&) = default;
  StreamingMHKModes& operator=(StreamingMHKModes&&) = default;

 private:
  StreamingMHKModes() = default;

  /// Presence-filters `row` into `tokens` and signs it into `signature`
  /// (signature_width components). Pure; safe from worker threads.
  void SignRow(std::span<const uint32_t> row, std::vector<uint32_t>& tokens,
               uint64_t* signature) const;

  /// Best cluster among `shortlist` in order (or all k when empty) against
  /// the current modes, replicating Ingest's scoring loop exactly.
  uint32_t ScoreRow(std::span<const uint32_t> row,
                    std::span<const uint32_t> shortlist) const;

  /// Shortlists `signature` through the live index into `shortlist` using
  /// `dedup`, optionally skipping `skip_item` (the item itself when it was
  /// already inserted). The visit order matches a pre-insert walk exactly.
  void ShortlistSignature(std::span<const uint64_t> signature,
                          uint32_t skip_item, ClusterDedupScratch& dedup,
                          std::vector<uint32_t>* shortlist) const;

  /// Records `row`'s assignment: appends to assignment_, updates stats
  /// (`shortlist_size` < 0 means exhaustive fallback) and, when enabled,
  /// the assigned cluster's mode.
  void CommitAssignment(std::span<const uint32_t> row, uint32_t cluster,
                        int64_t shortlist_size);

  void UpdateModeWithItem(uint32_t cluster, std::span<const uint32_t> row);

  StreamingMHKModesOptions options_;
  uint32_t num_clusters_ = 0;
  uint32_t num_attributes_ = 0;

  // Signature machinery (the same family type the bootstrap provider
  // used, constructed from the same options, so stream-time signatures
  // land in the warm-up buckets).
  std::unique_ptr<MinHashShortlistFamily> family_;
  std::unique_ptr<DynamicBandedIndex> index_;

  // Presence semantics copied from the warm-up dataset; codes beyond the
  // bitmap (values first seen in the stream) are treated as present.
  std::vector<bool> absent_codes_;

  // Cluster state.
  std::unique_ptr<ModeTable> modes_;
  std::vector<uint32_t> assignment_;

  // Incremental majority tracking: per attribute a (cluster, code) -> count
  // table plus the running best count per (cluster, attribute).
  std::vector<FlatHashMap64> attribute_counts_;  // size m
  std::vector<uint32_t> best_counts_;            // k x m

  // Query scratch (sequential paths + the batch apply phase).
  ClusterDedupScratch dedup_;
  std::vector<uint64_t> signature_;
  std::vector<uint32_t> tokens_;
  std::vector<uint32_t> shortlist_;

  // Mode-change tracking for IngestBatch validation: epoch bumped per
  // batch; a cluster is stamped when one of its mode components changes
  // during the apply phase. dirty_clusters_ counts stamped clusters.
  ClusterDedupScratch mode_dirty_;
  uint32_t dirty_clusters_ = 0;

  // IngestBatch scratch, reused across batches so steady-state ingest
  // does not allocate.
  struct BatchScratch {
    /// Packed batch_size x signature_width signatures.
    std::vector<uint64_t> signatures;
    /// Provisional cluster per item (frozen-state decision).
    std::vector<uint32_t> cluster;
    /// Provisional shortlist per item: a slice of one (shard, worker)
    /// slot's buffer. The apply phase keys the "empty -> exhaustive
    /// fallback" case off length == 0 alone; slot/offset always name the
    /// producing slot's buffer position, even for empty shortlists.
    struct ShortlistRef {
      uint32_t slot = 0;
      uint32_t offset = 0;
      uint32_t length = 0;
    };
    std::vector<ShortlistRef> refs;
    /// Per-(shard, worker) state for the parallel phase, indexed by
    /// slot = shard * workers + worker — shard-local, so a shard's
    /// queries never touch pool-global scratch. Dedup stamp arrays are
    /// materialised lazily, on the worker that first uses a slot, so
    /// degenerate shard counts don't pay k stamps per idle slot.
    std::vector<std::vector<uint32_t>> worker_shortlists;
    std::vector<std::vector<uint32_t>> worker_tokens;
    std::vector<std::vector<uint32_t>> worker_current;  // one item's walk
    std::vector<ClusterDedupScratch> worker_dedup;
  };
  BatchScratch batch_;
  std::unique_ptr<ThreadPool> pool_;  // created on first parallel batch

  ClusteringResult bootstrap_result_;
  Stats stats_;
};

}  // namespace lshclust
