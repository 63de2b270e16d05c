#pragma once

/// \file clusterer.h
/// \brief The front door of lshclust: a type-erased `Clusterer` built from
/// a runtime `ClustererSpec`, serving every (modality x accelerator)
/// combination the library implements through one Fit / Stream / Predict
/// lifecycle.
///
/// The paper's point is that one shortlist idea — LSH bucketing of
/// centroids — accelerates *all three* centroid algorithms (K-Modes,
/// K-Means, K-Prototypes). The engine layer (clustering/engine.h) unifies
/// their internals; this header unifies their *surface*: callers pick a
/// data modality and an accelerator at runtime instead of picking one of
/// five per-algorithm entry points at compile time (the same consolidation
/// FALCONN makes with `LSHNearestNeighborTable`).
///
/// \code
///   ClustererSpec spec;
///   spec.modality = Modality::kCategorical;
///   spec.accelerator = Accelerator::kMinHash;
///   spec.engine.num_clusters = 2000;
///   spec.minhash.banding = {20, 5};               // "20b 5r"
///   LSHC_ASSIGN_OR_RETURN(Clusterer clusterer, Clusterer::Create(spec));
///   LSHC_ASSIGN_OR_RETURN(FitReport report, clusterer.Fit(dataset));
///   // report.result.assignment, report.result.iterations, ...
///   LSHC_ASSIGN_OR_RETURN(std::vector<uint32_t> routed,
///                         clusterer.Predict(arrivals));
/// \endcode
///
/// Design contracts:
///  * **Validation up front.** `Clusterer::Create` validates everything
///    the chosen (modality, accelerator) cell will read — the pair's
///    compatibility, the shared engine knobs, and the selected
///    accelerator's option block (unused blocks are ignored by design, so
///    specs can be built incrementally; see ClustererSpec) — and returns
///    `Status` errors with actionable messages instead of aborting (the
///    per-algorithm constructors used to `LSHC_CHECK`; those checks
///    remain as debug backstops).
///  * **Bit-identity with the legacy entry points.** `Fit` dispatches to
///    exactly the engine instantiation the corresponding legacy entry
///    point (core/mh_kmodes.h etc.) used, with the same option structs, so
///    assignments, centroids and per-iteration costs are bit-identical
///    (tests/api_test.cpp proves every cell).
///  * **Progress / cancellation.** `spec.engine.progress` is invoked after
///    every refinement iteration; `spec.engine.cancel` is polled between
///    iterations and at shard-chunk boundaries. A cancelled run returns a
///    *partial* FitReport whose `status` carries StatusCode::kCancelled:
///    the state after the last completed iteration, never a half-applied
///    pass.
///  * **Type erasure at the boundary only.** Internally an
///    `EngineDispatcher` instantiates the right
///    `ClusteringEngine<Traits, Provider>` specialization behind a small
///    virtual interface; the hot loops stay fully templated, so the
///    facade's dispatch cost is one virtual call per Fit/Predict
///    (bench/engine_threads.cpp records the overhead as
///    `facade_overhead`).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/index_handle.h"
#include "clustering/canopy.h"
#include "clustering/engine.h"
#include "clustering/kmeans.h"
#include "clustering/kprototypes.h"
#include "core/canopy_shortlist_index.h"
#include "core/cluster_shortlist_index.h"
#include "core/mixed_shortlist_index.h"
#include "core/simhash_shortlist_index.h"
#include "core/streaming.h"
#include "data/categorical_dataset.h"
#include "data/mixed_dataset.h"
#include "lsh/banded_index.h"
#include "serving/model_server.h"
#include "util/result.h"

namespace lshclust {

/// \brief The shape of the data a Clusterer consumes. Determines the
/// algorithm family: K-Modes for categorical (and text-binarized) items,
/// K-Means for numeric items, K-Prototypes for mixed items.
enum class Modality : uint8_t {
  /// Items are vectors of category codes (CategoricalDataset).
  kCategorical,
  /// Items are dense real vectors (NumericDataset).
  kNumeric,
  /// Items carry both categorical codes and numeric values (MixedDataset).
  kMixed,
  /// Binary word-presence items produced by the text pipeline
  /// (text/binarizer.h) — categorical-shaped (Fit takes the binarized
  /// CategoricalDataset), named separately because the sparse/absence
  /// semantics matter for accelerator choice.
  kTextBinarized,
};

/// \brief The candidate-generation strategy of the assignment step.
enum class Accelerator : uint8_t {
  /// Every cluster is a candidate — the family's original algorithm.
  kExhaustive,
  /// MinHash cluster shortlists (the paper's MH-K-Modes); categorical and
  /// text-binarized data.
  kMinHash,
  /// SimHash cluster shortlists (LSH-K-Means); numeric data.
  kSimHash,
  /// Concatenated MinHash + SimHash signatures over a heterogeneous band
  /// layout (LSH-K-Prototypes); mixed data.
  kMixedConcat,
  /// Canopy-peer shortlists (the related-work baseline); categorical and
  /// text-binarized data.
  kCanopy,
};

/// Human-readable names ("categorical", "minhash", ...) for messages.
std::string_view ModalityToString(Modality modality);
std::string_view AcceleratorToString(Accelerator accelerator);

/// Parses the names ModalityToString / AcceleratorToString produce
/// ("mixed-concat" etc.); kInvalidArgument on anything else.
Result<Modality> ParseModality(std::string_view text);
Result<Accelerator> ParseAccelerator(std::string_view text);

/// \brief Everything a Clusterer needs to know, chosen at runtime. Only
/// the option block matching `accelerator` (and `gamma` for mixed data) is
/// read; the others are ignored, so a spec can be built incrementally and
/// re-targeted by flipping the two enums.
struct ClustererSpec {
  /// Data shape; selects the algorithm family.
  Modality modality = Modality::kCategorical;
  /// Candidate-generation strategy of the assignment step.
  Accelerator accelerator = Accelerator::kExhaustive;
  /// The engine knobs shared by every family: k, iteration cap, init,
  /// seeds, threads, shards, chunk size, progress/cancel hooks.
  EngineOptions engine;
  /// Weight of the numeric squared distance against categorical
  /// mismatches (kMixed only).
  double gamma = 1.0;
  /// MinHash index configuration (kMinHash only).
  ShortlistIndexOptions minhash;
  /// SimHash index configuration (kSimHash only).
  SimHashIndexOptions simhash;
  /// Concatenated-signature index configuration (kMixedConcat only).
  MixedIndexOptions mixed_index;
  /// Canopy construction parameters (kCanopy only).
  CanopyOptions canopy;
};

/// Validates every combination of spec fields as a returned Status:
/// modality/accelerator compatibility, engine invariants (k >= 1,
/// shards/chunk >= 1, seed-count consistency), init-method/modality
/// compatibility, gamma, and the chosen accelerator's index options.
/// `Clusterer::Create` calls this; it is public so front ends (the CLI)
/// can validate without constructing.
[[nodiscard]] Status ValidateClustererSpec(const ClustererSpec& spec);

/// \brief Outcome of Clusterer::Fit: the clustering result plus index
/// diagnostics and the run's completion status.
struct FitReport {
  /// The clustering outcome (same type every legacy entry point returned,
  /// so downstream tooling treats facade and direct runs uniformly).
  ClusteringResult result;
  /// OK for a completed run; StatusCode::kCancelled when the caller's
  /// cancellation hook stopped it — `result` then holds the state after
  /// the last completed iteration (an empty assignment if not even the
  /// initial pass completed).
  Status status;
  /// True when an accelerator built a banding index this run (kMinHash /
  /// kSimHash / kMixedConcat) — the fitted model then carries it, and
  /// Clusterer::index() / PredictRouted use it. False for the other
  /// accelerators and if a cancel landed during index preparation (a
  /// partial index is never installed). The fields below are valid (and
  /// non-zero) only when set.
  bool has_index = false;
  /// Bucket occupancy of the fitted model's banding index.
  BandedIndex::Stats index_stats;
  /// Approximate footprint of the fitted model's shortlist state (banded
  /// index + fitted assignment + any per-bucket cluster masks;
  /// FrozenModel::memory_bytes()).
  uint64_t index_memory_bytes = 0;
  /// Prepare() split: signature computation vs index construction.
  double signature_seconds = 0;
  double index_seconds = 0;
};

/// \brief Options of a streaming session beyond what the spec carries.
/// Defaults are drawn from StreamingMHKModesOptions so the facade can
/// never drift from a direct StreamingMHKModes session.
struct StreamingSessionOptions {
  /// Maintain modes incrementally as items arrive. When false, modes stay
  /// frozen at their bootstrap values (cheaper; suits stable streams).
  bool update_modes = StreamingMHKModesOptions{}.update_modes;
  /// Worker threads for IngestBatch's parallel phase. 1 = run in-line on
  /// the calling thread (default); 0 = one per hardware thread.
  uint32_t ingest_threads = StreamingMHKModesOptions{}.ingest_threads;
  /// Item-space shards of IngestBatch's parallel phase (>= 1).
  uint32_t ingest_shards = StreamingMHKModesOptions{}.ingest_shards;
  /// Items per ParallelFor unit within a shard (>= 1).
  uint32_t ingest_chunk_size = StreamingMHKModesOptions{}.ingest_chunk_size;
  /// Serving hook: when non-null, the session snapshots its live state and
  /// publishes the FrozenModel to this server every `publish_every`
  /// successful ingests (see below). The server must outlive the session.
  serving::ModelServer* publish_to = nullptr;
  /// Ingest count between automatic publishes; 0 disables the hook even
  /// with `publish_to` set. A micro-batch counts all its rows at once and
  /// triggers at most one publish, so a batch larger than the period
  /// publishes once at its end (the counter then restarts from zero).
  uint64_t publish_every = 0;
};

/// \brief An online clustering session created by
/// Clusterer::MakeStreamingSession: a thin owning wrapper over
/// StreamingMHKModes with the facade's naming.
class StreamingSession {
 public:
  ~StreamingSession();
  StreamingSession(StreamingSession&&) noexcept;
  StreamingSession& operator=(StreamingSession&&) noexcept;
  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Assigns one arriving item (a row of num_attributes() codes in the
  /// warm-up dataset's code space) and returns its cluster. May trigger an
  /// automatic snapshot publish (StreamingSessionOptions::publish_to).
  Result<uint32_t> Ingest(std::span<const uint32_t> row);

  /// Assigns a micro-batch (row-major, rows.size() = batch x
  /// num_attributes()); bit-identical to ingesting the rows one by one at
  /// every thread/shard setting. The returned view is valid until the
  /// next ingest call. May trigger an automatic snapshot publish
  /// (StreamingSessionOptions::publish_to).
  Result<std::span<const uint32_t>> IngestBatch(
      std::span<const uint32_t> rows);

  /// An immutable deep-copied FrozenModel of the session's *current*
  /// state: modes, the signing family, the live index frozen into CSR
  /// form and the full assignment so far. Safe to route from
  /// other threads while this session keeps ingesting. Call between
  /// ingest calls on the writer's thread (the session is single-writer,
  /// like its Ingest methods). Snapshot routing resolves score ties to
  /// the lowest cluster id (the batch Predict convention); the live
  /// ingest path resolves them in shortlist-discovery order, so on tied
  /// scores a snapshot may route an item to a different — equally near —
  /// cluster than Ingest would.
  Result<std::shared_ptr<const serving::FrozenModel>> Snapshot() const;

  uint32_t num_clusters() const { return engine_->num_clusters(); }
  uint32_t num_attributes() const { return engine_->num_attributes(); }

  /// Assignment of every item seen so far (warm-up items first, then
  /// ingested ones in arrival order).
  const std::vector<uint32_t>& assignment() const {
    return engine_->assignment();
  }

  /// The current mode of `cluster`.
  std::span<const uint32_t> ModeOf(uint32_t cluster) const {
    return engine_->ModeOf(cluster);
  }

  /// Ingest-side counters (fallbacks, shortlist sizes, revalidations).
  const StreamingMHKModes::Stats& stats() const { return engine_->stats(); }

  /// The warm-up clustering outcome.
  const ClusteringResult& bootstrap_result() const {
    return engine_->bootstrap_result();
  }

 private:
  friend class Clusterer;
  explicit StreamingSession(std::unique_ptr<StreamingMHKModes> engine);

  /// Counts `ingested` items toward the publish period and snapshots +
  /// publishes when it elapses.
  void MaybePublish(uint64_t ingested);

  std::unique_ptr<StreamingMHKModes> engine_;
  serving::ModelServer* publish_to_ = nullptr;
  uint64_t publish_every_ = 0;
  uint64_t since_publish_ = 0;
};

namespace internal {
class EngineDispatcher;
}  // namespace internal

/// \brief The type-erased clustering front door. Construct via Create
/// (which validates the spec), then Fit a dataset of the spec's modality;
/// Predict assigns out-of-sample items against the fitted centroids, and
/// MakeStreamingSession opens an online session (categorical + minhash
/// specs). Move-only; one Clusterer may Fit repeatedly.
///
/// The fitted state is one immutable `serving::FrozenModel`: centroids,
/// the LSH family, the banded index built once after the initial
/// assignment, and the fitted assignment as the cluster-reference store.
/// Predict, PredictRouted, Snapshot and index() all read that one object;
/// each successful Fit builds a new one and swaps it in, a rejected Fit
/// leaves the current one in place. Objects already handed out
/// (snapshots, index handles) keep the model they were taken from alive.
class Clusterer {
 public:
  /// Validates `spec` (see ValidateClustererSpec) and builds the engine
  /// dispatcher for its (modality, accelerator) cell.
  static Result<Clusterer> Create(const ClustererSpec& spec);

  /// Warm-starts a Clusterer from a model file saved by
  /// serving::SaveFrozenModel (persist/model_io.h). The file is decoded
  /// once and its model built by persist::BuildFrozenModel — the same
  /// path serving::LoadFrozenModel takes — without re-clustering or
  /// re-signing anything: centroids come back verbatim, the family's
  /// hashers rebuild deterministically from their persisted options +
  /// seeds, and the banded index adopts the raw CSR dump. That model
  /// becomes the Clusterer's fitted model. The returned Clusterer reports
  /// fitted(), its spec() mirrors the persisted model (modality,
  /// accelerator, k, gamma, index options; everything else defaulted),
  /// and Predict / PredictRouted / Snapshot / index() behave exactly as
  /// after the Fit that produced the file — PredictRouted routes
  /// bit-identically to the saving process, across SIMD tiers and thread
  /// counts, and Snapshot saves back to the same bytes. Fit remains
  /// usable and replaces the loaded model like any refit. Corrupt or
  /// truncated files come back as typed Status errors, never a partially
  /// loaded model.
  static Result<Clusterer> FromSnapshot(const std::string& path);

  ~Clusterer();
  Clusterer(Clusterer&&) noexcept;
  Clusterer& operator=(Clusterer&&) noexcept;
  Clusterer(const Clusterer&) = delete;
  Clusterer& operator=(const Clusterer&) = delete;

  /// Runs the full clustering procedure on a dataset of the spec's
  /// modality (kCategorical and kTextBinarized both take the categorical
  /// overload). A dataset of the wrong modality is a kInvalidArgument
  /// error; a run stopped by spec.engine.cancel returns OK with
  /// FitReport::status = kCancelled and the partial result.
  Result<FitReport> Fit(const CategoricalDataset& dataset);
  Result<FitReport> Fit(const NumericDataset& dataset);
  Result<FitReport> Fit(const MixedDataset& dataset);

  /// Assigns each item of an out-of-sample dataset to its nearest fitted
  /// centroid (exhaustive scan — prediction cost is per-arrival, not
  /// per-refinement). Requires a prior successful Fit of matching shape.
  Result<std::vector<uint32_t>> Predict(
      const CategoricalDataset& dataset) const;
  Result<std::vector<uint32_t>> Predict(const NumericDataset& dataset) const;
  Result<std::vector<uint32_t>> Predict(const MixedDataset& dataset) const;

  /// LSH-routed out-of-sample assignment through the fitted model's
  /// index — the paper's shortlist idea applied to the query side. Per
  /// item: sign the query with the fitted family's hashers, probe the
  /// fit-time buckets, dereference the co-bucketed fitted items' clusters
  /// through the fitted assignment, and assign the nearest candidate
  /// cluster; an item whose probe yields no candidates (external queries,
  /// unlike fitted items, share no bucket with themselves) falls back to
  /// the exhaustive scan. Candidates are scanned in ascending cluster-id
  /// order, so ties resolve to the lowest id exactly as Predict does —
  /// whenever the probe contains the true nearest cluster the routed
  /// answer is bit-identical to Predict's. The fitted dataset is never
  /// re-signed (see IndexHandle::dataset_sign_passes). This is the
  /// model's own sign-and-route loop — the code FrozenModel::RouteInto
  /// runs on a Snapshot() of this fit — batch-parallel and shard-chunked
  /// through the spec's ShardPlan; per-item work is pure, so every
  /// (threads x shards) setting is bit-identical and equal to the
  /// snapshot's Route. Requires a prior successful Fit of matching shape;
  /// a model without an index (non-banding accelerators, or a fit
  /// cancelled before its index was built) routes every item through the
  /// fallback, so PredictRouted returns exactly Predict's assignment.
  Result<std::vector<uint32_t>> PredictRouted(
      const CategoricalDataset& dataset) const;
  Result<std::vector<uint32_t>> PredictRouted(
      const NumericDataset& dataset) const;
  Result<std::vector<uint32_t>> PredictRouted(
      const MixedDataset& dataset) const;

  /// The fitted model itself, for the lock-free serving layer
  /// (serving/frozen_model.h): a shared pointer to the immutable
  /// FrozenModel this Clusterer routes with, so taking a snapshot is a
  /// refcount copy and two calls on one fit return the same pointer.
  /// Refitting swaps a new model into the Clusterer and leaves this one
  /// unchanged, and destroying the Clusterer frees it only when the last
  /// snapshot is dropped. Its Route is bit-identical to PredictRouted on
  /// the fit it came from; a model without an index (non-banding
  /// accelerators) routes as an exhaustive Predict. Requires a prior
  /// successful Fit.
  Result<std::shared_ptr<const serving::FrozenModel>> Snapshot() const;

  /// A read-only handle on the fitted model's shortlist index: bucket
  /// occupancy, memory, the dataset-signing counter, and candidate
  /// enumeration for dedup workloads. The handle shares ownership of the
  /// model, so it stays valid through refits and past this Clusterer's
  /// destruction, always describing the fit it was taken from (see
  /// api/index_handle.h). kInvalidArgument when the model has no index:
  /// no successful Fit yet, a non-banding accelerator, or the fit was
  /// cancelled before its index was built.
  Result<IndexHandle> index() const;

  /// Opens a streaming session: batch-clusters `warmup` with this spec's
  /// engine + minhash options, then every Ingest assigns one arrival and
  /// folds it into the live index/modes (core/streaming.h). Only valid
  /// for categorical / text-binarized specs with the kMinHash
  /// accelerator. Independent of this Clusterer's fitted state.
  Result<StreamingSession> MakeStreamingSession(
      const CategoricalDataset& warmup,
      const StreamingSessionOptions& options = {}) const;

  /// The validated spec this Clusterer was created from.
  const ClustererSpec& spec() const;

  /// True after a Fit produced a model Predict can use. A cancelled Fit
  /// counts: the model is whatever state the run reached — the last
  /// completed centroid update, or the raw seed centroids if not even
  /// the initial pass completed (detectable via the report's empty
  /// assignment).
  bool fitted() const;

 private:
  explicit Clusterer(std::unique_ptr<internal::EngineDispatcher> dispatcher);

  // The spec lives on the dispatcher (its engine runs read it); spec()
  // exposes that single copy.
  std::unique_ptr<internal::EngineDispatcher> dispatcher_;
};

}  // namespace lshclust
