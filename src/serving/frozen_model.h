#pragma once

/// \file frozen_model.h
/// \brief The immutable fitted model, shared by the Clusterer that fitted
/// it and the lock-free serving layer.
///
/// A `FrozenModel` is one fitted clustering model: the centroid/mode
/// table, the LSH family's hashers (seeds and hyperplanes included), the
/// banded index built once after the initial assignment and the fit-time
/// assignment that serves as its cluster-reference store. A `Clusterer`
/// holds its fitted state as exactly one of these, and
/// `Clusterer::Snapshot()` returns that same object — a refcount copy,
/// not a deep one. Nothing in it changes after construction, so the
/// Clusterer may refit (swapping in a new model), move or be destroyed
/// while a snapshot keeps serving; `IndexHandle`s share the model the
/// same way (see api/index_handle.h).
///
/// Models are immutable: `Route` / `RouteInto` are const, touch no
/// shared mutable state, and are safe to call from any number of threads
/// concurrently — including while the owning Clusterer runs
/// `PredictRouted` over the same object. Per-thread mutable state lives
/// in a caller-owned `RouteScratch` (one per reader thread), so the hot
/// path allocates nothing once the scratch is warm. Routing follows the
/// exact `PredictRouted` path — sign query, probe buckets,
/// exact-distance the shortlist, exhaustive fallback on an empty probe —
/// through the same loop (FrozenModelImpl::RouteRange), so routed results
/// are bit-identical to `PredictRouted` on the fit the model came from.
///
/// A model whose buckets are large (mean occupancy of at least two items)
/// compacts them once, at construction, to the distinct clusters of their
/// items under the fitted assignment, and routed queries walk those lists
/// instead of every co-bucketed item. Saved model files never carry the
/// lists; loading rebuilds them. `memory_bytes()` reports the model's
/// shortlist state (banded index + fitted assignment + cluster lists) and
/// `cluster_list_entries()` the lists' size.
///
/// Obtain models from `Clusterer::Snapshot()` (any fitted modality;
/// models of the exhaustive or canopy accelerators route as a plain
/// exhaustive Predict), from `serving::LoadFrozenModel` (a saved model
/// file) or from `StreamingSession::Snapshot()` (a deep copy of the live,
/// mutable MinHash k-modes state). Publish them to readers through a
/// `ModelServer` (model_server.h).

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/categorical_dataset.h"
#include "data/mixed_dataset.h"
#include "util/result.h"

namespace lshclust::serving {

class ModelServer;

/// Immutable fitted model; see the file comment.
class FrozenModel {
 public:
  /// Opaque per-thread routing scratch. Create one per reader thread with
  /// `MakeScratch()` and pass it to every `RouteInto` call on that thread.
  /// A scratch may be reused across successive snapshots (it re-sizes
  /// itself to the model on first use), which is how readers survive
  /// `ModelServer` swaps without reallocating.
  class RouteScratch {
   public:
    virtual ~RouteScratch();
    RouteScratch(const RouteScratch&) = delete;
    RouteScratch& operator=(const RouteScratch&) = delete;

   protected:
    RouteScratch() = default;
  };

  virtual ~FrozenModel();
  FrozenModel(const FrozenModel&) = delete;
  FrozenModel& operator=(const FrozenModel&) = delete;

  /// A routing scratch sized for this model.
  virtual std::unique_ptr<RouteScratch> MakeScratch() const = 0;

  /// Routes every query item to its cluster, writing cluster ids into
  /// `out` (`out.size()` must equal `queries.num_items()`). Zero locks and
  /// — once `scratch` is warm — zero allocation. The overload matching the
  /// snapshot's modality routes; the others return kInvalidArgument.
  [[nodiscard]] virtual Status RouteInto(const CategoricalDataset& queries,
                           RouteScratch& scratch,
                           std::span<uint32_t> out) const;
  [[nodiscard]] virtual Status RouteInto(const NumericDataset& queries,
                           RouteScratch& scratch,
                           std::span<uint32_t> out) const;
  [[nodiscard]] virtual Status RouteInto(const MixedDataset& queries, RouteScratch& scratch,
                           std::span<uint32_t> out) const;

  /// Convenience wrappers: allocate a fresh scratch and result vector.
  /// Benchmarks and multi-threaded readers should hold their own scratch
  /// and call RouteInto instead.
  Result<std::vector<uint32_t>> Route(const CategoricalDataset& queries) const;
  Result<std::vector<uint32_t>> Route(const NumericDataset& queries) const;
  Result<std::vector<uint32_t>> Route(const MixedDataset& queries) const;

  /// The stamp of this object's most recent publish, on any
  /// `ModelServer` (versions start at 1 and increase monotonically per
  /// server); 0 for a model that has not been published. One model may be
  /// published several times or to several servers, so this is the
  /// latest such stamp — a server's own current version is
  /// `ModelServer::version()`.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Number of clusters the model routes into.
  virtual uint32_t num_clusters() const = 0;

  /// True when the model carries a banded index (routed path); false for
  /// exhaustive models, whose Route equals a plain Predict.
  virtual bool has_index() const = 0;

  /// Bytes held by the model's shortlist state: the banded index's CSR
  /// arrays, the fit assignment and any per-bucket cluster lists (0 for an
  /// exhaustive model).
  virtual uint64_t memory_bytes() const = 0;

  /// Entries of the per-bucket cluster lists routed queries walk, summed
  /// over every bucket of every band (at most items x bands); 0 when the
  /// model routes over bucket items or is exhaustive.
  virtual uint64_t cluster_list_entries() const = 0;

 protected:
  FrozenModel() = default;

 private:
  friend class ModelServer;
  /// Written by every ModelServer::Publish of this model (release, before
  /// the model becomes visible to that server's readers); mutable so
  /// servers can stamp `shared_ptr<const FrozenModel>` models.
  mutable std::atomic<uint64_t> version_{0};
};

}  // namespace lshclust::serving
