#pragma once

/// \file frozen_model.h
/// \brief Immutable model snapshots for the lock-free serving layer.
///
/// A `FrozenModel` is a self-contained, deep-copied snapshot of a fitted
/// clustering model: the centroid/mode table, the LSH family's hashers
/// (seeds and hyperplanes included), the banded index's CSR arrays and
/// the fit-time assignment. Nothing in it
/// aliases live `Clusterer` state, so the source may be refit, restarted
/// or destroyed while the snapshot keeps serving — the deliberate
/// opposite of `IndexHandle`, which is a *view* that a refit invalidates
/// (see api/index_handle.h for that contract).
///
/// Snapshots are immutable after construction: `Route` / `RouteInto` are
/// const, touch no shared mutable state, and are safe to call from any
/// number of threads concurrently. Per-thread mutable state lives in a
/// caller-owned `RouteScratch` (one per reader thread), so the hot path
/// allocates nothing once the scratch is warm. Routing follows the exact
/// `PredictRouted` path — sign query, probe buckets, exact-distance the
/// shortlist, exhaustive fallback on an empty probe —
/// through the same shared kernel (serving/routing.h), so routed results
/// from a snapshot are bit-identical to `PredictRouted` on the fitted
/// state it was taken from.
///
/// Memory cost of a snapshot is dominated by the copied CSR arrays:
/// `memory_bytes()` reports the total.
///
/// Obtain snapshots from `Clusterer::Snapshot()` (any fitted modality;
/// models fitted with `retain_index = false` or the exhaustive
/// accelerator snapshot too, routing as a plain exhaustive Predict) or
/// from `StreamingSession::Snapshot()` (live MinHash k-modes state).
/// Publish them to readers through a `ModelServer` (model_server.h).

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

/// Immutable snapshot of a fitted model; see the file comment.
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

  /// Version stamped by the `ModelServer` that published this snapshot
  /// (versions start at 1 and increase monotonically per server);
  /// 0 for a snapshot that has not been published.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Number of clusters the model routes into.
  virtual uint32_t num_clusters() const = 0;

  /// True when the snapshot carries a banded index (routed path); false
  /// for exhaustive snapshots, whose Route equals a plain Predict.
  virtual bool has_index() const = 0;

  /// Total bytes held by the snapshot's copied state (CSR arrays,
  /// hashers, centroids, fit assignment).
  virtual uint64_t memory_bytes() const = 0;

 protected:
  FrozenModel() = default;

 private:
  friend class ModelServer;
  /// Written once by ModelServer::Publish (release) before the snapshot
  /// becomes visible to readers; mutable so servers can stamp
  /// `shared_ptr<const FrozenModel>` snapshots.
  mutable std::atomic<uint64_t> version_{0};
};

}  // namespace lshclust::serving
