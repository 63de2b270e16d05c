#pragma once

/// \file model_server.h
/// \brief Snapshot publication: writers Publish, readers route lock-free
/// through a per-thread `ModelServer::Reader`.
///
/// A `ModelServer` holds the current `FrozenModel` snapshot. `Publish`
/// (writer side) stamps the snapshot with the next monotone version and
/// swaps it in; readers share ownership of whatever snapshot they picked
/// up, so old versions are freed when the last reader drops them, never
/// under a reader's feet.
///
/// Locking contract: the *query path* takes no locks. Each reader thread
/// holds a `Reader`, whose `Current()` is a single atomic version load
/// while the published version is unchanged — the steady state between
/// swaps — returning the thread's cached `shared_ptr` untouched. Only
/// when a swap actually happened does `Current()` refresh the cache under
/// the slot mutex, i.e. exactly once per reader per publish, off the
/// per-query path. Writers serialize among themselves on the same mutex
/// (writers are rare: one per ingest epoch or refit) and hold it only for
/// a version stamp and two pointer writes, so a reader refreshing during
/// a swap waits nanoseconds, and a reader that keeps routing against its
/// current snapshot is entirely untouched.
///
/// (Deliberately not `std::atomic<std::shared_ptr>`: libstdc++'s
/// `_Sp_atomic` guards the raw pointer with an embedded spin-bit whose
/// reader unlock is relaxed — a spinlock on every Acquire, a formal data
/// race under ThreadSanitizer, and strictly worse steady-state behavior
/// than not touching the control block at all.)
///
/// Typical serving loop:
/// ```
///   lshclust::serving::ModelServer server;
///   server.Publish(clusterer.Snapshot().ValueOrDie());     // writer
///
///   // each reader thread:
///   lshclust::serving::ModelServer::Reader reader(server);
///   auto scratch = reader.Current()->MakeScratch();
///   for (;;) {
///     const auto& model = reader.Current();   // lock-free while unchanged
///     LSHC_CHECK_OK(model->RouteInto(queries, *scratch, out));
///   }
/// ```

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serving/frozen_model.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace lshclust::serving {

/// Snapshot slot with lock-free steady-state readers; see the file
/// comment.
class ModelServer {
 public:
  ModelServer() = default;
  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Stamps `model` with the next version (monotone per server, starting
  /// at 1) and makes it the snapshot subsequent `Acquire` / `Current`
  /// calls return. Returns the stamped version. `model` must be non-null.
  /// Thread-safe against concurrent Publish and readers.
  uint64_t Publish(std::shared_ptr<const FrozenModel> model)
      LSHC_LOCKS_EXCLUDED(mutex_);

  /// Loads a model file (persist/model_io.h) and publishes it, returning
  /// the stamped version — the warm-start path of a serving process:
  /// point the server at a file saved by an earlier fit and start routing
  /// without re-clustering. On any load error the current snapshot is
  /// left untouched. Defined in persist/model_io.cpp.
  Result<uint64_t> PublishFromFile(const std::string& path);

  /// The current snapshot (shared ownership), or nullptr before the first
  /// Publish. Takes the slot mutex briefly; reader threads in a routing
  /// loop should go through a `Reader`, which only pays this on an actual
  /// version change.
  std::shared_ptr<const FrozenModel> Acquire() const
      LSHC_LOCKS_EXCLUDED(mutex_) {
    MutexLock lock(mutex_);
    return slot_;
  }

  /// Version of the most recently published snapshot (0 before the first
  /// Publish). One atomic load; this is the gate `Reader` polls.
  uint64_t version() const {
    return published_version_.load(std::memory_order_acquire);
  }

  /// Per-reader-thread cached view of the server's snapshot — the
  /// lock-free query-path pattern. Not thread-safe itself: one Reader per
  /// thread. The reference returned by `Current()` is borrowed; it stays
  /// valid until the next `Current()` call on this Reader.
  class Reader {
   public:
    explicit Reader(const ModelServer& server) : server_(&server) {}

    /// The latest published snapshot (nullptr before the first Publish).
    /// While the server's version is unchanged since the last call this
    /// is one atomic load and no control-block traffic; on a version
    /// change it refreshes the cache under the slot mutex (amortized once
    /// per publish). The cached version is this server's own, read with
    /// the slot — never the model's stamp, which a publish of the same
    /// model to another server may since have overwritten.
    const std::shared_ptr<const FrozenModel>& Current() {
      if (server_->version() != cached_version_) {
        server_->Refresh(&cached_, &cached_version_);
        ++refreshes_;
      }
      return cached_;
    }

    /// Number of times Current() refreshed its cache — one per observed
    /// publish.
    uint64_t refreshes() const { return refreshes_; }

   private:
    const ModelServer* server_;
    std::shared_ptr<const FrozenModel> cached_;
    uint64_t cached_version_ = 0;
    uint64_t refreshes_ = 0;
  };

 private:
  /// Copies the slot and the version it was published at, together.
  void Refresh(std::shared_ptr<const FrozenModel>* model,
               uint64_t* version) const LSHC_LOCKS_EXCLUDED(mutex_) {
    MutexLock lock(mutex_);
    *model = slot_;
    *version = published_version_.load(std::memory_order_relaxed);
  }

  /// Guards slot_ (readers refresh rarely; writers swap rarely). The
  /// per-query path never takes it — see Reader.
  mutable Mutex mutex_;
  std::shared_ptr<const FrozenModel> slot_ LSHC_GUARDED_BY(mutex_);
  std::atomic<uint64_t> published_version_{0};
};

}  // namespace lshclust::serving
