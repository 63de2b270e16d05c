#pragma once

/// \file engine.h
/// \brief The unified centroid-clustering refinement engine, templated on
/// the dataset family (via traits) and the candidate provider.
///
/// The paper's framework changes exactly one thing about centroid-based
/// clustering: where the assignment step looks for candidate clusters.
/// Everything else — seeding, the initial exhaustive pass, centroid
/// updates, the convergence test, instrumentation — is shared. The engine
/// therefore factors along two axes:
///
///  * **Traits** describe the dataset family and its dissimilarity:
///    - CategoricalClusteringTraits (here): K-Modes, mismatch counts.
///    - NumericClusteringTraits (clustering/kmeans.h): K-Means, squared L2.
///    - MixedClusteringTraits (clustering/kprototypes.h): K-Prototypes,
///      mismatches + gamma * squared L2.
///  * **Provider** is the candidate policy:
///    - ExhaustiveProvider — every cluster is a candidate: the original
///      algorithm of the family.
///    - ShortlistProvider<Family> (core/shortlist_provider.h) — candidates
///      come from an LSH banding index: the paper's acceleration.
///    - CanopyShortlistProvider (core/canopy_shortlist_index.h) — the
///      related-work canopy accelerator on the same hook.
///
/// One engine body serves every combination, which keeps the paper's
/// efficiency comparisons honest: both sides of every comparison run the
/// same code except candidate generation.
///
/// ## The provider contract
///
/// A provider with `kExhaustive = true` only has to name that constant:
/// the engine scans all k clusters itself and never calls it. Every other
/// provider meets exactly one contract:
///
///  * `static constexpr bool kExhaustive = false;`
///  * `Scratch MakeScratch() const` — per-caller query state;
///  * `void GetCandidates(item, assignment, Scratch&, std::vector<uint32_t>*)
///    const` — the candidate clusters of `item`, its current cluster
///    first, read against the `assignment` span the engine passes;
///  * `Status Prepare(const Dataset&, ThreadPool* pool,
///    const std::function<bool()>* cancel)` — the one-time build after the
///    initial assignment. `pool` (may be null) is the run's worker pool,
///    `cancel` (may be null) the run's cooperative-cancel hook.
///
/// A provider may also offer the optional pass hook, which the engine
/// detects and calls when present:
///
///  * `void BeginPass(std::span<const uint32_t> reference, ThreadPool* pool)`
///    — called on the calling thread at the start of every refinement
///    pass, right after the assignment snapshot is frozen; `reference` is
///    that snapshot, the very span the pass's GetCandidates calls receive,
///    and it is not written until the pass ends. A provider may precompute
///    per-pass state from it (ShortlistProvider fills per-bucket cluster
///    masks where its buckets are dense), using `pool` between passes.
///  * `void EndPass()` — called once when refinement ends, on every exit
///    path; state bound to the snapshot must not outlive it.
///
/// and, with the pass hook, the optional mask hook:
///
///  * `bool CandidateMask(item, assignment, std::span<uint64_t> mask)
///    const` — when the provider can answer for `assignment` (the bound
///    snapshot), writes the *set* of `item`'s shortlist into `mask`
///    (⌈k/64⌉ words, bit c = cluster c, the current cluster included) and
///    returns true; false sends the item down GetCandidates.
///    ShortlistProvider answers where its buckets are few and wide, so a
///    shortlist holds most of the k clusters. The engine then scores the
///    item from one Traits::ScanDistances row with MaskedArgminFromSeed,
///    which picks what BestClusterShortlist picks over the listed
///    shortlist: the seed unless a cluster is strictly nearer, else the
///    unique nearest. Where that is not settled by the set — the nearest
///    distance is held by several clusters, whose shortlist order breaks
///    the tie — the item takes GetCandidates and the ordered walk. Either
///    way the shortlist size, and so `exact_distances_evaluated` and the
///    mean shortlist, is the set's size.
///
/// Phases, timed separately (see ClusteringResult):
///   1. init: seed selection, initial centroids = seed items.
///   2. initial assignment: one exhaustive pass (the paper performs this
///      for MH-K-Modes too, before the index exists — Alg. 2 step 2).
///   3. provider.Prepare(): signature computation + index build, on the
///      run's worker pool (skipped for exhaustive providers).
///   4. refinement iterations until no item moves or max_iterations; each
///      shortlist pass starts with the provider's BeginPass when it has one.
///
/// ## Shard-aware batch-parallel assignment
///
/// The assignment step — the hot loop the whole paper is about — runs
/// through a two-level decomposition (src/shard/shard_plan.h): the item
/// space is partitioned into `EngineOptions::num_shards` contiguous
/// shards, each shard is cut into `EngineOptions::chunk_size`-item
/// chunks, and the chunks are dispatched to a small worker pool
/// (util/thread_pool.h) when EngineOptions::num_threads > 1. A shard
/// carries its own per-worker query scratch, so nothing about a shard's
/// work references pool-global mutable state; the provider itself is only
/// read. Determinism is preserved by construction — every
/// (num_shards x num_threads) combination produces bit-identical
/// assignments, costs and move counts, and `num_shards = 1` *is* the
/// historical flat decomposition, not an emulation of it:
///
///  * Candidate providers dereference a *snapshot* of the assignment taken
///    at the start of the pass (the cluster-reference store of §III-B,
///    frozen per iteration), so an item's shortlist never depends on how
///    many items before it already moved this pass. Each item writes only
///    its own assignment slot. The snapshot buffer is allocated once per
///    run and reused across refinement iterations.
///  * Per-chunk move/shortlist accumulators live in a ShardedAccumulator
///    and are merged in shard order (chunk order within the shard) after
///    the pass.
///  * Centroid updates — including empty-cluster repair — and cost
///    evaluation stay sequential: each is one sweep over the members (the
///    K-Modes update is a cluster-major counting pass, see
///    clustering/modes.h) and their floating-point summation and RNG draw
///    order is part of the reported numbers. The provider's Prepare, in
///    contrast, fans both its signing pass and its index build (one band
///    per work unit) out over the pool.
///
/// The engine gives every (shard, worker) pair its own provider scratch.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "clustering/dissimilarity.h"
#include "clustering/initializers.h"
#include "clustering/modes.h"
#include "clustering/types.h"
#include "data/categorical_dataset.h"
#include "shard/shard_executor.h"
#include "shard/shard_plan.h"
#include "shard/sharded_accumulator.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace lshclust {

/// \brief Options shared by every engine family (K-Modes, K-Means,
/// K-Prototypes and their LSH-accelerated variants).
struct EngineOptions {
  /// Number of clusters k.
  uint32_t num_clusters = 0;
  /// Refinement iteration cap (the paper caps Fig. 10 at 10).
  uint32_t max_iterations = 100;
  /// Empty-cluster handling during centroid updates.
  EmptyClusterPolicy empty_cluster_policy =
      EmptyClusterPolicy::kKeepPreviousMode;
  /// Initial centroid selection method (ignored when initial_seeds given;
  /// kHuang/kCao are categorical-only).
  InitMethod init_method = InitMethod::kRandom;
  /// Explicit seed items; the experiment harness draws these once and
  /// passes the same vector to every variant, as the paper does.
  std::vector<uint32_t> initial_seeds;
  /// Seed for the engine RNG (seed selection, empty-cluster reseeding).
  uint64_t seed = 42;
  /// Use the bounded early-exit distance kernel in shortlist passes
  /// (ablation switch). Exhaustive passes always take one all-clusters
  /// scan of full distances; either way the assignments are the same.
  bool early_exit = true;
  /// Evaluate the cost function after each iteration (Eq. 4 for K-Modes,
  /// inertia for K-Means, the mixed objective for K-Prototypes). Costs one
  /// extra n*m scan per iteration; switch off for pure timing.
  bool compute_cost = true;
  /// Worker threads for the batch-parallel assignment step and the
  /// provider's Prepare: its signature pass and its band-parallel index
  /// build. 1 = run in-line on the calling thread
  /// (default); 0 = one per hardware thread. Any value produces
  /// bit-identical results.
  uint32_t num_threads = 1;
  /// Item-space shards of the two-level (shard -> chunk) decomposition.
  /// Each shard owns a contiguous item slice and its own query scratch.
  /// Must be >= 1; any value produces bit-identical results (1 = the
  /// historical flat decomposition). Values above the flat chunk count
  /// (ceil(n / chunk_size)) are clamped to it — the excess shards could
  /// not own a whole work unit anyway.
  uint32_t num_shards = 1;
  /// Items per work unit of the parallel assignment step, within a shard.
  /// Must be >= 1. Never derived from the thread count, so the chunk
  /// decomposition — and with it all per-chunk bookkeeping — is identical
  /// for every num_threads; any value produces bit-identical results
  /// (tuning knob for the NUMA/chunk-size study).
  uint32_t chunk_size = 1024;
  /// Invoked after every refinement iteration with that iteration's stats
  /// (the same record appended to ClusteringResult::iterations, cost
  /// included when compute_cost is set). Runs on the calling thread,
  /// outside the iteration clock; keep it cheap. Null = no reporting.
  std::function<void(const IterationStats&)> progress;
  /// Cooperative cancellation hook: polled between refinement iterations,
  /// at shard-chunk boundaries inside every assignment pass, and at
  /// signing-batch boundaries inside the provider's Prepare (cancel-aware
  /// providers; the signature + index-build phase is the most expensive
  /// pre-iteration work); return true to stop the run. An interrupted
  /// pass is rolled back — and an interrupted Prepare installs no index —
  /// so the engine returns the state after the last completed iteration
  /// with ClusteringResult::cancelled set. May be called concurrently
  /// from worker threads — it must be thread-safe (an atomic flag is the
  /// typical implementation). Null = never cancelled.
  std::function<bool()> cancel;
};

/// Validates the dataset-independent EngineOptions invariants as a
/// returned Status — the front door (api/clusterer.h) and the CLI report
/// these as usage errors instead of aborting. Dataset-dependent checks
/// (k <= n, seed items in range) stay in ClusteringEngine::Run, which
/// re-checks these too, so direct engine callers keep the historical
/// behaviour.
[[nodiscard]] inline Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be >= 1");
  }
  if (!options.initial_seeds.empty() &&
      options.initial_seeds.size() != options.num_clusters) {
    return Status::InvalidArgument(
        "initial_seeds has " + std::to_string(options.initial_seeds.size()) +
        " entries, expected k=" + std::to_string(options.num_clusters));
  }
  return Status::OK();
}

/// \brief One caller's buffers for the all-clusters distance scan
/// (Traits::ScanDistances): k mismatch counts and k double distances.
/// Each family fills what it needs (categorical the counts, numeric the
/// doubles, mixed both). They grow to k on first use and are then reused,
/// so a warm scratch scans without allocating.
struct DistanceScratch {
  std::vector<uint32_t> counts;
  std::vector<double> sums;
};

/// The exhaustive argmin rule over a scanned distance row: `seed_cluster`
/// first, then every cluster in ascending id, replacing the best only on
/// a strictly smaller distance. Ties therefore keep the seed, then the
/// lowest id (+0 and -0 tie), a NaN seed wins and any other NaN never
/// does.
///
/// It runs as two branch-free passes rather than that sequential loop:
/// the least non-NaN distance, then its first position. That is the same
/// answer: the sequential rule ends on the first cluster holding the
/// minimum, unless the seed already holds it (or is NaN, which nothing
/// beats). Floating-point rows keep four running minima, each updated only
/// by a strictly smaller value, so a NaN is never taken; integer rows use
/// one, which the compiler vectorizes.
template <typename DistanceType>
uint32_t ArgminFromSeed(std::span<const DistanceType> distances,
                        uint32_t seed_cluster) {
  const DistanceType seed_distance = distances[seed_cluster];
  DistanceType least = seed_distance;
  if constexpr (std::is_integral_v<DistanceType>) {
    for (const DistanceType distance : distances) {
      least = std::min(least, distance);
    }
  } else {
    if (std::isnan(seed_distance)) return seed_cluster;
    const size_t k = distances.size();
    DistanceType lanes[4] = {least, least, least, least};
    size_t i = 0;
    for (; i + 4 <= k; i += 4) {
      for (size_t lane = 0; lane < 4; ++lane) {
        const DistanceType distance = distances[i + lane];
        lanes[lane] = distance < lanes[lane] ? distance : lanes[lane];
      }
    }
    for (; i < k; ++i) {
      least = distances[i] < least ? distances[i] : least;
    }
    for (const DistanceType lane : lanes) {
      least = lane < least ? lane : least;
    }
  }
  if (least == seed_distance) return seed_cluster;
  uint32_t cluster = 0;
  while (distances[cluster] != least) ++cluster;
  return cluster;
}

/// ArgminFromSeed restricted to the clusters set in `mask` (bit c =
/// cluster c), which holds `seed_cluster`: the seed unless a masked
/// cluster is strictly nearer, else the least masked distance. That is the
/// shortlist walk's answer (the seed, then each listed cluster replacing
/// the best only on a strictly smaller distance) whenever the least
/// distance below the seed's is held by one cluster alone: a NaN seed
/// wins, other NaNs never do, and equal distances the seed holds keep it.
/// When several masked clusters hold that least distance the walk takes
/// whichever it lists first, an order the mask does not keep: then this
/// returns false and leaves `best` alone (+0 and -0 count as a tie).
template <typename DistanceType>
bool MaskedArgminFromSeed(std::span<const DistanceType> distances,
                          std::span<const uint64_t> mask,
                          uint32_t seed_cluster, uint32_t* best) {
  DistanceType least = distances[seed_cluster];
  uint32_t least_cluster = seed_cluster;
  bool tied = false;
  for (size_t word = 0; word < mask.size(); ++word) {
    for (uint64_t bits = mask[word]; bits != 0; bits &= bits - 1) {
      const uint32_t cluster = static_cast<uint32_t>(
          word * 64 + static_cast<size_t>(std::countr_zero(bits)));
      const DistanceType distance = distances[cluster];
      if (distance < least) {
        least = distance;
        least_cluster = cluster;
        tied = false;
      } else if (distance == least && cluster != least_cluster) {
        tied = true;
      }
    }
  }
  if (tied && least_cluster != seed_cluster) return false;
  *best = least_cluster;
  return true;
}

/// Best cluster for `item` among all k clusters: the family's exact
/// argmin. One Traits::ScanDistances call computes the item's full
/// distance to every centroid, then ArgminFromSeed picks the seed cluster
/// unless another is strictly nearer, ties to the lowest id. A per-pair
/// scan with the early-exit kernels would pick the same cluster: they cut
/// a distance short only once it reaches the running best, and such a
/// value never wins a strict `<`. The engine's exhaustive passes, the
/// facade's Predict and the routed empty-probe fallback all call this, so
/// their tie-breaking can never drift apart.
template <typename Traits>
uint32_t BestClusterExhaustive(const typename Traits::Dataset& dataset,
                               const typename Traits::Centroids& centroids,
                               const typename Traits::Options& options,
                               uint32_t item, uint32_t seed_cluster,
                               DistanceScratch& scratch) {
  return ArgminFromSeed(
      Traits::ScanDistances(dataset, centroids, options, item, scratch),
      seed_cluster);
}

/// \brief Candidate provider that enumerates every cluster — plugging this
/// into the engine yields the family's original algorithm. One struct
/// serves all dataset families: the engine neither prepares nor queries
/// an exhaustive provider.
struct ExhaustiveProvider {
  /// Tells the engine to scan all k clusters without materialising lists.
  static constexpr bool kExhaustive = true;
};

/// \brief Dissimilarity/centroid traits for categorical data (K-Modes).
struct CategoricalClusteringTraits {
  using Dataset = CategoricalDataset;
  using Options = EngineOptions;
  using DistanceType = uint32_t;
  using Centroids = ModeTable;

  /// Bound that never triggers an early exit (mismatches <= m << 2^32).
  static constexpr DistanceType kInfiniteDistance = ~0u;

  [[nodiscard]] static Status ValidateOptions(const Dataset&, const Options&) {
    return Status::OK();
  }

  static Result<std::vector<uint32_t>> SelectSeedItems(const Dataset& dataset,
                                                       const Options& options,
                                                       Rng& rng) {
    return SelectSeeds(dataset, options.num_clusters, options.init_method,
                       rng);
  }

  static Centroids MakeCentroids(const Dataset& dataset,
                                 const Options& options) {
    return ModeTable(options.num_clusters, dataset.num_attributes());
  }

  static void SeedCentroid(Centroids& modes, uint32_t cluster,
                           const Dataset& dataset, uint32_t item) {
    modes.SetModeFromItem(cluster, dataset, item);
  }

  /// Mismatch count of item vs mode. EarlyExit selects the bounded
  /// blockwise kernel; the plain kernel is kept distinct so the ablation
  /// bench measures exactly the kernels it names.
  template <bool EarlyExit>
  static DistanceType ComputeDistance(const Dataset& dataset,
                                      const Centroids& modes, const Options&,
                                      uint32_t item, uint32_t cluster,
                                      DistanceType bound) {
    if constexpr (EarlyExit) {
      return BoundedMismatchDistance(dataset.Row(item).data(),
                                     modes.ModeData(cluster),
                                     dataset.num_attributes(), bound);
    } else {
      return MismatchDistance(dataset.Row(item), modes.Mode(cluster));
    }
  }

  /// Mismatch counts of `item` against all k modes, in scratch.counts.
  static std::span<const DistanceType> ScanDistances(
      const Dataset& dataset, const Centroids& modes, const Options&,
      uint32_t item, DistanceScratch& scratch) {
    scratch.counts.resize(modes.num_clusters());
    modes.ScanMismatches(dataset.Row(item).data(), scratch.counts.data());
    return scratch.counts;
  }

  static void UpdateCentroids(const Dataset& dataset, Centroids& modes,
                              std::span<const uint32_t> assignment,
                              const Options& options, Rng& rng) {
    modes.RecomputeFromAssignment(dataset, assignment,
                                  options.empty_cluster_policy, rng);
  }

  /// Cost P(W, Q) (Eq. 4): summed mismatch of every item to its mode.
  static double ComputeCost(const Dataset& dataset, const Centroids& modes,
                            const Options&,
                            std::span<const uint32_t> assignment) {
    double cost = 0;
    for (uint32_t item = 0; item < dataset.num_items(); ++item) {
      cost +=
          MismatchDistance(dataset.Row(item), modes.Mode(assignment[item]));
    }
    return cost;
  }
};

namespace internal {

/// Scratch type of a provider: MakeScratch()'s result for shortlist
/// providers, an empty placeholder for exhaustive ones (which have none).
template <typename Provider>
struct ProviderScratch {
  struct None {};
  using type = None;
};
template <typename Provider>
  requires(!Provider::kExhaustive)
struct ProviderScratch<Provider> {
  using type = decltype(std::declval<const Provider&>().MakeScratch());
};

}  // namespace internal

/// \brief The unified refinement engine. See the file comment.
template <typename Traits, typename Provider>
class ClusteringEngine {
 public:
  using Dataset = typename Traits::Dataset;
  using Options = typename Traits::Options;
  using DistanceType = typename Traits::DistanceType;
  using Centroids = typename Traits::Centroids;

  /// Runs the full procedure with candidate clusters supplied by
  /// `provider`.
  ///
  /// \param dataset items to cluster
  /// \param options engine options; num_clusters must be in [1, n]
  /// \param provider candidate policy (ExhaustiveProvider for baselines)
  /// \param final_centroids when non-null, receives the centroids as of
  ///        the last completed centroid update (the model the facade's
  ///        Predict assigns out-of-sample items against)
  /// \return per-iteration instrumentation and the final assignment
  static Result<ClusteringResult> Run(const Dataset& dataset,
                                      const Options& options,
                                      Provider& provider,
                                      Centroids* final_centroids = nullptr) {
    const uint32_t n = dataset.num_items();
    const uint32_t k = options.num_clusters;
    if (n == 0) return Status::InvalidArgument("dataset is empty");
    if (k == 0 || k > n) {
      return Status::InvalidArgument(
          "num_clusters must be in [1, n]; got k=" + std::to_string(k) +
          " with n=" + std::to_string(n));
    }
    if (options.num_shards == 0) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (options.chunk_size == 0) {
      return Status::InvalidArgument("chunk_size must be >= 1");
    }
    LSHC_RETURN_NOT_OK(Traits::ValidateOptions(dataset, options));

    ClusteringResult result;
    Rng rng(options.seed);
    Stopwatch total_watch;

    // Phase 1: seeds -> initial centroids.
    Stopwatch phase_watch;
    std::vector<uint32_t> seeds = options.initial_seeds;
    if (seeds.empty()) {
      LSHC_ASSIGN_OR_RETURN(seeds,
                            Traits::SelectSeedItems(dataset, options, rng));
    } else if (seeds.size() != k) {
      return Status::InvalidArgument(
          "initial_seeds has " + std::to_string(seeds.size()) +
          " entries, expected k=" + std::to_string(k));
    }
    for (const uint32_t seed_item : seeds) {
      if (seed_item >= n) {
        return Status::OutOfRange("seed item " + std::to_string(seed_item) +
                                  " out of range");
      }
    }
    Centroids centroids = Traits::MakeCentroids(dataset, options);
    for (uint32_t cluster = 0; cluster < k; ++cluster) {
      Traits::SeedCentroid(centroids, cluster, dataset, seeds[cluster]);
    }
    result.init_seconds = phase_watch.ElapsedSeconds();

    // Worker pool shared by every pass of this run and by Prepare.
    const uint32_t num_threads = ResolveThreadCount(options.num_threads);
    std::optional<ThreadPool> pool_storage;
    ThreadPool* pool = nullptr;
    if (num_threads > 1) {
      pool_storage.emplace(num_threads);
      pool = &*pool_storage;
    }

    // The two-level decomposition of this run's item space, and the
    // per-chunk accumulator storage every pass merges in shard order.
    // Both are pure functions of (n, num_shards, chunk_size), never of
    // the pool, which is what keeps every (shards x threads) combination
    // bit-identical. Clamped() caps the shard count at the flat chunk
    // count, so per-shard state stays proportional to actual work units.
    const ShardPlan plan =
        ShardPlan::Clamped(n, options.num_shards, options.chunk_size);
    ShardedAccumulator<ChunkStats> accumulator;

    // Shard-local query state for shortlist providers: one scratch slot
    // per worker in every shard (filled lazily; see ShardState) — nothing
    // a shard's queries write is pool-global.
    [[maybe_unused]] std::vector<ShardState> shard_states;
    if constexpr (!Provider::kExhaustive) {
      shard_states.resize(plan.num_shards());
      for (ShardState& state : shard_states) {
        state.scratches.resize(num_threads);
        state.shortlists.resize(num_threads);
      }
    }

    // Cooperative cancellation: one latch shared by every pass of the run.
    // Workers poll it at chunk boundaries; once any poll answers "stop",
    // the remaining chunks are skipped and the interrupted pass is rolled
    // back below, so the reported state is always a completed iteration's.
    std::atomic<bool> cancel_latch{false};
    const CancelPoll cancel{options.cancel ? &options.cancel : nullptr,
                            &cancel_latch};
    const auto finish_cancelled = [&](ClusteringResult&& partial) {
      partial.cancelled = true;
      partial.final_cost =
          partial.iterations.empty() ? 0.0 : partial.iterations.back().cost;
      partial.total_seconds = total_watch.ElapsedSeconds();
      if (final_centroids != nullptr) *final_centroids = std::move(centroids);
      return std::move(partial);
    };

    // Phase 2: initial exhaustive assignment + first centroid update.
    phase_watch.Restart();
    result.assignment.assign(n, 0);
    // Evaluations of this pass are deliberately not folded into
    // result.exact_distances_evaluated: the initial exhaustive assignment
    // is common to every method, so the counter tracks the refinement
    // phase, where the providers differ.
    uint64_t initial_evaluated = 0;
    ExhaustivePass</*FirstPass=*/true>(dataset, centroids, options,
                                       result.assignment, plan, pool,
                                       accumulator, &initial_evaluated,
                                       cancel);
    if (cancel.Latched()) {
      // The interrupted initial pass has no previous state to roll back
      // to — unprocessed chunks still hold the cluster-0 placeholder —
      // so report no assignment at all rather than a half-applied one.
      result.assignment.clear();
      return finish_cancelled(std::move(result));
    }
    Traits::UpdateCentroids(dataset, centroids, result.assignment, options,
                            rng);
    result.initial_assign_seconds = phase_watch.ElapsedSeconds();
    // Fresh poll before the index build starts: the initial assignment is
    // complete and reportable, and Prepare is the next big work unit.
    if (cancel.Cancelled()) return finish_cancelled(std::move(result));

    // Phase 3: provider preparation (signatures + LSH index). The provider
    // parallelizes its signing pass over the same workers the assignment
    // step uses and polls the run's cancel hook at signing-batch
    // boundaries — Prepare is the most expensive pre-iteration phase, so a
    // cancel landing here must not wait for the first refinement pass. A
    // Prepare stopped that way reports the same rollback contract as any
    // other cancel point: the state after the completed initial
    // assignment, with no (partial) index installed.
    phase_watch.Restart();
    Status prepare_status;
    if constexpr (!Provider::kExhaustive) {
      const std::function<bool()> prepare_cancel = [&cancel] {
        return cancel.Cancelled();
      };
      prepare_status = provider.Prepare(
          dataset, pool, options.cancel ? &prepare_cancel : nullptr);
    }
    result.index_build_seconds = phase_watch.ElapsedSeconds();
    if (prepare_status.IsCancelled()) {
      return finish_cancelled(std::move(result));
    }
    LSHC_RETURN_NOT_OK(prepare_status);
    if (cancel.Cancelled()) return finish_cancelled(std::move(result));

    // Phase 4: refinement until convergence. The per-pass assignment
    // snapshot is allocated once here and reused by every iteration; it
    // doubles as the rollback buffer for a cancelled pass, so cancellable
    // exhaustive runs keep one too.
    std::vector<uint32_t> snapshot;
    if (!Provider::kExhaustive || options.cancel) snapshot.resize(n);
    // Whatever the provider bound to the snapshot in BeginPass is unbound
    // on every way out of the loop, before `snapshot` is freed.
    [[maybe_unused]] const PassHookGuard pass_hook_guard{provider};
    for (uint32_t iteration = 1; iteration <= options.max_iterations;
         ++iteration) {
      if (cancel.Cancelled()) {
        result.cancelled = true;
        break;
      }
      phase_watch.Restart();
      uint64_t moves = 0;
      uint64_t shortlist_total = 0;
      uint64_t pass_evaluated = 0;
      if constexpr (Provider::kExhaustive) {
        if (!snapshot.empty()) {
          std::copy(result.assignment.begin(), result.assignment.end(),
                    snapshot.begin());
        }
        moves = ExhaustivePass</*FirstPass=*/false>(
            dataset, centroids, options, result.assignment, plan, pool,
            accumulator, &pass_evaluated, cancel);
        shortlist_total = static_cast<uint64_t>(n) * k;
      } else {
        // Freeze the cluster-reference store for this pass: queries see
        // the pre-pass assignment regardless of chunk order, which is
        // what makes the pass thread-count-invariant.
        std::copy(result.assignment.begin(), result.assignment.end(),
                  snapshot.begin());
        if constexpr (kHasPassHook) provider.BeginPass(snapshot, pool);
        DispatchEarlyExit(options.early_exit, [&](auto early_exit) {
          moves = ShortlistPass<early_exit.value>(
              dataset, centroids, options, provider, snapshot,
              result.assignment, plan, pool, shard_states, accumulator,
              &shortlist_total, &pass_evaluated, cancel);
        });
      }
      if (cancel.Latched()) {
        // Some chunk poll answered "stop" mid-pass, so the pass is
        // half-applied: roll it back to the pre-pass assignment. (A hook
        // that first turns true after the pass completed is caught by
        // the next iteration-top poll instead — completed work is never
        // discarded.)
        std::copy(snapshot.begin(), snapshot.end(),
                  result.assignment.begin());
        result.cancelled = true;
        break;
      }
      // Counters are committed only for completed passes, matching the
      // rollback contract: a cancelled pass contributes no state at all.
      result.exact_distances_evaluated += pass_evaluated;
      Traits::UpdateCentroids(dataset, centroids, result.assignment, options,
                              rng);

      IterationStats stats;
      stats.iteration = iteration;
      stats.moves = moves;
      stats.mean_shortlist =
          static_cast<double>(shortlist_total) / static_cast<double>(n);
      // The iteration clock stops before cost evaluation: the cost is
      // instrumentation, not part of any of the algorithms.
      stats.seconds = phase_watch.ElapsedSeconds();
      if (options.compute_cost) {
        stats.cost =
            Traits::ComputeCost(dataset, centroids, options,
                                result.assignment);
      }
      result.iterations.push_back(stats);
      if (options.progress) options.progress(stats);

      if (moves == 0) {
        result.converged = true;
        break;
      }
    }

    result.final_cost =
        result.iterations.empty() ? 0.0 : result.iterations.back().cost;
    result.total_seconds = total_watch.ElapsedSeconds();
    if (final_centroids != nullptr) *final_centroids = std::move(centroids);
    return result;
  }

 private:
  /// Polls the caller's cancellation hook, latching the first "stop"
  /// answer in an atomic so every worker observes it at its next chunk
  /// boundary without re-invoking the hook. A null hook never cancels and
  /// costs one branch per poll.
  struct CancelPoll {
    const std::function<bool()>* hook = nullptr;
    std::atomic<bool>* latch = nullptr;

    bool Cancelled() const {
      if (hook == nullptr) return false;
      if (latch->load(std::memory_order_relaxed)) return true;
      if ((*hook)()) {
        latch->store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    }

    /// True iff some earlier poll already answered "stop" — used after a
    /// pass to decide whether it was interrupted (chunks were skipped).
    /// Deliberately does NOT re-invoke the hook: a hook that first turns
    /// true after the pass's last chunk completed must not discard that
    /// completed pass; the fresh poll before the next work unit stops
    /// the run instead.
    bool Latched() const {
      return hook != nullptr && latch->load(std::memory_order_relaxed);
    }
  };

  using Scratch = typename internal::ProviderScratch<Provider>::type;

  static_assert(
      Provider::kExhaustive ||
          requires(Provider& mutable_provider, const Provider& provider,
                   const Dataset& dataset, ThreadPool* pool,
                   const std::function<bool()>* cancel, uint32_t item,
                   std::span<const uint32_t> assignment, Scratch& scratch,
                   std::vector<uint32_t>* out) {
            { mutable_provider.Prepare(dataset, pool, cancel) }
                -> std::same_as<Status>;
            provider.GetCandidates(item, assignment, scratch, out);
          },
      "a shortlist provider needs MakeScratch() const, a const "
      "GetCandidates(item, assignment, scratch, out) and "
      "Prepare(dataset, pool, cancel), and may add the pass hook "
      "BeginPass(reference, pool) + EndPass(); see the file comment");

  /// Whether the provider offers the optional pass hook (file comment).
  static constexpr bool kHasPassHook =
      requires(Provider& provider, std::span<const uint32_t> reference,
               ThreadPool* pool) {
        provider.BeginPass(reference, pool);
        provider.EndPass();
      };

  /// Whether the provider offers the optional mask hook (file comment).
  static constexpr bool kHasMaskHook =
      requires(const Provider& provider, uint32_t item,
               std::span<const uint32_t> assignment,
               std::span<uint64_t> mask) {
        { provider.CandidateMask(item, assignment, mask) }
            -> std::same_as<bool>;
      };

  /// Calls the provider's EndPass, if it has one, when refinement exits.
  struct PassHookGuard {
    Provider& provider;
    ~PassHookGuard() {
      if constexpr (kHasPassHook) provider.EndPass();
    }
  };

  /// Everything a shard owns besides its item slice: per-worker query
  /// scratch (dedup stamps + shortlist buffers), indexed by the pool's
  /// stable worker id. Scratches are materialised lazily, on the worker
  /// that first runs one of the shard's chunks: scratch contents never
  /// influence results (queries epoch-reset them), so only (shard, worker)
  /// pairs that actually execute pay the k-sized stamp array. Together
  /// with the shard-count clamp in Run (shards <= flat chunk count),
  /// total shard-state bookkeeping is bounded by the number of work
  /// units, not by the requested shard count.
  struct ShardState {
    std::vector<std::optional<Scratch>> scratches;
    std::vector<std::vector<uint32_t>> shortlists;
  };

  /// Per-chunk accumulator, merged in shard order after a pass (see
  /// shard/sharded_accumulator.h).
  struct ChunkStats {
    uint64_t moves = 0;
    uint64_t shortlist = 0;
    uint64_t evaluated = 0;  ///< exact distance kernel invocations
  };

  /// Hoists the early-exit switch out of the shortlist loop: a runtime
  /// branch per distance defeats vectorization of both kernels. (The
  /// exhaustive passes scan all k distances and have no such switch.)
  template <typename Fn>
  static void DispatchEarlyExit(bool early_exit, Fn&& fn) {
    if (early_exit) {
      fn(std::bool_constant<true>{});
    } else {
      fn(std::bool_constant<false>{});
    }
  }

  /// Best cluster for `item` among `shortlist` (which contains
  /// `seed_cluster`, the item's current cluster).
  template <bool EarlyExit>
  static uint32_t BestClusterShortlist(const Dataset& dataset,
                                       const Centroids& centroids,
                                       const Options& options, uint32_t item,
                                       uint32_t seed_cluster,
                                       std::span<const uint32_t> shortlist) {
    uint32_t best_cluster = seed_cluster;
    DistanceType best_distance = Traits::template ComputeDistance<false>(
        dataset, centroids, options, item, seed_cluster,
        Traits::kInfiniteDistance);
    for (const uint32_t cluster : shortlist) {
      if (cluster == seed_cluster) continue;
      const DistanceType distance =
          Traits::template ComputeDistance<EarlyExit>(
              dataset, centroids, options, item, cluster, best_distance);
      if (distance < best_distance) {
        best_distance = distance;
        best_cluster = cluster;
      }
    }
    return best_cluster;
  }

  /// One exhaustive chunk: items [begin, end) against all k clusters, one
  /// all-clusters scan per item into a chunk-local DistanceScratch.
  /// Accumulates into locals and stores to `stats` once at the end:
  /// adjacent chunks' ChunkStats share cache lines, and per-item writes
  /// through the pointer would false-share between workers.
  template <bool FirstPass>
  static void ExhaustiveChunk(const Dataset& dataset,
                              const Centroids& centroids,
                              const Options& options,
                              std::span<uint32_t> assignment, uint32_t begin,
                              uint32_t end, ChunkStats* stats) {
    DistanceScratch scratch;
    uint64_t moves = 0;
    for (uint32_t item = begin; item < end; ++item) {
      const uint32_t seed_cluster = FirstPass ? 0u : assignment[item];
      const uint32_t best = BestClusterExhaustive<Traits>(
          dataset, centroids, options, item, seed_cluster, scratch);
      if (FirstPass) {
        assignment[item] = best;
      } else if (best != seed_cluster) {
        assignment[item] = best;
        ++moves;
      }
    }
    stats->moves = moves;
    // Exactly k exact distances per item, all from the one scan.
    stats->evaluated =
        static_cast<uint64_t>(end - begin) * options.num_clusters;
  }

  /// Full exhaustive pass over the shard plan. Each item touches only its
  /// own assignment slot, so in-place parallel writes are race-free and
  /// order-independent; per-chunk stats merge through the accumulator in
  /// shard order.
  template <bool FirstPass>
  static uint64_t ExhaustivePass(const Dataset& dataset,
                                 const Centroids& centroids,
                                 const Options& options,
                                 std::span<uint32_t> assignment,
                                 const ShardPlan& plan, ThreadPool* pool,
                                 ShardedAccumulator<ChunkStats>& accumulator,
                                 uint64_t* evaluated,
                                 const CancelPoll& cancel) {
    accumulator.Reset(plan);
    ForEachShardChunk(
        plan, pool,
        [&](const ShardPlan::Chunk& chunk, uint32_t index, uint32_t) {
          if (cancel.Cancelled()) return;
          ExhaustiveChunk<FirstPass>(dataset, centroids, options, assignment,
                                     chunk.begin, chunk.end,
                                     accumulator.slot(index));
        });
    uint64_t moves = 0;
    accumulator.MergeInOrder([&](const ChunkStats& stats) {
      moves += stats.moves;
      *evaluated += stats.evaluated;
    });
    return moves;
  }

  /// One shortlist chunk: queries `provider` against the frozen
  /// `reference` snapshot, writes into the live assignment. An item the
  /// mask hook answers for is scored from one all-clusters scan (see the
  /// file comment); every other item walks its listed shortlist. Local
  /// accumulators for the same false-sharing reason as ExhaustiveChunk.
  template <bool EarlyExit>
  static void ShortlistChunk(const Dataset& dataset,
                             const Centroids& centroids,
                             const Options& options,
                             const Provider& provider,
                             std::span<const uint32_t> reference,
                             std::span<uint32_t> assignment, uint32_t begin,
                             uint32_t end, Scratch& scratch,
                             std::vector<uint32_t>& shortlist,
                             ChunkStats* stats) {
    const uint32_t k = options.num_clusters;
    std::vector<uint64_t> mask;
    DistanceScratch distances;
    if constexpr (kHasMaskHook) mask.resize((k + 63) / 64);
    uint64_t moves = 0;
    uint64_t shortlist_total = 0;
    for (uint32_t item = begin; item < end; ++item) {
      const uint32_t seed_cluster = assignment[item];
      // The shortlist's size as a set; 0 = the mask hook did not answer
      // (a mask holds at least the seed cluster).
      uint64_t mask_size = 0;
      if constexpr (kHasMaskHook) {
        if (provider.CandidateMask(item, reference, mask)) {
          LSHC_DCHECK((mask[seed_cluster / 64] >> (seed_cluster % 64)) & 1)
              << "the mask lacks the item's own cluster";
          for (const uint64_t word : mask) mask_size += std::popcount(word);
        }
      }
      uint32_t best = seed_cluster;
      if (mask_size == 0 ||
          !MaskedArgminFromSeed(
              Traits::ScanDistances(dataset, centroids, options, item,
                                    distances),
              std::span<const uint64_t>(mask), seed_cluster, &best)) {
        provider.GetCandidates(item, reference, scratch, &shortlist);
        LSHC_DCHECK(mask_size == 0 || shortlist.size() == mask_size)
            << "mask and listed shortlist disagree";
        best = BestClusterShortlist<EarlyExit>(
            dataset, centroids, options, item, seed_cluster, shortlist);
        mask_size = shortlist.size();
      }
      // Every shortlist entry counts as one exact distance, however the
      // item was scored: the seed cluster once, the rest in the scan.
      shortlist_total += mask_size;
      if (best != seed_cluster) {
        assignment[item] = best;
        ++moves;
      }
    }
    stats->moves = moves;
    stats->shortlist = shortlist_total;
    stats->evaluated = shortlist_total;
  }

  /// Full shortlist pass: every chunk runs against its (shard, worker)
  /// scratch, and the per-chunk stats merge through the accumulator in
  /// shard order.
  template <bool EarlyExit>
  static uint64_t ShortlistPass(
      const Dataset& dataset, const Centroids& centroids,
      const Options& options, const Provider& provider,
      std::span<const uint32_t> reference, std::span<uint32_t> assignment,
      const ShardPlan& plan, ThreadPool* pool,
      std::vector<ShardState>& shard_states,
      ShardedAccumulator<ChunkStats>& accumulator,
      uint64_t* shortlist_total, uint64_t* evaluated,
      const CancelPoll& cancel) {
    accumulator.Reset(plan);
    ForEachShardChunk(
        plan, pool,
        [&](const ShardPlan::Chunk& chunk, uint32_t index, uint32_t worker) {
          if (cancel.Cancelled()) return;
          ShardState& state = shard_states[chunk.shard];
          // Lazy scratch materialisation is race-free: slot (shard,
          // worker) is only ever touched from worker `worker`, and the
          // slot vector was sized up front (no reallocation).
          std::optional<Scratch>& scratch = state.scratches[worker];
          if (!scratch.has_value()) scratch.emplace(provider.MakeScratch());
          ShortlistChunk<EarlyExit>(dataset, centroids, options, provider,
                                    reference, assignment, chunk.begin,
                                    chunk.end, *scratch,
                                    state.shortlists[worker],
                                    accumulator.slot(index));
        });
    uint64_t moves = 0;
    accumulator.MergeInOrder([&](const ChunkStats& stats) {
      moves += stats.moves;
      *shortlist_total += stats.shortlist;
      *evaluated += stats.evaluated;
    });
    return moves;
  }
};

/// Runs the categorical (K-Modes) engine with candidate clusters supplied
/// by `provider`. RunKModes (clustering/kmodes.h) is this with
/// ExhaustiveProvider.
template <typename Provider>
Result<ClusteringResult> RunEngine(const CategoricalDataset& dataset,
                                   const EngineOptions& options,
                                   Provider& provider,
                                   ModeTable* final_modes = nullptr) {
  return ClusteringEngine<CategoricalClusteringTraits, Provider>::Run(
      dataset, options, provider, final_modes);
}

}  // namespace lshclust
