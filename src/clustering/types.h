#pragma once

/// \file types.h
/// \brief Shared option and result types for the clustering engines.

#include <cstdint>
#include <string>
#include <vector>

namespace lshclust {

/// \brief What to do when a cluster loses all members during an iteration.
enum class EmptyClusterPolicy {
  /// Keep the previous mode; the cluster can re-acquire members later.
  kKeepPreviousMode,
  /// Re-seed the mode from a random item (drawn from the engine's RNG).
  kReseedRandomItem,
};

/// \brief How initial centroids are selected.
enum class InitMethod {
  /// k distinct random items (the paper's choice, §IV-A).
  kRandom,
  /// Huang's frequency-based method (paper ref [3]).
  kHuang,
  /// Cao's density-distance method (paper ref [22]).
  kCao,
};

/// \brief Per-iteration measurements — one row of the paper's figure series.
struct IterationStats {
  /// 1-based iteration number within the refinement phase.
  uint32_t iteration = 0;
  /// Wall-clock seconds of this iteration (assignment + mode update).
  double seconds = 0;
  /// Items that changed cluster this iteration ("moves", Figs. 2c/3d/4b...).
  uint64_t moves = 0;
  /// Mean candidate shortlist size per item ("Avg. Clusters Returned",
  /// Figs. 2b/3c/...); equals k for the exhaustive baseline.
  double mean_shortlist = 0;
  /// Cost P(W, Q) (Eq. 4) evaluated after the mode update.
  double cost = 0;
};

/// \brief Outcome of a clustering run, including the instrumentation the
/// experiment harness turns into the paper's figures.
struct ClusteringResult {
  /// Final item -> cluster assignment, size n.
  std::vector<uint32_t> assignment;
  /// Per-iteration measurements for the refinement phase (the series
  /// plotted in the paper's per-iteration figures).
  std::vector<IterationStats> iterations;
  /// True iff the run stopped because no item moved.
  bool converged = false;
  /// True iff the run was stopped early by the caller's cancellation hook
  /// (EngineOptions::cancel). A cancelled result is still consistent: it
  /// reports the state after the last *completed* iteration (an
  /// interrupted pass is rolled back, never half-applied). If the hook
  /// fired before even the initial assignment pass completed, there is no
  /// completed state to report and `assignment` is empty.
  bool cancelled = false;
  /// Cost P(W, Q) after the final iteration.
  double final_cost = 0;
  /// Seconds spent selecting seeds and building initial centroids.
  double init_seconds = 0;
  /// Seconds of the initial exhaustive assignment pass (common to the
  /// baseline and the accelerated variant; Alg. 2 runs it before indexing).
  double initial_assign_seconds = 0;
  /// Seconds spent computing signatures and building the LSH index
  /// (zero for the baseline).
  double index_build_seconds = 0;
  /// Total wall-clock seconds: init + initial assign + index build +
  /// all refinement iterations.
  double total_seconds = 0;
  /// Exact distance kernel invocations across the refinement passes
  /// (cost evaluation is instrumentation and the initial exhaustive
  /// assignment is common to every method — Alg. 2 runs it before
  /// indexing — so neither is counted). For the exhaustive baseline this
  /// is n*k per pass; for shortlist providers it is the summed shortlist
  /// sizes, so the counter directly measures what the index saves.
  uint64_t exact_distances_evaluated = 0;

  /// Sum of per-iteration seconds (the refinement phase only).
  double RefinementSeconds() const {
    double total = 0;
    for (const auto& it : iterations) total += it.seconds;
    return total;
  }
  /// Total moves across the refinement phase.
  uint64_t TotalMoves() const {
    uint64_t total = 0;
    for (const auto& it : iterations) total += it.moves;
    return total;
  }
};

}  // namespace lshclust
