#include "api/clusterer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "persist/model_io.h"
#include "serving/frozen_model_impl.h"
#include "serving/routing.h"
#include "shard/shard_executor.h"
#include "shard/shard_plan.h"
#include "util/macros.h"

namespace lshclust {

std::string_view ModalityToString(Modality modality) {
  switch (modality) {
    case Modality::kCategorical:
      return "categorical";
    case Modality::kNumeric:
      return "numeric";
    case Modality::kMixed:
      return "mixed";
    case Modality::kTextBinarized:
      return "text-binarized";
  }
  return "unrecognized modality";
}

std::string_view AcceleratorToString(Accelerator accelerator) {
  switch (accelerator) {
    case Accelerator::kExhaustive:
      return "exhaustive";
    case Accelerator::kMinHash:
      return "minhash";
    case Accelerator::kSimHash:
      return "simhash";
    case Accelerator::kMixedConcat:
      return "mixed-concat";
    case Accelerator::kCanopy:
      return "canopy";
  }
  return "unrecognized accelerator";
}

Result<Modality> ParseModality(std::string_view text) {
  for (const Modality modality :
       {Modality::kCategorical, Modality::kNumeric, Modality::kMixed,
        Modality::kTextBinarized}) {
    if (text == ModalityToString(modality)) return modality;
  }
  return Status::InvalidArgument(
      "unknown modality '" + std::string(text) +
      "' (categorical | numeric | mixed | text-binarized)");
}

Result<Accelerator> ParseAccelerator(std::string_view text) {
  for (const Accelerator accelerator :
       {Accelerator::kExhaustive, Accelerator::kMinHash, Accelerator::kSimHash,
        Accelerator::kMixedConcat, Accelerator::kCanopy}) {
    if (text == AcceleratorToString(accelerator)) return accelerator;
  }
  return Status::InvalidArgument(
      "unknown accelerator '" + std::string(text) +
      "' (exhaustive | minhash | simhash | mixed-concat | canopy)");
}

namespace {

bool IsCategoricalShaped(Modality modality) {
  return modality == Modality::kCategorical ||
         modality == Modality::kTextBinarized;
}

/// The accelerators each modality supports, for validation and messages.
std::string_view SupportedAccelerators(Modality modality) {
  switch (modality) {
    case Modality::kCategorical:
    case Modality::kTextBinarized:
      return "exhaustive | minhash | canopy";
    case Modality::kNumeric:
      return "exhaustive | simhash";
    case Modality::kMixed:
      return "exhaustive | mixed-concat";
  }
  return "";
}

bool AcceleratorSupported(Modality modality, Accelerator accelerator) {
  switch (accelerator) {
    case Accelerator::kExhaustive:
      return true;
    case Accelerator::kMinHash:
    case Accelerator::kCanopy:
      return IsCategoricalShaped(modality);
    case Accelerator::kSimHash:
      return modality == Modality::kNumeric;
    case Accelerator::kMixedConcat:
      return modality == Modality::kMixed;
  }
  return false;
}

}  // namespace

Status ValidateClustererSpec(const ClustererSpec& spec) {
  switch (spec.modality) {
    case Modality::kCategorical:
    case Modality::kNumeric:
    case Modality::kMixed:
    case Modality::kTextBinarized:
      break;
    default:
      return Status::InvalidArgument(
          "spec.modality holds an unrecognized value (" +
          std::to_string(static_cast<int>(spec.modality)) + ")");
  }
  if (!AcceleratorSupported(spec.modality, spec.accelerator)) {
    return Status::InvalidArgument(
        std::string("the ") +
        std::string(AcceleratorToString(spec.accelerator)) +
        " accelerator does not apply to " +
        std::string(ModalityToString(spec.modality)) +
        " data; supported accelerators for this modality: " +
        std::string(SupportedAccelerators(spec.modality)));
  }
  LSHC_RETURN_NOT_OK(ValidateEngineOptions(spec.engine).WithContext(
      "spec.engine"));
  if (!IsCategoricalShaped(spec.modality) &&
      spec.engine.initial_seeds.empty() &&
      spec.engine.init_method != InitMethod::kRandom) {
    return Status::InvalidArgument(
        "Huang/Cao seeding is defined on categorical attribute frequencies; "
        "use InitMethod::kRandom (or explicit initial_seeds) for " +
        std::string(ModalityToString(spec.modality)) + " data");
  }
  if (spec.modality == Modality::kMixed &&
      !(std::isfinite(spec.gamma) && spec.gamma >= 0.0)) {
    return Status::InvalidArgument(
        "spec.gamma weighs the numeric distance and must be a finite "
        "non-negative number; got " + std::to_string(spec.gamma));
  }
  switch (spec.accelerator) {
    case Accelerator::kMinHash:
      LSHC_RETURN_NOT_OK(
          MinHashShortlistFamily::ValidateOptions(spec.minhash)
              .WithContext("spec.minhash"));
      break;
    case Accelerator::kSimHash:
      LSHC_RETURN_NOT_OK(
          SimHashShortlistFamily::ValidateOptions(spec.simhash)
              .WithContext("spec.simhash"));
      break;
    case Accelerator::kMixedConcat:
      LSHC_RETURN_NOT_OK(
          MixedShortlistFamily::ValidateOptions(spec.mixed_index)
              .WithContext("spec.mixed_index"));
      break;
    case Accelerator::kCanopy:
      LSHC_RETURN_NOT_OK(
          ValidateCanopyOptions(spec.canopy).WithContext("spec.canopy"));
      break;
    case Accelerator::kExhaustive:
      break;
  }
  return Status::OK();
}

namespace internal {

namespace {

/// Runs the engine and folds the outcome into a FitReport: cancellation
/// becomes FitReport::status = kCancelled (the partial result stays), and
/// banding-index providers contribute their diagnostics. `retain` mirrors
/// the dispatcher's retention decision: occupancy stats and the memory
/// footprint are reported only for an index that stays alive (the
/// dispatcher commits exactly the providers this marks retained), so the
/// report can never describe freed state.
template <typename Traits, typename Provider>
Result<FitReport> RunToReport(const typename Traits::Dataset& dataset,
                              const typename Traits::Options& options,
                              Provider& provider,
                              typename Traits::Centroids* model,
                              bool retain = false) {
  FitReport report;
  LSHC_ASSIGN_OR_RETURN(report.result,
                        (ClusteringEngine<Traits, Provider>::Run(
                            dataset, options, provider, model)));
  if (report.result.cancelled) {
    report.status = Status::Cancelled(
        "run stopped by the cancellation hook after " +
        std::to_string(report.result.iterations.size()) +
        " completed refinement iteration(s); the report holds that state");
  }
  if constexpr (requires {
                  provider.index();
                  provider.IndexStats();
                }) {
    if (provider.index() != nullptr) {
      report.has_index = true;
      report.signature_seconds = provider.signature_seconds();
      report.index_seconds = provider.index_seconds();
      if (retain) {
        report.index_retained = true;
        report.index_stats = provider.IndexStats();
        report.index_memory_bytes = provider.MemoryUsageBytes();
      }
    }
  }
  return report;
}

/// Nearest fitted centroid for every item of an out-of-sample dataset —
/// literally the engine's exhaustive argmin kernel
/// (BestClusterExhaustive, seed cluster 0), so ties resolve identically
/// to a Fit pass by construction. Chunked across a worker pool when the
/// spec's num_threads asks for one; per-item pure, so bit-identical
/// either way.
template <typename Traits>
std::vector<uint32_t> AssignNearest(const typename Traits::Dataset& dataset,
                                    const typename Traits::Centroids& model,
                                    const typename Traits::Options& options) {
  const uint32_t n = dataset.num_items();
  const uint32_t k = options.num_clusters;
  std::vector<uint32_t> assignment(n, 0);
  const auto assign_range = [&](uint32_t begin, uint32_t end) {
    for (uint32_t item = begin; item < end; ++item) {
      assignment[item] = BestClusterExhaustive<Traits, /*EarlyExit=*/true>(
          dataset, model, options, item, /*seed_cluster=*/0, k);
    }
  };
  // Predict spawns its pool per call (it has no run to borrow one from),
  // so small batches — the per-micro-batch routing pattern — stay
  // sequential rather than paying thread startup per arrival batch.
  const uint32_t num_threads = ResolveThreadCount(options.num_threads);
  if (num_threads <= 1 || n < 4096u) {
    assign_range(0, n);
  } else {
    ThreadPool pool(num_threads);
    pool.ParallelFor(0, n, options.chunk_size,
                     [&](uint32_t begin, uint32_t end, uint32_t) {
                       assign_range(begin, end);
                     });
  }
  return assignment;
}

/// The per-worker scratch and per-item routing kernel live in
/// serving/routing.h, shared with FrozenModel::Route so the serving
/// layer's snapshots are bit-identical to PredictRouted by construction.
using RoutedScratch = serving::RoutedScratch;

/// Routed nearest-centroid assignment through a retained fit-time index:
/// per item, sign the query (`sign_query(dataset, item, scratch)` fills
/// scratch.signature) and hand it to the shared routing kernel — probe
/// the fit-time buckets, dereference candidate clusters through the
/// fitted assignment, take the nearest candidate, exhaustive fallback on
/// an empty probe (see serving::RouteSignedQuery for the
/// tie-breaking contract). Shard-chunked through the same ShardPlan the
/// engine uses; per-item work is pure, so every (threads x shards)
/// setting is bit-identical, and like AssignNearest the pool is spawned
/// per call so small arrival batches stay sequential.
template <typename Traits, typename Provider, typename SignQueryFn>
std::vector<uint32_t> AssignRouted(const typename Traits::Dataset& dataset,
                                   const typename Traits::Centroids& model,
                                   const typename Traits::Options& options,
                                   const Provider& provider,
                                   std::span<const uint32_t> fit_assignment,
                                   const SignQueryFn& sign_query) {
  const uint32_t n = dataset.num_items();
  const uint32_t k = options.num_clusters;
  const BandedIndex& index = *provider.index();
  const serving::RoutedStateView view{&index, fit_assignment};
  std::vector<uint32_t> assignment(n, 0);

  const auto route_range = [&](uint32_t begin, uint32_t end,
                               RoutedScratch& scratch) {
    for (uint32_t item = begin; item < end; ++item) {
      sign_query(dataset, item, scratch);
      assignment[item] = serving::RouteSignedQuery<Traits>(
          dataset, model, options, view, item, scratch);
    }
  };

  const ShardPlan plan =
      ShardPlan::Clamped(n, options.num_shards, options.chunk_size);
  const auto make_scratch = [&] {
    return serving::MakeRoutedScratch(k, index.signature_width());
  };
  const uint32_t num_threads = ResolveThreadCount(options.num_threads);
  if (num_threads <= 1 || n < 4096u) {
    RoutedScratch scratch = make_scratch();
    ForEachShardChunk(plan, nullptr,
                      [&](const ShardPlan::Chunk& chunk, uint32_t, uint32_t) {
                        route_range(chunk.begin, chunk.end, scratch);
                      });
  } else {
    ThreadPool pool(num_threads);
    // Scratches are materialised lazily on the worker that first runs a
    // chunk; their contents never influence results (every query
    // epoch-resets the dedup and overwrites the signature buffer).
    std::vector<std::optional<RoutedScratch>> scratches(num_threads);
    ForEachShardChunk(
        plan, &pool,
        [&](const ShardPlan::Chunk& chunk, uint32_t, uint32_t worker) {
          std::optional<RoutedScratch>& scratch = scratches[worker];
          if (!scratch.has_value()) scratch.emplace(make_scratch());
          route_range(chunk.begin, chunk.end, *scratch);
        });
  }
  return assignment;
}

}  // namespace

/// \brief The type-erasure seam: one virtual Fit/Predict per dataset
/// shape, overridden by the dispatcher of the spec's modality. The base
/// implementations reject mismatched dataset shapes with an actionable
/// error, so every concrete dispatcher only overrides its own shape.
class EngineDispatcher {
 public:
  explicit EngineDispatcher(const ClustererSpec& spec) : spec_(spec) {}
  virtual ~EngineDispatcher() = default;

  virtual Result<FitReport> Fit(const CategoricalDataset&) {
    return WrongShape("a categorical");
  }
  virtual Result<FitReport> Fit(const NumericDataset&) {
    return WrongShape("a numeric");
  }
  virtual Result<FitReport> Fit(const MixedDataset&) {
    return WrongShape("a mixed");
  }

  virtual Result<std::vector<uint32_t>> Predict(
      const CategoricalDataset&) const {
    return WrongShape("a categorical");
  }
  virtual Result<std::vector<uint32_t>> Predict(
      const NumericDataset&) const {
    return WrongShape("a numeric");
  }
  virtual Result<std::vector<uint32_t>> Predict(const MixedDataset&) const {
    return WrongShape("a mixed");
  }

  virtual Result<std::vector<uint32_t>> PredictRouted(
      const CategoricalDataset&) const {
    return WrongShape("a categorical");
  }
  virtual Result<std::vector<uint32_t>> PredictRouted(
      const NumericDataset&) const {
    return WrongShape("a numeric");
  }
  virtual Result<std::vector<uint32_t>> PredictRouted(
      const MixedDataset&) const {
    return WrongShape("a mixed");
  }

  /// Handle on the retained fit-time index; overridden by dispatchers
  /// that can retain one.
  virtual Result<IndexHandle> RetainedIndex() const {
    return NoRetainedIndex();
  }

  /// Immutable deep-copied snapshot of the fitted state for the serving
  /// layer; overridden by every concrete dispatcher.
  virtual Result<std::shared_ptr<const serving::FrozenModel>> Snapshot()
      const {
    return NotFittedSnapshot();
  }

  virtual bool fitted() const = 0;

  /// The validated spec this dispatcher was built from — the single
  /// stored copy (Clusterer::spec() reads it through here).
  const ClustererSpec& spec() const { return spec_; }

 protected:
  Status WrongShape(std::string_view got) const {
    return Status::InvalidArgument(
        "this Clusterer is configured for " +
        std::string(ModalityToString(spec_.modality)) + " data, but " +
        std::string(got) +
        " dataset was passed; create a Clusterer whose spec.modality "
        "matches the dataset");
  }

  Status NotFitted() const {
    return Status::InvalidArgument(
        "Predict requires a fitted model; call Fit first");
  }

  Status NotFittedSnapshot() const {
    return Status::InvalidArgument(
        "Snapshot requires a fitted model; call Fit first");
  }

  Status NoRetainedIndex() const {
    return Status::InvalidArgument(
        "no retained shortlist index: either no Fit with a banding "
        "accelerator (minhash | simhash | mixed-concat) has succeeded "
        "yet, spec.retain_index is false, or the fit was cancelled "
        "before its index was built");
  }

  /// IndexHandle's constructor is private to this seam; dispatchers that
  /// retain an index build their handles through here. Handles carry the
  /// dispatcher's fit-generation token so they can report (and, in debug
  /// builds, assert) staleness after a refit — see api/index_handle.h.
  IndexHandle MakeHandle(const BandedIndex* index,
                         std::span<const uint32_t> assignment,
                         uint64_t memory_bytes,
                         uint64_t dataset_sign_passes) const {
    return IndexHandle(index, assignment, memory_bytes, dataset_sign_passes,
                       generation_, *generation_);
  }

  /// Called by each dispatcher at the commit point of a successful Fit:
  /// the retained state handles pointed at is being replaced, so every
  /// outstanding IndexHandle flips to !valid(). FrozenModel snapshots are
  /// deep copies and are deliberately unaffected.
  void BumpGeneration() { ++*generation_; }

  Status UnsupportedAccelerator() const {
    // Unreachable after ValidateClustererSpec; kept as a real error (not
    // an abort) so a hand-rolled dispatcher misuse stays debuggable.
    return Status::InvalidArgument(
        std::string("accelerator ") +
        std::string(AcceleratorToString(spec_.accelerator)) +
        " is not implemented for " +
        std::string(ModalityToString(spec_.modality)) + " data");
  }

  ClustererSpec spec_;

 private:
  /// Fit-generation cell shared with every handle this dispatcher makes.
  std::shared_ptr<uint64_t> generation_ = std::make_shared<uint64_t>(0);
};

namespace {

/// K-Modes cell (kCategorical and kTextBinarized): exhaustive, MinHash
/// shortlists, or canopy shortlists over a CategoricalDataset. The
/// MinHash cell retains its prepared provider (spec.retain_index) as the
/// model's routed-query state.
class CategoricalDispatcher final : public EngineDispatcher {
 public:
  using EngineDispatcher::EngineDispatcher;

  Result<FitReport> Fit(const CategoricalDataset& dataset) override {
    // Built into locals and only moved into the members on success: a
    // rejected Fit leaves the previously fitted model — and any retained
    // index with outstanding handles — usable.
    ModeTable modes(spec_.engine.num_clusters, dataset.num_attributes());
    std::unique_ptr<ClusterShortlistProvider> retained;
    FitReport report;
    switch (spec_.accelerator) {
      case Accelerator::kExhaustive: {
        ExhaustiveProvider provider;
        LSHC_ASSIGN_OR_RETURN(
            report, (RunToReport<CategoricalClusteringTraits>(
                        dataset, spec_.engine, provider, &modes)));
        break;
      }
      case Accelerator::kMinHash: {
        auto provider = std::make_unique<ClusterShortlistProvider>(
            spec_.minhash, spec_.engine.num_clusters);
        LSHC_ASSIGN_OR_RETURN(
            report, (RunToReport<CategoricalClusteringTraits>(
                        dataset, spec_.engine, *provider, &modes,
                        spec_.retain_index)));
        // A cancelled Prepare installs no index; never retain a provider
        // without one.
        if (spec_.retain_index && provider->index() != nullptr) {
          retained = std::move(provider);
        }
        break;
      }
      case Accelerator::kCanopy: {
        CanopyShortlistProvider provider(spec_.canopy,
                                         spec_.engine.num_clusters);
        LSHC_ASSIGN_OR_RETURN(
            report, (RunToReport<CategoricalClusteringTraits>(
                        dataset, spec_.engine, provider, &modes)));
        break;
      }
      default:
        return UnsupportedAccelerator();
    }
    num_attributes_ = dataset.num_attributes();
    modes_ = std::move(modes);
    retained_ = std::move(retained);
    BumpGeneration();  // outstanding handles now point at replaced state
    // The fitted assignment is the routed queries' cluster-reference
    // store; without a retained index nothing can read it, so don't
    // hold an n-sized copy for the model's lifetime.
    if (retained_ != nullptr) {
      fit_assignment_ = report.result.assignment;
    } else {
      fit_assignment_ = {};
    }
    return report;
  }

  /// Installs a decoded model file as this dispatcher's fitted state
  /// (Clusterer::FromSnapshot): modes rebuilt from the dump, the shortlist
  /// provider reassembled from parts — hashers from persisted options +
  /// seeds, the index adopted verbatim, zero re-signing.
  Status Adopt(persist::DecodedModel&& model) {
    LSHC_ASSIGN_OR_RETURN(ModeTable modes, persist::BuildModeTable(model));
    num_attributes_ = model.shape_primary;
    if (model.family == persist::ModelFamilyKind::kMinHash) {
      LSHC_ASSIGN_OR_RETURN(auto routing,
                            persist::BuildMinHashRouting(std::move(model)));
      fit_assignment_ = std::move(routing.fit_assignment);
      retained_ = std::make_unique<ClusterShortlistProvider>(
          ClusterShortlistProvider::FromParts(
              std::move(routing.family), spec_.engine.num_clusters,
              std::move(routing.index)));
    } else {
      retained_ = nullptr;
      fit_assignment_ = {};
    }
    modes_ = std::move(modes);
    BumpGeneration();
    return Status::OK();
  }

  Result<std::vector<uint32_t>> Predict(
      const CategoricalDataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    return AssignNearest<CategoricalClusteringTraits>(dataset, *modes_,
                                                      spec_.engine);
  }

  Result<std::vector<uint32_t>> PredictRouted(
      const CategoricalDataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    if (retained_ == nullptr) {
      return AssignNearest<CategoricalClusteringTraits>(dataset, *modes_,
                                                        spec_.engine);
    }
    return AssignRouted<CategoricalClusteringTraits>(
        dataset, *modes_, spec_.engine, *retained_, fit_assignment_,
        [this](const CategoricalDataset& queries, uint32_t item,
               RoutedScratch& scratch) {
          queries.PresentTokens(item, &scratch.tokens);
          retained_->family().ComputeQuerySignature(
              scratch.tokens, scratch.signature.data());
        });
  }

  Result<IndexHandle> RetainedIndex() const override {
    if (retained_ == nullptr) return NoRetainedIndex();
    return MakeHandle(retained_->index(), fit_assignment_,
                      retained_->MemoryUsageBytes(),
                      retained_->dataset_sign_passes());
  }

  Result<std::shared_ptr<const serving::FrozenModel>> Snapshot()
      const override {
    if (!modes_.has_value()) return NotFittedSnapshot();
    if (retained_ == nullptr) {
      return std::shared_ptr<const serving::FrozenModel>(
          std::make_shared<serving::internal::FrozenModelImpl<
              CategoricalClusteringTraits>>(
              spec_.engine, *modes_, std::nullopt, nullptr,
              std::vector<uint32_t>(), num_attributes_, 0));
    }
    return std::shared_ptr<const serving::FrozenModel>(
        std::make_shared<serving::internal::FrozenModelImpl<
            CategoricalClusteringTraits, MinHashShortlistFamily>>(
            spec_.engine, *modes_, retained_->family(),
            std::make_unique<BandedIndex>(*retained_->index()),
            fit_assignment_, num_attributes_, 0));
  }

  bool fitted() const override { return modes_.has_value(); }

 private:
  Status CheckPredictable(const CategoricalDataset& dataset) const {
    if (!modes_.has_value()) return NotFitted();
    if (dataset.num_items() == 0) {
      return Status::InvalidArgument("dataset is empty");
    }
    if (dataset.num_attributes() != num_attributes_) {
      return Status::InvalidArgument(
          "Predict dataset has " + std::to_string(dataset.num_attributes()) +
          " attributes; the fitted model expects " +
          std::to_string(num_attributes_));
    }
    return Status::OK();
  }

  std::optional<ModeTable> modes_;
  uint32_t num_attributes_ = 0;
  // Retained fit-time shortlist state (kMinHash + retain_index): the
  // provider that prepared the index during Fit, plus the fitted
  // assignment as the cluster-reference store routed queries dereference.
  // Heap-allocated so handles and routed queries survive Clusterer moves.
  std::unique_ptr<ClusterShortlistProvider> retained_;
  std::vector<uint32_t> fit_assignment_;
};

/// K-Means cell (kNumeric): exhaustive or SimHash shortlists over a
/// NumericDataset. The SimHash cell retains its prepared provider
/// (spec.retain_index) as the model's routed-query state.
class NumericDispatcher final : public EngineDispatcher {
 public:
  using EngineDispatcher::EngineDispatcher;

  Result<FitReport> Fit(const NumericDataset& dataset) override {
    // The engine writes centroids_ only when it returns a result — and
    // the retained provider is committed only then too — so a rejected
    // Fit leaves the previously fitted model usable.
    const KMeansOptions options = Options();
    std::unique_ptr<SimHashShortlistProvider> retained;
    FitReport report;
    switch (spec_.accelerator) {
      case Accelerator::kExhaustive: {
        ExhaustiveProvider provider;
        LSHC_ASSIGN_OR_RETURN(report,
                              (RunToReport<NumericClusteringTraits>(
                                  dataset, options, provider, &centroids_)));
        break;
      }
      case Accelerator::kSimHash: {
        auto provider = std::make_unique<SimHashShortlistProvider>(
            spec_.simhash, spec_.engine.num_clusters);
        LSHC_ASSIGN_OR_RETURN(report,
                              (RunToReport<NumericClusteringTraits>(
                                  dataset, options, *provider, &centroids_,
                                  spec_.retain_index)));
        if (spec_.retain_index && provider->index() != nullptr) {
          retained = std::move(provider);
        }
        break;
      }
      default:
        return UnsupportedAccelerator();
    }
    dimensions_ = dataset.dimensions();
    fitted_ = true;
    retained_ = std::move(retained);
    BumpGeneration();  // outstanding handles now point at replaced state
    // The fitted assignment is the routed queries' cluster-reference
    // store; without a retained index nothing can read it, so don't
    // hold an n-sized copy for the model's lifetime.
    if (retained_ != nullptr) {
      fit_assignment_ = report.result.assignment;
    } else {
      fit_assignment_ = {};
    }
    return report;
  }

  /// Installs a decoded model file as this dispatcher's fitted state
  /// (Clusterer::FromSnapshot); see CategoricalDispatcher::Adopt.
  Status Adopt(persist::DecodedModel&& model) {
    LSHC_ASSIGN_OR_RETURN(centroids_, persist::BuildCentroidTable(model));
    dimensions_ = model.shape_primary;
    if (model.family == persist::ModelFamilyKind::kSimHash) {
      LSHC_ASSIGN_OR_RETURN(auto routing,
                            persist::BuildSimHashRouting(std::move(model)));
      fit_assignment_ = std::move(routing.fit_assignment);
      retained_ = std::make_unique<SimHashShortlistProvider>(
          SimHashShortlistProvider::FromParts(
              std::move(routing.family), spec_.engine.num_clusters,
              std::move(routing.index)));
    } else {
      retained_ = nullptr;
      fit_assignment_ = {};
    }
    fitted_ = true;
    BumpGeneration();
    return Status::OK();
  }

  Result<std::vector<uint32_t>> Predict(
      const NumericDataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    return AssignNearest<NumericClusteringTraits>(dataset, centroids_,
                                                  Options());
  }

  Result<std::vector<uint32_t>> PredictRouted(
      const NumericDataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    if (retained_ == nullptr) {
      return AssignNearest<NumericClusteringTraits>(dataset, centroids_,
                                                    Options());
    }
    return AssignRouted<NumericClusteringTraits>(
        dataset, centroids_, Options(), *retained_, fit_assignment_,
        [this](const NumericDataset& queries, uint32_t item,
               RoutedScratch& scratch) {
          retained_->family().ComputeQuerySignature(
              queries.Row(item), scratch.signature.data());
        });
  }

  Result<IndexHandle> RetainedIndex() const override {
    if (retained_ == nullptr) return NoRetainedIndex();
    return MakeHandle(retained_->index(), fit_assignment_,
                      retained_->MemoryUsageBytes(),
                      retained_->dataset_sign_passes());
  }

  Result<std::shared_ptr<const serving::FrozenModel>> Snapshot()
      const override {
    if (!fitted_) return NotFittedSnapshot();
    if (retained_ == nullptr) {
      return std::shared_ptr<const serving::FrozenModel>(
          std::make_shared<
              serving::internal::FrozenModelImpl<NumericClusteringTraits>>(
              Options(), centroids_, std::nullopt, nullptr,
              std::vector<uint32_t>(), dimensions_, 0));
    }
    return std::shared_ptr<const serving::FrozenModel>(
        std::make_shared<serving::internal::FrozenModelImpl<
            NumericClusteringTraits, SimHashShortlistFamily>>(
            Options(), centroids_, retained_->family(),
            std::make_unique<BandedIndex>(*retained_->index()),
            fit_assignment_, dimensions_, 0));
  }

  bool fitted() const override { return fitted_; }

 private:
  KMeansOptions Options() const {
    KMeansOptions options;
    static_cast<EngineOptions&>(options) = spec_.engine;
    return options;
  }

  Status CheckPredictable(const NumericDataset& dataset) const {
    if (!fitted_) return NotFitted();
    if (dataset.num_items() == 0) {
      return Status::InvalidArgument("dataset is empty");
    }
    if (dataset.dimensions() != dimensions_) {
      return Status::InvalidArgument(
          "Predict dataset has " + std::to_string(dataset.dimensions()) +
          " dimensions; the fitted model expects " +
          std::to_string(dimensions_));
    }
    return Status::OK();
  }

  CentroidTable centroids_{0, 0};
  uint32_t dimensions_ = 0;
  bool fitted_ = false;
  std::unique_ptr<SimHashShortlistProvider> retained_;
  std::vector<uint32_t> fit_assignment_;
};

/// K-Prototypes cell (kMixed): exhaustive or concatenated MinHash+SimHash
/// shortlists over a MixedDataset. The mixed-concat cell retains its
/// prepared provider (spec.retain_index) as the model's routed-query
/// state.
class MixedDispatcher final : public EngineDispatcher {
 public:
  using EngineDispatcher::EngineDispatcher;

  Result<FitReport> Fit(const MixedDataset& dataset) override {
    // Built into locals and only moved into the members on success: a
    // rejected Fit leaves the previously fitted model usable.
    const KPrototypesOptions options = Options();
    MixedClusteringTraits::Centroids prototypes{
        ModeTable(spec_.engine.num_clusters, dataset.num_categorical()),
        CentroidTable(spec_.engine.num_clusters, dataset.num_numeric())};
    std::unique_ptr<MixedShortlistProvider> retained;
    FitReport report;
    switch (spec_.accelerator) {
      case Accelerator::kExhaustive: {
        ExhaustiveProvider provider;
        LSHC_ASSIGN_OR_RETURN(report,
                              (RunToReport<MixedClusteringTraits>(
                                  dataset, options, provider, &prototypes)));
        break;
      }
      case Accelerator::kMixedConcat: {
        auto provider = std::make_unique<MixedShortlistProvider>(
            spec_.mixed_index, spec_.engine.num_clusters);
        LSHC_ASSIGN_OR_RETURN(report,
                              (RunToReport<MixedClusteringTraits>(
                                  dataset, options, *provider, &prototypes,
                                  spec_.retain_index)));
        if (spec_.retain_index && provider->index() != nullptr) {
          retained = std::move(provider);
        }
        break;
      }
      default:
        return UnsupportedAccelerator();
    }
    num_categorical_ = dataset.num_categorical();
    num_numeric_ = dataset.num_numeric();
    prototypes_ = std::move(prototypes);
    retained_ = std::move(retained);
    BumpGeneration();  // outstanding handles now point at replaced state
    // The fitted assignment is the routed queries' cluster-reference
    // store; without a retained index nothing can read it, so don't
    // hold an n-sized copy for the model's lifetime.
    if (retained_ != nullptr) {
      fit_assignment_ = report.result.assignment;
    } else {
      fit_assignment_ = {};
    }
    return report;
  }

  /// Installs a decoded model file as this dispatcher's fitted state
  /// (Clusterer::FromSnapshot); see CategoricalDispatcher::Adopt.
  Status Adopt(persist::DecodedModel&& model) {
    LSHC_ASSIGN_OR_RETURN(ModeTable modes, persist::BuildModeTable(model));
    LSHC_ASSIGN_OR_RETURN(CentroidTable centroids,
                          persist::BuildCentroidTable(model));
    num_categorical_ = model.shape_primary;
    num_numeric_ = model.shape_secondary;
    if (model.family == persist::ModelFamilyKind::kMixedConcat) {
      LSHC_ASSIGN_OR_RETURN(auto routing,
                            persist::BuildMixedRouting(std::move(model)));
      fit_assignment_ = std::move(routing.fit_assignment);
      retained_ = std::make_unique<MixedShortlistProvider>(
          MixedShortlistProvider::FromParts(
              std::move(routing.family), spec_.engine.num_clusters,
              std::move(routing.index)));
    } else {
      retained_ = nullptr;
      fit_assignment_ = {};
    }
    prototypes_ = MixedClusteringTraits::Centroids{std::move(modes),
                                                   std::move(centroids)};
    BumpGeneration();
    return Status::OK();
  }

  Result<std::vector<uint32_t>> Predict(
      const MixedDataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    return AssignNearest<MixedClusteringTraits>(dataset, *prototypes_,
                                                Options());
  }

  Result<std::vector<uint32_t>> PredictRouted(
      const MixedDataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    if (retained_ == nullptr) {
      return AssignNearest<MixedClusteringTraits>(dataset, *prototypes_,
                                                  Options());
    }
    return AssignRouted<MixedClusteringTraits>(
        dataset, *prototypes_, Options(), *retained_, fit_assignment_,
        [this](const MixedDataset& queries, uint32_t item,
               RoutedScratch& scratch) {
          queries.categorical().PresentTokens(item, &scratch.tokens);
          retained_->family().ComputeQuerySignature(
              scratch.tokens, queries.numeric().Row(item),
              &scratch.centered, scratch.signature.data());
        });
  }

  Result<IndexHandle> RetainedIndex() const override {
    if (retained_ == nullptr) return NoRetainedIndex();
    return MakeHandle(retained_->index(), fit_assignment_,
                      retained_->MemoryUsageBytes(),
                      retained_->dataset_sign_passes());
  }

  Result<std::shared_ptr<const serving::FrozenModel>> Snapshot()
      const override {
    if (!prototypes_.has_value()) return NotFittedSnapshot();
    if (retained_ == nullptr) {
      return std::shared_ptr<const serving::FrozenModel>(
          std::make_shared<
              serving::internal::FrozenModelImpl<MixedClusteringTraits>>(
              Options(), *prototypes_, std::nullopt, nullptr,
              std::vector<uint32_t>(), num_categorical_, num_numeric_));
    }
    return std::shared_ptr<const serving::FrozenModel>(
        std::make_shared<serving::internal::FrozenModelImpl<
            MixedClusteringTraits, MixedShortlistFamily>>(
            Options(), *prototypes_, retained_->family(),
            std::make_unique<BandedIndex>(*retained_->index()),
            fit_assignment_, num_categorical_, num_numeric_));
  }

  bool fitted() const override { return prototypes_.has_value(); }

 private:
  KPrototypesOptions Options() const {
    KPrototypesOptions options;
    static_cast<EngineOptions&>(options) = spec_.engine;
    options.gamma = spec_.gamma;
    return options;
  }

  Status CheckPredictable(const MixedDataset& dataset) const {
    if (!prototypes_.has_value()) return NotFitted();
    if (dataset.num_items() == 0) {
      return Status::InvalidArgument("dataset is empty");
    }
    if (dataset.num_categorical() != num_categorical_ ||
        dataset.num_numeric() != num_numeric_) {
      return Status::InvalidArgument(
          "Predict dataset has " + std::to_string(dataset.num_categorical()) +
          " categorical + " + std::to_string(dataset.num_numeric()) +
          " numeric attributes; the fitted model expects " +
          std::to_string(num_categorical_) + " + " +
          std::to_string(num_numeric_));
    }
    return Status::OK();
  }

  std::optional<MixedClusteringTraits::Centroids> prototypes_;
  uint32_t num_categorical_ = 0;
  uint32_t num_numeric_ = 0;
  std::unique_ptr<MixedShortlistProvider> retained_;
  std::vector<uint32_t> fit_assignment_;
};

}  // namespace
}  // namespace internal

StreamingSession::StreamingSession(std::unique_ptr<StreamingMHKModes> engine)
    : engine_(std::move(engine)) {}
StreamingSession::~StreamingSession() = default;
StreamingSession::StreamingSession(StreamingSession&&) noexcept = default;
StreamingSession& StreamingSession::operator=(StreamingSession&&) noexcept =
    default;

Result<uint32_t> StreamingSession::Ingest(std::span<const uint32_t> row) {
  LSHC_ASSIGN_OR_RETURN(const uint32_t cluster, engine_->Ingest(row));
  MaybePublish(1);
  return cluster;
}

Result<std::span<const uint32_t>> StreamingSession::IngestBatch(
    std::span<const uint32_t> rows) {
  LSHC_ASSIGN_OR_RETURN(std::span<const uint32_t> view,
                        engine_->IngestBatch(rows));
  MaybePublish(view.size());
  return view;
}

void StreamingSession::MaybePublish(uint64_t ingested) {
  if (publish_to_ == nullptr || publish_every_ == 0) return;
  since_publish_ += ingested;
  if (since_publish_ < publish_every_) return;
  since_publish_ = 0;
  Result<std::shared_ptr<const serving::FrozenModel>> snapshot = Snapshot();
  // Snapshot of a live session cannot fail today; guard anyway so a
  // future failure mode degrades to "no publish" rather than an abort on
  // the ingest path.
  if (snapshot.ok()) publish_to_->Publish(*std::move(snapshot));
}

Result<std::shared_ptr<const serving::FrozenModel>> StreamingSession::Snapshot()
    const {
  const StreamingMHKModes& engine = *engine_;
  EngineOptions options;
  options.num_clusters = engine.num_clusters();
  return std::shared_ptr<const serving::FrozenModel>(
      std::make_shared<serving::internal::FrozenModelImpl<
          CategoricalClusteringTraits, MinHashShortlistFamily>>(
          options, engine.modes(), engine.family(),
          std::make_unique<BandedIndex>(engine.live_index()),
          engine.assignment(), engine.num_attributes(), 0));
}

Clusterer::Clusterer(std::unique_ptr<internal::EngineDispatcher> dispatcher)
    : dispatcher_(std::move(dispatcher)) {}
Clusterer::~Clusterer() = default;
Clusterer::Clusterer(Clusterer&&) noexcept = default;
Clusterer& Clusterer::operator=(Clusterer&&) noexcept = default;

Result<Clusterer> Clusterer::Create(const ClustererSpec& spec) {
  LSHC_RETURN_NOT_OK(ValidateClustererSpec(spec));
  std::unique_ptr<internal::EngineDispatcher> dispatcher;
  switch (spec.modality) {
    case Modality::kCategorical:
    case Modality::kTextBinarized:
      dispatcher = std::make_unique<internal::CategoricalDispatcher>(spec);
      break;
    case Modality::kNumeric:
      dispatcher = std::make_unique<internal::NumericDispatcher>(spec);
      break;
    case Modality::kMixed:
      dispatcher = std::make_unique<internal::MixedDispatcher>(spec);
      break;
  }
  return Clusterer(std::move(dispatcher));
}

Result<Clusterer> Clusterer::FromSnapshot(const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(persist::DecodedModel model,
                        persist::DecodeModelFile(path));
  // Reconstruct the spec the persisted model implies. Only what routing
  // reads matters: modality/accelerator, k, gamma and the index options.
  // Init-method / seeds are fit-time-only knobs a loaded model never
  // touches — pinned to kRandom so the spec validates for every modality.
  ClustererSpec spec;
  spec.engine.num_clusters = model.num_clusters;
  spec.engine.init_method = InitMethod::kRandom;
  spec.retain_index = true;
  switch (model.modality) {
    case persist::ModelModality::kCategorical:
      spec.modality = Modality::kCategorical;
      break;
    case persist::ModelModality::kNumeric:
      spec.modality = Modality::kNumeric;
      break;
    case persist::ModelModality::kMixed:
      spec.modality = Modality::kMixed;
      spec.gamma = model.gamma;
      break;
  }
  switch (model.family) {
    case persist::ModelFamilyKind::kNone:
      spec.accelerator = Accelerator::kExhaustive;
      break;
    case persist::ModelFamilyKind::kMinHash:
      spec.accelerator = Accelerator::kMinHash;
      spec.minhash = model.minhash;
      break;
    case persist::ModelFamilyKind::kSimHash:
      spec.accelerator = Accelerator::kSimHash;
      spec.simhash = model.simhash;
      break;
    case persist::ModelFamilyKind::kMixedConcat:
      spec.accelerator = Accelerator::kMixedConcat;
      spec.mixed_index = model.mixed;
      break;
  }
  LSHC_RETURN_NOT_OK(
      ValidateClustererSpec(spec).WithContext("model file '" + path + "'"));
  std::unique_ptr<internal::EngineDispatcher> dispatcher;
  Status adopted = Status::OK();
  switch (model.modality) {
    case persist::ModelModality::kCategorical: {
      auto d = std::make_unique<internal::CategoricalDispatcher>(spec);
      adopted = d->Adopt(std::move(model));
      dispatcher = std::move(d);
      break;
    }
    case persist::ModelModality::kNumeric: {
      auto d = std::make_unique<internal::NumericDispatcher>(spec);
      adopted = d->Adopt(std::move(model));
      dispatcher = std::move(d);
      break;
    }
    case persist::ModelModality::kMixed: {
      auto d = std::make_unique<internal::MixedDispatcher>(spec);
      adopted = d->Adopt(std::move(model));
      dispatcher = std::move(d);
      break;
    }
  }
  LSHC_RETURN_NOT_OK(adopted.WithContext("model file '" + path + "'"));
  return Clusterer(std::move(dispatcher));
}

const ClustererSpec& Clusterer::spec() const { return dispatcher_->spec(); }

Result<FitReport> Clusterer::Fit(const CategoricalDataset& dataset) {
  return dispatcher_->Fit(dataset);
}
Result<FitReport> Clusterer::Fit(const NumericDataset& dataset) {
  return dispatcher_->Fit(dataset);
}
Result<FitReport> Clusterer::Fit(const MixedDataset& dataset) {
  return dispatcher_->Fit(dataset);
}

Result<std::vector<uint32_t>> Clusterer::Predict(
    const CategoricalDataset& dataset) const {
  return dispatcher_->Predict(dataset);
}
Result<std::vector<uint32_t>> Clusterer::Predict(
    const NumericDataset& dataset) const {
  return dispatcher_->Predict(dataset);
}
Result<std::vector<uint32_t>> Clusterer::Predict(
    const MixedDataset& dataset) const {
  return dispatcher_->Predict(dataset);
}

Result<std::vector<uint32_t>> Clusterer::PredictRouted(
    const CategoricalDataset& dataset) const {
  return dispatcher_->PredictRouted(dataset);
}
Result<std::vector<uint32_t>> Clusterer::PredictRouted(
    const NumericDataset& dataset) const {
  return dispatcher_->PredictRouted(dataset);
}
Result<std::vector<uint32_t>> Clusterer::PredictRouted(
    const MixedDataset& dataset) const {
  return dispatcher_->PredictRouted(dataset);
}

Result<IndexHandle> Clusterer::index() const {
  return dispatcher_->RetainedIndex();
}

Result<std::shared_ptr<const serving::FrozenModel>> Clusterer::Snapshot()
    const {
  return dispatcher_->Snapshot();
}

bool Clusterer::fitted() const { return dispatcher_->fitted(); }

Result<StreamingSession> Clusterer::MakeStreamingSession(
    const CategoricalDataset& warmup,
    const StreamingSessionOptions& options) const {
  const ClustererSpec& spec = this->spec();
  if (!IsCategoricalShaped(spec.modality) ||
      spec.accelerator != Accelerator::kMinHash) {
    return Status::InvalidArgument(
        "streaming sessions require a categorical or text-binarized spec "
        "with the minhash accelerator (the live index is MinHash-based); "
        "this Clusterer is " + std::string(ModalityToString(spec.modality)) +
        " / " + std::string(AcceleratorToString(spec.accelerator)));
  }
  StreamingMHKModesOptions streaming;
  streaming.bootstrap.engine = spec.engine;
  streaming.bootstrap.index = spec.minhash;
  streaming.update_modes = options.update_modes;
  streaming.ingest_threads = options.ingest_threads;
  streaming.ingest_shards = options.ingest_shards;
  streaming.ingest_chunk_size = options.ingest_chunk_size;
  LSHC_RETURN_NOT_OK(ValidateStreamingMHKModesOptions(streaming));
  LSHC_ASSIGN_OR_RETURN(StreamingMHKModes engine,
                        StreamingMHKModes::Bootstrap(warmup, streaming));
  StreamingSession session(
      std::make_unique<StreamingMHKModes>(std::move(engine)));
  session.publish_to_ = options.publish_to;
  session.publish_every_ = options.publish_every;
  return session;
}

}  // namespace lshclust
