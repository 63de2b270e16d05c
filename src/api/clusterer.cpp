#include "api/clusterer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "persist/model_io.h"
#include "serving/frozen_model_impl.h"
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

using serving::internal::FrozenModelImpl;

/// Runs the engine and folds the outcome into a FitReport: cancellation
/// becomes FitReport::status = kCancelled (the partial result stays).
template <typename Traits, typename Provider>
Result<FitReport> RunToReport(const typename Traits::Dataset& dataset,
                              const typename Traits::Options& options,
                              Provider& provider,
                              typename Traits::Centroids* centroids) {
  FitReport report;
  LSHC_ASSIGN_OR_RETURN(report.result,
                        (ClusteringEngine<Traits, Provider>::Run(
                            dataset, options, provider, centroids)));
  if (report.result.cancelled) {
    report.status = Status::Cancelled(
        "run stopped by the cancellation hook after " +
        std::to_string(report.result.iterations.size()) +
        " completed refinement iteration(s); the report holds that state");
  }
  return report;
}

/// Nearest fitted centroid for every item of an out-of-sample dataset —
/// literally the engine's exhaustive argmin (BestClusterExhaustive, one
/// all-clusters scan per item, seed cluster 0), so ties resolve
/// identically to a Fit pass by construction. Chunked across a worker
/// pool when the options' num_threads asks for one; per-item pure, so
/// bit-identical either way.
template <typename Traits>
std::vector<uint32_t> AssignNearest(const typename Traits::Dataset& dataset,
                                    const typename Traits::Centroids& model,
                                    const typename Traits::Options& options) {
  const uint32_t n = dataset.num_items();
  std::vector<uint32_t> assignment(n, 0);
  const auto assign_range = [&](uint32_t begin, uint32_t end) {
    DistanceScratch scratch;
    for (uint32_t item = begin; item < end; ++item) {
      assignment[item] = BestClusterExhaustive<Traits>(
          dataset, model, options, item, /*seed_cluster=*/0, scratch);
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

/// PredictRouted: the model's own sign-and-route loop
/// (FrozenModelImpl::RouteRange, the code RouteInto runs), shard-chunked
/// through the same ShardPlan the engine uses. Per-item work is pure, so
/// every (threads x shards) setting is bit-identical, and like
/// AssignNearest the pool is spawned per call so small arrival batches
/// stay sequential.
template <typename Traits, typename Family>
std::vector<uint32_t> AssignRouted(const FrozenModelImpl<Traits, Family>& model,
                                   const typename Traits::Dataset& dataset) {
  const typename Traits::Options& options = model.options();
  const uint32_t n = dataset.num_items();
  std::vector<uint32_t> assignment(n, 0);
  const ShardPlan plan =
      ShardPlan::Clamped(n, options.num_shards, options.chunk_size);
  const uint32_t num_threads = ResolveThreadCount(options.num_threads);
  if (num_threads <= 1 || n < 4096u) {
    serving::RoutedScratch scratch = model.NewRoutedScratch();
    ForEachShardChunk(plan, nullptr,
                      [&](const ShardPlan::Chunk& chunk, uint32_t, uint32_t) {
                        model.RouteRange(dataset, chunk.begin, chunk.end,
                                         scratch, assignment);
                      });
  } else {
    ThreadPool pool(num_threads);
    // Scratches are materialised lazily on the worker that first runs a
    // chunk; their contents never influence results (every query
    // epoch-resets the dedup and overwrites the signature buffer).
    std::vector<std::optional<serving::RoutedScratch>> scratches(num_threads);
    ForEachShardChunk(
        plan, &pool,
        [&](const ShardPlan::Chunk& chunk, uint32_t, uint32_t worker) {
          std::optional<serving::RoutedScratch>& scratch = scratches[worker];
          if (!scratch.has_value()) scratch.emplace(model.NewRoutedScratch());
          model.RouteRange(dataset, chunk.begin, chunk.end, *scratch,
                           assignment);
        });
  }
  return assignment;
}

/// The (primary, secondary) shape a FrozenModelImpl records for a dataset.
std::pair<uint32_t, uint32_t> ShapeOf(const CategoricalDataset& dataset) {
  return {dataset.num_attributes(), 0};
}
std::pair<uint32_t, uint32_t> ShapeOf(const NumericDataset& dataset) {
  return {dataset.dimensions(), 0};
}
std::pair<uint32_t, uint32_t> ShapeOf(const MixedDataset& dataset) {
  return {dataset.num_categorical(), dataset.num_numeric()};
}

/// The per-modality facts a Dispatcher needs: the engine traits, the
/// banding accelerator and its family, and how the spec maps onto the
/// engine options and the family options.
struct CategoricalCell {
  using Traits = CategoricalClusteringTraits;
  using Family = MinHashShortlistFamily;
  static constexpr Accelerator kBanding = Accelerator::kMinHash;
  static EngineOptions Options(const ClustererSpec& spec) {
    return spec.engine;
  }
  static const ShortlistIndexOptions& IndexOptions(const ClustererSpec& spec) {
    return spec.minhash;
  }
};

struct NumericCell {
  using Traits = NumericClusteringTraits;
  using Family = SimHashShortlistFamily;
  static constexpr Accelerator kBanding = Accelerator::kSimHash;
  static KMeansOptions Options(const ClustererSpec& spec) {
    KMeansOptions options;
    static_cast<EngineOptions&>(options) = spec.engine;
    return options;
  }
  static const SimHashIndexOptions& IndexOptions(const ClustererSpec& spec) {
    return spec.simhash;
  }
};

struct MixedCell {
  using Traits = MixedClusteringTraits;
  using Family = MixedShortlistFamily;
  static constexpr Accelerator kBanding = Accelerator::kMixedConcat;
  static KPrototypesOptions Options(const ClustererSpec& spec) {
    KPrototypesOptions options;
    static_cast<EngineOptions&>(options) = spec.engine;
    options.gamma = spec.gamma;
    return options;
  }
  static const MixedIndexOptions& IndexOptions(const ClustererSpec& spec) {
    return spec.mixed_index;
  }
};

}  // namespace

/// \brief The type-erasure seam: one virtual Fit/Predict per dataset
/// shape, overridden by the Dispatcher of the spec's modality, over the
/// one fitted model the base holds. The base implementations reject
/// mismatched dataset shapes with an actionable error, so every concrete
/// dispatcher only overrides its own shape.
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

  /// Handle on the fitted model's shortlist index.
  virtual Result<IndexHandle> Index() const = 0;

  /// The fitted model itself — Snapshot is a refcount copy.
  Result<std::shared_ptr<const serving::FrozenModel>> Snapshot() const {
    if (model_ == nullptr) {
      return Status::InvalidArgument(
          "Snapshot requires a fitted model; call Fit first");
    }
    return model_;
  }

  bool fitted() const { return model_ != nullptr; }

  /// Makes `model` the fitted model (Clusterer::FromSnapshot). Its
  /// concrete type must be this dispatcher's modality, which
  /// persist::BuildFrozenModel guarantees for a spec rebuilt from the
  /// same file.
  void Install(std::shared_ptr<const serving::FrozenModel> model) {
    model_ = std::move(model);
    sign_passes_ = 0;
  }

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

  Status NoIndex() const {
    return Status::InvalidArgument(
        "no shortlist index: either no Fit with a banding accelerator "
        "(minhash | simhash | mixed-concat) has succeeded yet, or the fit "
        "was cancelled before its index was built");
  }

  /// IndexHandle's constructor is private to this seam. The handle
  /// shares ownership of the fitted model that holds `index` and
  /// `assignment`, so it stays valid for as long as the caller keeps it.
  IndexHandle MakeHandle(const BandedIndex* index,
                         std::span<const uint32_t> assignment) const {
    return IndexHandle(std::shared_ptr<const BandedIndex>(model_, index),
                       assignment, model_->memory_bytes(), sign_passes_);
  }

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
  /// The one fitted model (null before the first successful Fit):
  /// centroids, family, banded index and fitted assignment in one
  /// immutable object that Snapshot, index() handles and serving readers
  /// share. A successful Fit swaps in a new one; a rejected Fit never
  /// touches it.
  std::shared_ptr<const serving::FrozenModel> model_;
  /// Full-dataset signing passes that built model_'s index (0 when
  /// loaded from a file), for IndexHandle::dataset_sign_passes.
  uint64_t sign_passes_ = 0;
};

namespace {

/// One modality's cell (see CategoricalCell etc.): exhaustive, the
/// modality's banding accelerator or — categorical only — canopy
/// shortlists. A banding fit moves its prepared family and index into
/// the routed model; every other fit (and a banding fit cancelled before
/// its index was built) yields the exhaustive model.
template <typename Cell>
class Dispatcher final : public EngineDispatcher {
 public:
  using Traits = typename Cell::Traits;
  using Family = typename Cell::Family;
  using Dataset = typename Traits::Dataset;
  using RoutedModel = FrozenModelImpl<Traits, Family>;
  using ExhaustiveModel = FrozenModelImpl<Traits>;

  using EngineDispatcher::EngineDispatcher;

  Result<FitReport> Fit(const Dataset& dataset) override {
    const typename Traits::Options options = Cell::Options(spec_);
    typename Traits::Centroids centroids =
        Traits::MakeCentroids(dataset, options);
    const auto [primary, secondary] = ShapeOf(dataset);
    const uint32_t k = spec_.engine.num_clusters;
    const auto run = [&](auto& provider) {
      return RunToReport<Traits>(dataset, options, provider, &centroids);
    };
    FitReport report;
    std::shared_ptr<const serving::FrozenModel> model;
    uint64_t sign_passes = 0;
    if (spec_.accelerator == Cell::kBanding) {
      ShortlistProvider<Family> provider(Cell::IndexOptions(spec_), k);
      LSHC_ASSIGN_OR_RETURN(report, run(provider));
      // A cancelled Prepare installs no index; the model is then
      // exhaustive.
      if (provider.index() != nullptr) {
        report.has_index = true;
        report.signature_seconds = provider.signature_seconds();
        report.index_seconds = provider.index_seconds();
        sign_passes = provider.dataset_sign_passes();
        auto [family, index] = std::move(provider).Release();
        auto routed = std::make_shared<const RoutedModel>(
            options, std::move(centroids), std::move(family),
            std::move(index), report.result.assignment, primary, secondary);
        report.index_stats = routed->index()->ComputeStats();
        report.index_memory_bytes = routed->memory_bytes();
        model = std::move(routed);
      }
    } else if (spec_.accelerator == Accelerator::kExhaustive) {
      ExhaustiveProvider provider;
      LSHC_ASSIGN_OR_RETURN(report, run(provider));
    } else if (spec_.accelerator == Accelerator::kCanopy) {
      if constexpr (std::is_same_v<Dataset, CategoricalDataset>) {
        CanopyShortlistProvider provider(spec_.canopy, k);
        LSHC_ASSIGN_OR_RETURN(report, run(provider));
      } else {
        return UnsupportedAccelerator();
      }
    } else {
      return UnsupportedAccelerator();
    }
    if (model == nullptr) {
      model = std::make_shared<const ExhaustiveModel>(
          options, std::move(centroids), std::nullopt, nullptr,
          std::vector<uint32_t>(), primary, secondary);
    }
    model_ = std::move(model);
    sign_passes_ = sign_passes;
    return report;
  }

  Result<std::vector<uint32_t>> Predict(
      const Dataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    return Visit([&](const auto& model) {
      return AssignNearest<Traits>(dataset, model.centroids(),
                                   model.options());
    });
  }

  Result<std::vector<uint32_t>> PredictRouted(
      const Dataset& dataset) const override {
    LSHC_RETURN_NOT_OK(CheckPredictable(dataset));
    return Visit(
        [&](const auto& model) { return AssignRouted(model, dataset); });
  }

  Result<IndexHandle> Index() const override {
    const auto* routed = dynamic_cast<const RoutedModel*>(model_.get());
    if (routed == nullptr) return NoIndex();
    return MakeHandle(routed->index(), routed->fit_assignment());
  }

 private:
  /// Calls `fn` with the concrete fitted model: the routed instantiation
  /// when the fit built an index, else the exhaustive one.
  template <typename Fn>
  auto Visit(const Fn& fn) const {
    if (const auto* routed = dynamic_cast<const RoutedModel*>(model_.get())) {
      return fn(*routed);
    }
    LSHC_DCHECK(dynamic_cast<const ExhaustiveModel*>(model_.get()) != nullptr)
        << "fitted model of another modality";
    return fn(static_cast<const ExhaustiveModel&>(*model_));
  }

  /// The one query check of Predict and PredictRouted.
  Status CheckPredictable(const Dataset& dataset) const {
    if (model_ == nullptr) {
      return Status::InvalidArgument(
          "Predict requires a fitted model; call Fit first");
    }
    if (dataset.num_items() == 0) {
      return Status::InvalidArgument("dataset is empty");
    }
    return Visit([&](const auto& model) { return model.CheckShape(dataset); });
  }
};

std::unique_ptr<EngineDispatcher> MakeDispatcher(const ClustererSpec& spec) {
  switch (spec.modality) {
    case Modality::kCategorical:
    case Modality::kTextBinarized:
      return std::make_unique<Dispatcher<CategoricalCell>>(spec);
    case Modality::kNumeric:
      return std::make_unique<Dispatcher<NumericCell>>(spec);
    case Modality::kMixed:
      return std::make_unique<Dispatcher<MixedCell>>(spec);
  }
  return nullptr;
}

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
  return Clusterer(internal::MakeDispatcher(spec));
}

Result<Clusterer> Clusterer::FromSnapshot(const std::string& path) {
  LSHC_ASSIGN_OR_RETURN(persist::DecodedModel decoded,
                        persist::DecodeModelFile(path));
  // Reconstruct the spec the persisted model implies. Only what routing
  // reads matters: modality/accelerator, k, gamma and the index options.
  // Init-method / seeds are fit-time-only knobs a loaded model never
  // touches — pinned to kRandom so the spec validates for every modality.
  ClustererSpec spec;
  spec.engine.num_clusters = decoded.num_clusters;
  spec.engine.init_method = InitMethod::kRandom;
  switch (decoded.modality) {
    case persist::ModelModality::kCategorical:
      spec.modality = Modality::kCategorical;
      break;
    case persist::ModelModality::kNumeric:
      spec.modality = Modality::kNumeric;
      break;
    case persist::ModelModality::kMixed:
      spec.modality = Modality::kMixed;
      spec.gamma = decoded.gamma;
      break;
  }
  switch (decoded.family) {
    case persist::ModelFamilyKind::kNone:
      spec.accelerator = Accelerator::kExhaustive;
      break;
    case persist::ModelFamilyKind::kMinHash:
      spec.accelerator = Accelerator::kMinHash;
      spec.minhash = decoded.minhash;
      break;
    case persist::ModelFamilyKind::kSimHash:
      spec.accelerator = Accelerator::kSimHash;
      spec.simhash = decoded.simhash;
      break;
    case persist::ModelFamilyKind::kMixedConcat:
      spec.accelerator = Accelerator::kMixedConcat;
      spec.mixed_index = decoded.mixed;
      break;
  }
  const std::string context = "model file '" + path + "'";
  LSHC_RETURN_NOT_OK(ValidateClustererSpec(spec).WithContext(context));
  Result<std::shared_ptr<const serving::FrozenModel>> model =
      persist::BuildFrozenModel(std::move(decoded));
  LSHC_RETURN_NOT_OK(model.status().WithContext(context));
  Clusterer clusterer(internal::MakeDispatcher(spec));
  clusterer.dispatcher_->Install(std::move(model).ValueOrDie());
  return clusterer;
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

Result<IndexHandle> Clusterer::index() const { return dispatcher_->Index(); }

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
