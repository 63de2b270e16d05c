#include "core/lsh_kprototypes.h"

#include <utility>

#include "api/clusterer.h"
#include "util/macros.h"

namespace lshclust {

Result<ClusteringResult> RunLshKPrototypes(
    const MixedDataset& dataset, const LshKPrototypesOptions& options) {
  ClustererSpec spec;
  spec.modality = Modality::kMixed;
  spec.accelerator = Accelerator::kMixedConcat;
  spec.engine = options.kprototypes;
  spec.gamma = options.kprototypes.gamma;
  spec.mixed_index =
      MixedIndexOptions{options.categorical_banding, options.numeric_banding,
                        options.seed};
  LSHC_ASSIGN_OR_RETURN(Clusterer clusterer, Clusterer::Create(spec));
  LSHC_ASSIGN_OR_RETURN(FitReport report, clusterer.Fit(dataset));
  // No channel for a partial report here: a cancelled run surfaces as
  // the kCancelled error, never as an ok() result.
  LSHC_RETURN_NOT_OK(report.status);
  return std::move(report.result);
}

}  // namespace lshclust
