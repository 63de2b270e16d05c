#include "core/lsh_kmeans.h"

#include <utility>

#include "api/clusterer.h"
#include "util/macros.h"

namespace lshclust {

Result<ClusteringResult> RunLshKMeans(const NumericDataset& dataset,
                                      const LshKMeansOptions& options) {
  ClustererSpec spec;
  spec.modality = Modality::kNumeric;
  spec.accelerator = Accelerator::kSimHash;
  spec.engine = options.kmeans;
  spec.simhash = SimHashIndexOptions{options.banding, options.seed};
  LSHC_ASSIGN_OR_RETURN(Clusterer clusterer, Clusterer::Create(spec));
  LSHC_ASSIGN_OR_RETURN(FitReport report, clusterer.Fit(dataset));
  // No channel for a partial report here: a cancelled run surfaces as
  // the kCancelled error, never as an ok() result.
  LSHC_RETURN_NOT_OK(report.status);
  return std::move(report.result);
}

}  // namespace lshclust
