// Product-catalog grouping with a massive number of clusters — the
// "large k" regime that motivates the paper (§I: clustering into a large
// number of centroid-represented groups is bottlenecked by the item-to-
// centroid comparisons).
//
//   $ ./build/examples/catalog_dedup [--products=20000] [--groups=2000]
//
// Scenario: a marketplace ingests product listings described by
// categorical attributes (brand, category, colour, ...); near-duplicate
// listings must be grouped. The demo clusters the catalog through the
// lshclust::Clusterer front door and then *routes newly arriving
// listings* through the very index the fit built: the fitted model keeps
// its shortlist index, so
// Clusterer::PredictRouted signs each arrival, probes the fit-time
// buckets and compares only against the candidate groups — no second
// signing pass over the catalog, no standalone re-built index (the
// IndexHandle's dataset_sign_passes counter proves it below). The
// handle also enumerates near-duplicate candidates directly, the raw
// material of pairwise dedup.

#include <cstdio>

#include "api/clusterer.h"
#include "datagen/conjunctive_generator.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace lshclust;

  FlagSet flags("catalog_dedup");
  int64_t products = 20000;
  int64_t groups = 2000;
  int64_t attributes = 40;
  int64_t arrivals = 1000;
  int64_t seed = 17;
  flags.AddInt64("products", &products, "listings in the catalog");
  flags.AddInt64("groups", &groups, "product groups (clusters)");
  flags.AddInt64("attributes", &attributes, "categorical attributes");
  flags.AddInt64("arrivals", &arrivals, "new listings to route after");
  flags.AddInt64("seed", &seed, "RNG seed");
  const Status flag_status = flags.Parse(argc, argv);
  if (flag_status.IsAlreadyExists()) return 0;
  LSHC_CHECK_OK(flag_status);

  // The catalog: each group is a conjunctive rule over the attributes
  // (same brand+category+line agree on most fields; the rest vary).
  ConjunctiveDataOptions data;
  data.num_items = static_cast<uint32_t>(products + arrivals);
  data.num_attributes = static_cast<uint32_t>(attributes);
  data.num_clusters = static_cast<uint32_t>(groups);
  data.domain_size = 10000;
  data.min_rule_fraction = 0.6;
  data.max_rule_fraction = 0.9;
  data.seed = static_cast<uint64_t>(seed);
  auto all = GenerateConjunctiveRuleData(data);
  LSHC_CHECK_OK(all.status());

  // Split: the first `products` items are the existing catalog, the rest
  // arrive later.
  auto catalog = CategoricalDataset::FromCodes(
      static_cast<uint32_t>(products), all->num_attributes(),
      all->num_codes(),
      {all->codes().begin(),
       all->codes().begin() + products * all->num_attributes()},
      {all->labels().begin(), all->labels().begin() + products});
  LSHC_CHECK_OK(catalog.status());
  auto arriving = CategoricalDataset::FromCodes(
      static_cast<uint32_t>(arrivals), all->num_attributes(),
      all->num_codes(),
      {all->codes().begin() + products * all->num_attributes(),
       all->codes().end()});
  LSHC_CHECK_OK(arriving.status());

  std::printf("catalog: %u listings x %u attributes into %lld groups\n",
              catalog->num_items(), catalog->num_attributes(),
              static_cast<long long>(groups));

  ClustererSpec spec;
  spec.modality = Modality::kCategorical;
  spec.accelerator = Accelerator::kMinHash;
  spec.engine.num_clusters = static_cast<uint32_t>(groups);
  spec.engine.seed = static_cast<uint64_t>(seed);
  spec.minhash.banding = {20, 5};
  // The fitted model keeps the index Fit built, which is what the routed
  // arrivals below run against.

  Stopwatch watch;
  auto clusterer = Clusterer::Create(spec);
  LSHC_CHECK_OK(clusterer.status());
  auto report = clusterer->Fit(*catalog);
  LSHC_CHECK_OK(report.status());
  const ClusteringResult& result = report->result;
  LSHC_CHECK(report->has_index)
      << "fit should have built its shortlist index";
  std::printf("clustered in %.2fs (%zu iterations, %s), mean shortlist "
              "%.2f of %lld groups\n",
              watch.ElapsedSeconds(), result.iterations.size(),
              result.converged ? "converged" : "iteration cap",
              result.iterations.back().mean_shortlist,
              static_cast<long long>(groups));

  // The fit-time index, as a handle on the fitted model: occupancy stats for
  // capacity planning, and direct near-duplicate candidate enumeration —
  // the pairs the banding S-curve considers similar, with zero distance
  // computations.
  auto handle = clusterer->index();
  LSHC_CHECK_OK(handle.status());
  const BandedIndex::Stats occupancy = handle->ComputeStats();
  std::printf("fitted index: %llu buckets (largest %llu, mean %.2f), "
              "%.1f MiB\n",
              static_cast<unsigned long long>(occupancy.total_buckets),
              static_cast<unsigned long long>(occupancy.largest_bucket),
              occupancy.mean_bucket_size,
              static_cast<double>(handle->memory_bytes()) / (1024.0 * 1024.0));
  uint64_t duplicate_candidates = 0;
  const uint32_t sampled =
      catalog->num_items() < 100u ? catalog->num_items() : 100u;
  for (uint32_t item = 0; item < sampled; ++item) {
    duplicate_candidates += handle->CandidateItemsOf(item).size() - 1;
  }
  std::printf("dedup candidates: %.1f co-bucketed listings per listing "
              "(first %u sampled)\n",
              static_cast<double>(duplicate_candidates) / sampled, sampled);

  // Route the new arrivals WITHOUT re-clustering and WITHOUT re-signing
  // the catalog: each arrival is signed, probes the fit-time buckets and
  // is compared only against the candidate groups (exhaustive fallback
  // when a probe comes back empty).
  watch.Restart();
  auto routed = clusterer->PredictRouted(*arriving);
  LSHC_CHECK_OK(routed.status());
  const double routing_seconds = watch.ElapsedSeconds();

  // The dedup decisions must come from the fitted index alone: the
  // catalog was signed exactly once (by Fit), routing added nothing.
  LSHC_CHECK(clusterer->index()->dataset_sign_passes() == 1)
      << "routing re-signed the fitted catalog";
  // Routing is deterministic: a second pass decides identically.
  auto routed_again = clusterer->PredictRouted(*arriving);
  LSHC_CHECK_OK(routed_again.status());
  LSHC_CHECK(*routed == *routed_again)
      << "routed dedup decisions changed between identical calls";

  // Reference: exhaustive nearest-group routing over all groups.
  watch.Restart();
  auto exhaustive = clusterer->Predict(*arriving);
  LSHC_CHECK_OK(exhaustive.status());
  const double exhaustive_seconds = watch.ElapsedSeconds();

  uint32_t agree = 0;
  for (int64_t arrival = 0; arrival < arrivals; ++arrival) {
    agree += (*routed)[arrival] == (*exhaustive)[arrival] ? 1 : 0;
  }

  std::printf("routed %lld arrivals in %.3fs via the fit-time "
              "index vs %.3fs exhaustively (%.1fx); %.1f%% routed to the "
              "exhaustive scan's group\n",
              static_cast<long long>(arrivals), routing_seconds,
              exhaustive_seconds, exhaustive_seconds / routing_seconds,
              100.0 * agree / arrivals);
  return 0;
}
