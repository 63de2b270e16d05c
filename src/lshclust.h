#pragma once

/// \file lshclust.h
/// \brief Umbrella header: the whole public API of lshclust.
///
/// **The front door is `api/clusterer.h`** — a runtime-configurable
/// `lshclust::Clusterer` covering every modality (categorical / numeric /
/// mixed / text-binarized) and accelerator (exhaustive / minhash /
/// simhash / mixed-concat / canopy) behind one Fit / Predict / Stream
/// lifecycle with Status-based validation and progress/cancel hooks.
/// Most applications need only:
///   * data/csv.h + api/clusterer.h            — cluster anything
///   * core/experiment.h + core/reporters.h    — baseline comparisons
/// The per-algorithm headers (core/mh_kmodes.h, core/lsh_kmeans.h,
/// core/lsh_kprototypes.h, core/canopy_kmodes.h) are deprecated shims
/// over the Clusterer, kept for compatibility; core/streaming.h is the
/// engine beneath Clusterer::MakeStreamingSession. Include individual
/// headers directly for faster builds; include this one for exploration
/// and prototyping.

// The front door (clusterer.h pulls in index_handle.h — a handle on the
// fitted model's index, for diagnostics and dedup probes).
#include "api/clusterer.h"  // IWYU pragma: export
#include "api/index_handle.h"  // IWYU pragma: export

// The serving layer: immutable FrozenModel models (Clusterer::Snapshot
// / StreamingSession::Snapshot) published to lock-free readers through a
// ModelServer.
#include "serving/frozen_model.h"  // IWYU pragma: export
#include "serving/model_server.h"  // IWYU pragma: export
#include "serving/routing.h"       // IWYU pragma: export

// Model persistence: serving::SaveFrozenModel / LoadFrozenModel write and
// read the versioned on-disk format; persist/model_io.h adds the decoded
// view (DecodeModelFile) and the TOC/checksum inspector (InspectModelFile)
// behind Clusterer::FromSnapshot and the model_inspect tool.
#include "persist/model_io.h"  // IWYU pragma: export

// Foundation.
#include "util/flags.h"          // IWYU pragma: export
#include "util/logging.h"        // IWYU pragma: export
#include "util/macros.h"         // IWYU pragma: export
#include "util/result.h"         // IWYU pragma: export
#include "util/rng.h"            // IWYU pragma: export
#include "util/status.h"         // IWYU pragma: export
#include "util/stopwatch.h"      // IWYU pragma: export
#include "util/thread_pool.h"    // IWYU pragma: export
#include "util/string_util.h"    // IWYU pragma: export

// Hashing substrate.
#include "hashing/hash_family.h"              // IWYU pragma: export
#include "hashing/minhash.h"                  // IWYU pragma: export
#include "hashing/one_permutation_minhash.h"  // IWYU pragma: export
#include "hashing/simhash.h"                  // IWYU pragma: export

// LSH machinery.
#include "lsh/banded_index.h"          // IWYU pragma: export
#include "lsh/dynamic_banded_index.h"  // IWYU pragma: export
#include "lsh/flat_hash_table.h"       // IWYU pragma: export
#include "lsh/probability.h"           // IWYU pragma: export
#include "lsh/tuning.h"                // IWYU pragma: export

// Datasets and I/O.
#include "data/categorical_dataset.h"  // IWYU pragma: export
#include "data/csv.h"                  // IWYU pragma: export
#include "data/interner.h"             // IWYU pragma: export
#include "data/mixed_dataset.h"        // IWYU pragma: export
#include "data/serialize.h"            // IWYU pragma: export
#include "data/slicing.h"              // IWYU pragma: export

// Synthetic data generators.
#include "datagen/conjunctive_generator.h"  // IWYU pragma: export
#include "datagen/gaussian_mixture.h"       // IWYU pragma: export
#include "datagen/mixed_generator.h"        // IWYU pragma: export
#include "datagen/yahoo_like_corpus.h"      // IWYU pragma: export

// Text pipeline.
#include "text/binarizer.h"  // IWYU pragma: export
#include "text/corpus.h"     // IWYU pragma: export
#include "text/tfidf.h"      // IWYU pragma: export
#include "text/tokenizer.h"  // IWYU pragma: export

// Clustering substrates.
#include "clustering/canopy.h"         // IWYU pragma: export
#include "clustering/centroid_table.h" // IWYU pragma: export
#include "clustering/dissimilarity.h"  // IWYU pragma: export
#include "clustering/engine.h"         // IWYU pragma: export
#include "clustering/fuzzy_kmodes.h"   // IWYU pragma: export
#include "clustering/initializers.h"   // IWYU pragma: export
#include "clustering/kmeans.h"         // IWYU pragma: export
#include "clustering/kmodes.h"         // IWYU pragma: export
#include "clustering/kprototypes.h"    // IWYU pragma: export
#include "clustering/modes.h"          // IWYU pragma: export
#include "clustering/types.h"          // IWYU pragma: export

// Quality metrics.
#include "metrics/metrics.h"  // IWYU pragma: export

// The paper's contribution and its extensions. The shortlist families /
// providers live in the *_shortlist_index.h headers; the remaining
// core/{mh_kmodes,lsh_kmeans,lsh_kprototypes,canopy_kmodes}.h entry
// points are deprecated shims over api/clusterer.h.
#include "core/canopy_kmodes.h"             // IWYU pragma: export
#include "core/canopy_shortlist_index.h"    // IWYU pragma: export
#include "core/cluster_shortlist_index.h"   // IWYU pragma: export
#include "core/error_bound.h"               // IWYU pragma: export
#include "core/experiment.h"                // IWYU pragma: export
#include "core/lsh_kmeans.h"                // IWYU pragma: export
#include "core/lsh_kprototypes.h"           // IWYU pragma: export
#include "core/mh_kmodes.h"                 // IWYU pragma: export
#include "core/mixed_shortlist_index.h"     // IWYU pragma: export
#include "core/reporters.h"                 // IWYU pragma: export
#include "core/shortlist_provider.h"        // IWYU pragma: export
#include "core/simhash_shortlist_index.h"   // IWYU pragma: export
#include "core/streaming.h"                 // IWYU pragma: export
