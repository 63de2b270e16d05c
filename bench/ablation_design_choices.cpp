// google-benchmark ablations for the design choices DESIGN.md calls out:
//  * early-exit bounded distance vs exact distance in the shortlist passes
//    (exhaustive passes always take one all-clusters scan);
//  * classic MinHash (double hashing / independent) vs one-permutation
//    MinHash for index construction;
//  * presence filtering (Alg. 2 lines 2-4) on vs off for sparse binary
//    data — fewer tokens means faster signatures AND meaningful Jaccard;
//  * end-to-end MH-K-Modes vs exhaustive K-Modes at several (b, r);
//  * the historical noinline-block mismatch kernel vs the runtime-
//    dispatched SIMD kernel that replaced it.

#include <benchmark/benchmark.h>

#include "clustering/dissimilarity.h"
#include "clustering/kmodes.h"
#include "core/mh_kmodes.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/yahoo_like_corpus.h"
#include "text/binarizer.h"
#include "text/tfidf.h"
#include "util/rng.h"

namespace {

using namespace lshclust;

CategoricalDataset AblationDataset() {
  ConjunctiveDataOptions options;
  options.num_items = 3000;
  options.num_attributes = 100;
  options.num_clusters = 300;
  options.domain_size = 40000;
  options.seed = 11;
  static const CategoricalDataset dataset =
      GenerateConjunctiveRuleData(options).ValueOrDie();
  return dataset;
}

// ----------------------------------------------------- early exit on/off --

// MH-K-Modes, because only its shortlist passes call the per-pair kernels
// the switch selects between.
void BM_MHKModes_EarlyExit(benchmark::State& state) {
  const auto dataset = AblationDataset();
  MHKModesOptions options;
  options.engine.num_clusters = 300;
  options.engine.max_iterations = 3;
  options.engine.seed = 7;
  options.engine.compute_cost = false;
  options.engine.early_exit = state.range(0) != 0;
  options.index.banding = {20, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunMHKModes(dataset, options).ok());
  }
}
BENCHMARK(BM_MHKModes_EarlyExit)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// ------------------------------------------- signature algorithm choice --

void BM_IndexPrepare_SignatureAlgorithm(benchmark::State& state) {
  const auto dataset = AblationDataset();
  ShortlistIndexOptions options;
  options.banding = {20, 5};
  switch (state.range(0)) {
    case 0:
      options.algorithm = SignatureAlgorithm::kClassicMinHash;
      options.minhash_mode = MinHashMode::kDoubleHashing;
      break;
    case 1:
      options.algorithm = SignatureAlgorithm::kClassicMinHash;
      options.minhash_mode = MinHashMode::kIndependent;
      break;
    default:
      options.algorithm = SignatureAlgorithm::kOnePermutation;
      break;
  }
  for (auto _ : state) {
    ClusterShortlistProvider provider(options, 300);
    benchmark::DoNotOptimize(provider.Prepare(dataset).ok());
  }
  state.SetLabel(state.range(0) == 0   ? "classic/double-hashing"
                 : state.range(0) == 1 ? "classic/independent"
                                       : "one-permutation");
}
BENCHMARK(BM_IndexPrepare_SignatureAlgorithm)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------ presence filtering --

CategoricalDataset SparseBinaryDataset() {
  YahooCorpusOptions corpus_options;
  corpus_options.num_topics = 100;
  corpus_options.questions_per_topic = 30;
  corpus_options.seed = 13;
  const auto corpus = GenerateYahooLikeCorpus(corpus_options);
  const auto model = TopicTfIdf::Compute(corpus).ValueOrDie();
  TfIdfOptions tfidf;
  tfidf.threshold = 0.4;
  const auto vocabulary = model.SelectVocabulary(tfidf);
  return BinarizeCorpus(corpus, vocabulary).ValueOrDie();
}

void BM_Signatures_PresenceFiltering(benchmark::State& state) {
  const bool filter = state.range(0) != 0;
  static const CategoricalDataset dataset = SparseBinaryDataset();
  const MinHasher hasher(100, 17);
  std::vector<uint64_t> signature(100);
  std::vector<uint32_t> tokens;
  for (auto _ : state) {
    for (uint32_t item = 0; item < dataset.num_items(); ++item) {
      if (filter) {
        dataset.PresentTokens(item, &tokens);  // Alg. 2 lines 2-4
      } else {
        const auto row = dataset.Row(item);
        tokens.assign(row.begin(), row.end());  // ablation: sign everything
      }
      hasher.ComputeSignature(tokens, signature.data());
      benchmark::DoNotOptimize(signature.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_items());
  state.SetLabel(filter ? "present-only tokens" : "all tokens");
}
BENCHMARK(BM_Signatures_PresenceFiltering)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------- end-to-end banding settings --

void BM_EndToEnd_Banding(benchmark::State& state) {
  const auto dataset = AblationDataset();
  const uint32_t bands = static_cast<uint32_t>(state.range(0));
  const uint32_t rows = static_cast<uint32_t>(state.range(1));
  for (auto _ : state) {
    if (bands == 0) {  // sentinel: exhaustive baseline
      EngineOptions options;
      options.num_clusters = 300;
      options.max_iterations = 8;
      options.seed = 19;
      options.compute_cost = false;
      benchmark::DoNotOptimize(RunKModes(dataset, options).ok());
    } else {
      MHKModesOptions options;
      options.engine.num_clusters = 300;
      options.engine.max_iterations = 8;
      options.engine.seed = 19;
      options.engine.compute_cost = false;
      options.index.banding = {bands, rows};
      benchmark::DoNotOptimize(RunMHKModes(dataset, options).ok());
    }
  }
  state.SetLabel(bands == 0 ? "K-Modes (exhaustive)"
                            : std::to_string(bands) + "b" +
                                  std::to_string(rows) + "r");
}
BENCHMARK(BM_EndToEnd_Banding)
    ->Args({0, 0})
    ->Args({1, 1})
    ->Args({20, 2})
    ->Args({20, 5})
    ->Args({50, 5})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// --------------------- mismatch kernel: historical shape vs dispatched --

// The pre-dispatch hand-tuned kernel (clustering/dissimilarity.h before
// the src/simd/ subsystem): a [[gnu::noinline]] fixed 32-element block the
// compiler auto-vectorizes at the build's baseline ISA, plus a scalar
// tail. Replicated here verbatim so the ablation keeps recording the
// historical shape against the runtime-dispatched kernel that replaced it.
[[gnu::noinline]] uint32_t HistoricalMismatchBlock32(const uint32_t* a,
                                                     const uint32_t* b) {
  uint32_t mismatches = 0;
  for (uint32_t j = 0; j < 32; ++j) {
    mismatches += a[j] != b[j] ? 1u : 0u;
  }
  return mismatches;
}

uint32_t HistoricalMismatchDistance(const uint32_t* a, const uint32_t* b,
                                    uint32_t m) {
  uint32_t mismatches = 0;
  uint32_t j = 0;
  for (; j + 32 <= m; j += 32) {
    mismatches += HistoricalMismatchBlock32(a + j, b + j);
  }
  for (; j < m; ++j) mismatches += a[j] != b[j] ? 1u : 0u;
  return mismatches;
}

void BM_MismatchKernel_HistoricalVsDispatched(benchmark::State& state) {
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  const bool dispatched = state.range(1) != 0;
  Rng rng(23);
  std::vector<uint32_t> a(m), b(m);
  for (uint32_t j = 0; j < m; ++j) {
    a[j] = static_cast<uint32_t>(rng.Below(1u << 30));
    b[j] = (j % 2 == 0) ? a[j] : a[j] ^ 1u;  // 50% mismatches
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatched ? MismatchDistance(a, b)
                   : HistoricalMismatchDistance(a.data(), b.data(), m));
  }
  state.SetItemsProcessed(state.iterations() * m);
  state.SetLabel(dispatched ? "dispatched (src/simd)"
                            : "historical noinline block");
}
BENCHMARK(BM_MismatchKernel_HistoricalVsDispatched)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({2000, 0})
    ->Args({2000, 1});

}  // namespace

BENCHMARK_MAIN();
