// Integration tests across modules: full paper pipelines end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "clustering/kmodes.h"
#include "core/experiment.h"
#include "core/mh_kmodes.h"
#include "data/serialize.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/yahoo_like_corpus.h"
#include "metrics/metrics.h"
#include "text/binarizer.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace lshclust {
namespace {

// A provider that enumerates every cluster through the shortlist path —
// plugging it into the engine must reproduce exhaustive K-Modes exactly,
// proving the shortlist machinery itself introduces no behavioural change.
struct AllClustersShortlistProvider {
  static constexpr bool kExhaustive = false;
  struct Scratch {};
  uint32_t num_clusters = 0;
  Scratch MakeScratch() const { return {}; }
  Status Prepare(const CategoricalDataset&, ThreadPool*,
                 const std::function<bool()>*) {
    return Status::OK();
  }
  void GetCandidates(uint32_t, std::span<const uint32_t>, Scratch&,
                     std::vector<uint32_t>* out) const {
    out->resize(num_clusters);
    for (uint32_t c = 0; c < num_clusters; ++c) (*out)[c] = c;
  }
};

TEST(EngineEquivalenceTest, FullShortlistReproducesBaselineExactly) {
  ConjunctiveDataOptions data;
  data.num_items = 350;
  data.num_attributes = 14;
  data.num_clusters = 25;
  data.domain_size = 12;  // noisy
  data.seed = 3;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 25;
  options.seed = 5;

  const auto baseline = RunKModes(dataset, options).ValueOrDie();

  AllClustersShortlistProvider provider;
  provider.num_clusters = 25;
  const auto via_shortlist =
      RunEngine(dataset, options, provider).ValueOrDie();

  EXPECT_EQ(baseline.assignment, via_shortlist.assignment);
  EXPECT_EQ(baseline.final_cost, via_shortlist.final_cost);
  ASSERT_EQ(baseline.iterations.size(), via_shortlist.iterations.size());
  for (size_t i = 0; i < baseline.iterations.size(); ++i) {
    EXPECT_EQ(baseline.iterations[i].moves, via_shortlist.iterations[i].moves);
    EXPECT_EQ(baseline.iterations[i].cost, via_shortlist.iterations[i].cost);
  }
}

TEST(SyntheticPipelineTest, MHBeatsBaselineShortlistsAtComparablePurity) {
  // The paper's synthetic experiment in miniature: generate, cluster with
  // both algorithms from shared seeds, compare.
  ConjunctiveDataOptions data;
  data.num_items = 1000;
  data.num_attributes = 25;
  data.num_clusters = 100;
  data.domain_size = 4000;
  data.seed = 7;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  ComparisonOptions options;
  options.num_clusters = 100;
  options.seed = 9;
  const auto runs = RunComparison(dataset, options,
                                  {KModesSpec(), MHKModesSpec(20, 5)})
                        .ValueOrDie();
  const MethodRun& kmodes = runs[0];
  const MethodRun& mh = runs[1];

  // Shortlists orders of magnitude under k (Fig. 2b's gap).
  double mh_mean_shortlist = 0;
  for (const auto& it : mh.result.iterations) {
    mh_mean_shortlist += it.mean_shortlist;
  }
  mh_mean_shortlist /= static_cast<double>(mh.result.iterations.size());
  EXPECT_LT(mh_mean_shortlist, 20.0);  // vs k = 100

  // Comparable purity (Fig. 8).
  EXPECT_GE(mh.purity, kmodes.purity - 0.1);

  // The index must exist and the baseline must not have one (its "index
  // build" is timing a no-op Prepare, i.e. nanoseconds).
  EXPECT_TRUE(mh.has_index);
  EXPECT_GT(mh.index_memory_bytes, 0u);
  EXPECT_LT(kmodes.result.index_build_seconds, 1e-3);
}

TEST(YahooPipelineTest, CorpusToTfIdfToClusteringEndToEnd) {
  // §IV-B in miniature: corpus -> per-topic TF-IDF -> binary dataset ->
  // K-Modes vs MH-K-Modes -> purity.
  YahooCorpusOptions corpus_options;
  corpus_options.num_topics = 40;
  corpus_options.questions_per_topic = 25;
  corpus_options.background_vocabulary = 2000;
  corpus_options.keywords_per_topic = 10;
  corpus_options.seed = 11;
  const auto corpus = GenerateYahooLikeCorpus(corpus_options);

  const auto model = TopicTfIdf::Compute(corpus).ValueOrDie();
  TfIdfOptions tfidf;
  tfidf.threshold = 0.5;
  const auto vocabulary = model.SelectVocabulary(tfidf);
  ASSERT_GT(vocabulary.size(), 20u);

  const auto dataset = BinarizeCorpus(corpus, vocabulary).ValueOrDie();
  ASSERT_TRUE(dataset.has_absence_semantics());
  ASSERT_TRUE(dataset.has_labels());

  ComparisonOptions options;
  options.num_clusters = 40;
  options.seed = 13;
  const auto runs = RunComparison(dataset, options,
                                  {KModesSpec(), MHKModesSpec(1, 1)})
                        .ValueOrDie();
  // Keyword-driven topics are recoverable: both algorithms must beat 0.3
  // purity by a wide margin, and MH must stay comparable to the baseline.
  EXPECT_GT(runs[0].purity, 0.3);
  EXPECT_GE(runs[1].purity, runs[0].purity - 0.1);
}

TEST(YahooPipelineTest, RawTextPathThroughTokenizer) {
  // Render generated questions to text and re-tokenize them — exercising
  // the raw-text front end the real dataset would use.
  YahooCorpusOptions corpus_options;
  corpus_options.num_topics = 10;
  corpus_options.questions_per_topic = 10;
  corpus_options.seed = 17;
  const auto generated = GenerateYahooLikeCorpus(corpus_options);

  Tokenizer tokenizer;
  TokenizedCorpus retokenized;
  for (uint32_t d = 0; d < generated.documents.size(); ++d) {
    tokenizer.AddDocument(RenderQuestionText(generated, d),
                          generated.documents[d].topic, &retokenized);
  }
  ASSERT_TRUE(retokenized.Valid());
  ASSERT_EQ(retokenized.documents.size(), generated.documents.size());

  const auto model = TopicTfIdf::Compute(retokenized).ValueOrDie();
  TfIdfOptions tfidf;
  tfidf.threshold = 0.4;
  const auto vocabulary = model.SelectVocabulary(tfidf);
  ASSERT_GT(vocabulary.size(), 0u);
  const auto dataset = BinarizeCorpus(retokenized, vocabulary).ValueOrDie();
  EXPECT_GT(dataset.num_items(), 0u);
}

TEST(PersistencePipelineTest, SerializedDatasetClustersIdentically) {
  ConjunctiveDataOptions data;
  data.num_items = 300;
  data.num_attributes = 12;
  data.num_clusters = 20;
  data.domain_size = 50;
  data.seed = 19;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  const auto path =
      (std::filesystem::temp_directory_path() /
       ("lshclust_integration_" + std::to_string(::getpid()) + ".lshc"))
          .string();
  ASSERT_TRUE(SaveDatasetBinary(dataset, path).ok());
  const auto reloaded = LoadDatasetBinary(path).ValueOrDie();
  std::filesystem::remove(path);

  MHKModesOptions options;
  options.engine.num_clusters = 20;
  options.engine.seed = 21;
  options.index.banding = {10, 2};
  const auto a = RunMHKModes(dataset, options).ValueOrDie();
  const auto b = RunMHKModes(reloaded, options).ValueOrDie();
  EXPECT_EQ(a.result.assignment, b.result.assignment);
  EXPECT_EQ(a.result.final_cost, b.result.final_cost);
}

TEST(MetricsIntegrationTest, PurityNmiAriAgreeOnPerfectRecovery) {
  ConjunctiveDataOptions data;
  data.num_items = 120;
  data.num_attributes = 10;
  data.num_clusters = 4;
  data.domain_size = 5000;
  data.min_rule_fraction = 1.0;
  data.max_rule_fraction = 1.0;
  data.seed = 23;
  const auto dataset = GenerateConjunctiveRuleData(data).ValueOrDie();

  EngineOptions options;
  options.num_clusters = 4;
  options.initial_seeds = {0, 1, 2, 3};
  const auto result = RunKModes(dataset, options).ValueOrDie();

  const auto table =
      ContingencyTable::Build(result.assignment, dataset.labels())
          .ValueOrDie();
  EXPECT_DOUBLE_EQ(Purity(table), 1.0);
  EXPECT_NEAR(NormalizedMutualInformation(table), 1.0, 1e-9);
  EXPECT_NEAR(AdjustedRandIndex(table), 1.0, 1e-9);
}

}  // namespace
}  // namespace lshclust
