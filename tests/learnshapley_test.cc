#include <gtest/gtest.h>

#include <memory>

#include "corpus/corpus.h"
#include "datasets/imdb.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/nearest_queries.h"
#include "learnshapley/serialization.h"
#include "learnshapley/trainer.h"
#include "paper_fixture.h"

namespace lshap {
namespace {

// A scorer that ranks facts by fact id — an arbitrary signal-free baseline
// that any learned model must beat.
class ArbitraryScorer : public FactScorer {
 public:
  ShapleyValues Score(const Corpus& corpus, size_t entry_idx,
                      size_t contrib_idx) const override {
    const auto& gold =
        corpus.entries[entry_idx].contributions[contrib_idx].shapley;
    ShapleyValues out;
    for (const auto& [f, v] : gold) out[f] = static_cast<double>(f % 97);
    return out;
  }
  std::string name() const override { return "arbitrary"; }
};

class LearnShapleyTest : public ::testing::Test {
 protected:
  static CorpusConfig Config() {
    CorpusConfig cfg;
    cfg.seed = 5;
    cfg.num_base_queries = 12;
    cfg.max_outputs_per_query = 10;
    cfg.query_gen.max_tables = 3;
    return cfg;
  }

  LearnShapleyTest()
      : data_(MakeImdbDatabase({})),
        pool_(),
        corpus_(BuildCorpus(*data_.db, data_.graph, Config(), pool_)),
        sims_(ComputeSimilarityMatrices(corpus_, 10, pool_)) {}

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
  SimilarityMatrices sims_;
};

TEST_F(LearnShapleyTest, NearestQueriesProducesScoresForAllLineageFacts) {
  NearestQueriesScorer nn(&corpus_, &sims_, SimilarityMetric::kSyntax, 3);
  for (size_t e : corpus_.test_idx) {
    for (size_t c = 0; c < corpus_.entries[e].contributions.size(); ++c) {
      const auto scores = nn.Score(corpus_, e, c);
      EXPECT_EQ(scores.size(),
                corpus_.entries[e].contributions[c].shapley.size());
    }
    break;  // one entry suffices
  }
}

TEST_F(LearnShapleyTest, NearestQueriesNeighborsSortedBySimilarity) {
  NearestQueriesScorer nn(&corpus_, &sims_, SimilarityMetric::kRank, 3);
  for (size_t e : corpus_.test_idx) {
    const auto nbrs = nn.Neighbors(e);
    ASSERT_LE(nbrs.size(), 3u);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_GE(nbrs[i - 1].second, nbrs[i].second);
    }
    for (const auto& [idx, sim] : nbrs) {
      EXPECT_NE(idx, e);
    }
  }
}

TEST_F(LearnShapleyTest, RankNearestQueriesBeatsArbitrary) {
  // Rank-based NN is the controlled-experiment upper baseline; on a corpus
  // with query families it must carry real signal.
  NearestQueriesScorer nn(&corpus_, &sims_, SimilarityMetric::kRank, 3);
  ArbitraryScorer arb;
  const auto seen = TrainSeenFacts(corpus_);
  const EvalSummary nn_sum =
      EvaluateScorer(corpus_, corpus_.test_idx, nn, seen, pool_);
  const EvalSummary arb_sum =
      EvaluateScorer(corpus_, corpus_.test_idx, arb, seen, pool_);
  EXPECT_GT(nn_sum.ndcg10, arb_sum.ndcg10);
}

TEST_F(LearnShapleyTest, EvaluateScorerPointsCoverEveryContribution) {
  ArbitraryScorer arb;
  const EvalSummary sum =
      EvaluateScorer(corpus_, corpus_.test_idx, arb, {}, pool_);
  size_t expected = 0;
  for (size_t e : corpus_.test_idx) {
    expected += corpus_.entries[e].contributions.size();
  }
  EXPECT_EQ(sum.points.size(), expected);
  for (const auto& pt : sum.points) {
    EXPECT_GE(pt.ndcg10, 0.0);
    EXPECT_LE(pt.ndcg10, 1.0 + 1e-9);
    EXPECT_GT(pt.lineage_size, 0u);
    EXPECT_GE(pt.num_tables, 1u);
  }
}

TEST_F(LearnShapleyTest, TrainedModelBeatsArbitraryScorer) {
  TrainConfig cfg;
  cfg.pretrain_epochs = 1;
  cfg.pretrain_pairs_per_epoch = 128;
  cfg.finetune_epochs = 2;
  cfg.finetune_samples_per_epoch = 768;
  cfg.batch_size = 32;
  cfg.seed = 21;
  TrainResult trained = TrainLearnShapley(corpus_, sims_, cfg, pool_);
  ASSERT_NE(trained.ranker, nullptr);

  ArbitraryScorer arb;
  const EvalSummary model_sum =
      EvaluateScorer(corpus_, corpus_.test_idx, *trained.ranker, {}, pool_);
  const EvalSummary arb_sum =
      EvaluateScorer(corpus_, corpus_.test_idx, arb, {}, pool_);
  EXPECT_GT(model_sum.ndcg10, arb_sum.ndcg10);
  EXPECT_GT(model_sum.ndcg10, 0.5);
}

TEST_F(LearnShapleyTest, RankerScoreLineageMatchesScore) {
  TrainConfig cfg;
  cfg.do_pretrain = false;
  cfg.finetune_epochs = 1;
  cfg.finetune_samples_per_epoch = 128;
  cfg.batch_size = 32;
  cfg.seed = 22;
  TrainResult trained = TrainLearnShapley(corpus_, sims_, cfg, pool_);
  const size_t e = corpus_.test_idx[0];
  const auto& contrib = corpus_.entries[e].contributions[0];
  std::vector<FactId> lineage;
  for (const auto& [f, v] : contrib.shapley) lineage.push_back(f);

  const auto a = trained.ranker->Score(corpus_, e, 0);
  const auto b = trained.ranker->ScoreLineage(
      *corpus_.db, corpus_.entries[e].query, contrib.tuple, lineage);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [f, v] : a) {
    EXPECT_DOUBLE_EQ(v, b.at(f));
  }
}

TEST_F(LearnShapleyTest, ClonedScorerGivesIdenticalScores) {
  TrainConfig cfg;
  cfg.do_pretrain = false;
  cfg.finetune_epochs = 1;
  cfg.finetune_samples_per_epoch = 128;
  cfg.batch_size = 32;
  cfg.seed = 23;
  TrainResult trained = TrainLearnShapley(corpus_, sims_, cfg, pool_);
  auto clone = trained.ranker->Clone();
  const size_t e = corpus_.test_idx[0];
  const auto a = trained.ranker->Score(corpus_, e, 0);
  const auto b = clone->Score(corpus_, e, 0);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [f, v] : a) EXPECT_DOUBLE_EQ(v, b.at(f));
}

TEST(SerializationTest, TokensAreLowercaseSql) {
  PaperExample ex = MakePaperExample();
  const auto q_tokens = QueryTokens(ex.q_inf);
  EXPECT_EQ(q_tokens[0], "select");
  const auto f_tokens = FactTokens(*ex.db, ex.c1);
  // companies(Universal, USA) → companies ( universal , usa )
  ASSERT_GE(f_tokens.size(), 5u);
  EXPECT_EQ(f_tokens[0], "companies");
  EXPECT_EQ(f_tokens[2], "universal");
}

}  // namespace
}  // namespace lshap
