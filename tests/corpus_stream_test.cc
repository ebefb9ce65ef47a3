// Tests for the shard-at-a-time corpus streaming layer (corpus/stream.h)
// and its consumers: slice aliasing, cursor visit order and prefetch,
// resident-entry accounting, the streaming evaluator's exact agreement
// with the resident one, and the shard-streaming trainer. The
// concurrency tests here run under TSan in tools/check.sh thread mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "corpus/corpus.h"
#include "corpus/format.h"
#include "corpus/io.h"
#include "corpus/stream.h"
#include "datasets/imdb.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/trainer.h"

namespace lshap {
namespace {

// A deterministic scorer that reads only the slice it is handed (db +
// entry), never corpus-global state — the contract streaming consumers
// require. Scores facts by a fixed hash so rankings are nontrivial.
class HashScorer : public FactScorer {
 public:
  ShapleyValues Score(const Corpus& corpus, size_t entry_idx,
                      size_t contrib_idx) const override {
    const TupleContribution& c =
        corpus.entries[entry_idx].contributions[contrib_idx];
    ShapleyValues out;
    for (const auto& [f, v] : c.shapley) {
      out[f] = static_cast<double>((f * 2654435761u) % 1000u);
    }
    return out;
  }
  std::string name() const override { return "hash"; }
};

class CorpusStreamTest : public ::testing::Test {
 protected:
  CorpusStreamTest() : data_(MakeImdbDatabase({})), pool_(4) {
    CorpusConfig cfg;
    cfg.seed = 8;
    cfg.num_base_queries = 10;
    cfg.max_outputs_per_query = 6;
    cfg.query_gen.max_tables = 3;
    corpus_ = BuildCorpus(*data_.db, data_.graph, cfg, pool_);
    path_ = ::testing::TempDir() + "/corpus_stream_test.lshapc";
  }
  ~CorpusStreamTest() override {
    for (size_t s = 0; s < 8; ++s) {
      std::remove(ShardFileName(path_, s).c_str());
    }
    std::remove(path_.c_str());
  }

  ShardedCorpusStream OpenSharded(size_t num_shards) {
    EXPECT_TRUE(SaveCorpusShards(corpus_, path_, num_shards).ok());
    auto stream = ShardedCorpusStream::Open(data_.db.get(), path_);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    return std::move(*stream);
  }

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
  std::string path_;
};

TEST_F(CorpusStreamTest, InMemorySliceAliasesTheCorpus) {
  InMemoryCorpusStream stream(corpus_);
  EXPECT_EQ(stream.num_shards(), 1u);
  EXPECT_EQ(stream.num_entries(), corpus_.entries.size());
  EXPECT_EQ(stream.train_idx(), corpus_.train_idx);
  auto slice = stream.ReadShard(0);
  ASSERT_TRUE(slice.ok());
  // Zero-copy: the slice *is* the corpus, splits and all.
  EXPECT_EQ(slice->corpus.get(), &corpus_);
  EXPECT_EQ(slice->base_entry, 0u);
  EXPECT_EQ(slice->size(), corpus_.entries.size());
  EXPECT_FALSE(stream.ReadShard(1).ok());
}

TEST_F(CorpusStreamTest, ShardedSlicesConcatenateToTheCorpus) {
  ShardedCorpusStream stream = OpenSharded(4);
  EXPECT_EQ(stream.num_shards(), 4u);
  EXPECT_EQ(stream.num_entries(), corpus_.entries.size());
  EXPECT_EQ(stream.train_idx(), corpus_.train_idx);
  EXPECT_EQ(stream.dev_idx(), corpus_.dev_idx);
  EXPECT_EQ(stream.test_idx(), corpus_.test_idx);

  size_t global = 0;
  for (size_t s = 0; s < stream.num_shards(); ++s) {
    auto slice = stream.ReadShard(s);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_EQ(slice->base_entry, global);
    EXPECT_EQ(slice->base_entry, stream.shard_base(s));
    for (size_t i = 0; i < slice->size(); ++i, ++global) {
      EXPECT_EQ(slice->corpus->entries[i].query.id,
                corpus_.entries[global].query.id);
      EXPECT_EQ(slice->corpus->entries[i].contributions.size(),
                corpus_.entries[global].contributions.size());
    }
    EXPECT_EQ(stream.ShardOf(slice->base_entry), s);
  }
  EXPECT_EQ(global, corpus_.entries.size());
}

TEST_F(CorpusStreamTest, CursorHonorsVisitOrderWithPrefetch) {
  ShardedCorpusStream stream = OpenSharded(4);
  std::vector<size_t> order = {2, 0, 3};
  ShardCursor cursor(stream, &pool_, order);
  std::vector<size_t> seen;
  while (!cursor.Done()) {
    auto slice = cursor.Next();
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    seen.push_back(slice->shard_index);
  }
  EXPECT_EQ(seen, order);
  EXPECT_FALSE(cursor.Next().ok());  // exhausted
}

TEST_F(CorpusStreamTest, CursorWorksWithoutPool) {
  ShardedCorpusStream stream = OpenSharded(3);
  ShardCursor cursor(stream);  // synchronous decode inside Next
  size_t entries = 0;
  std::vector<size_t> seen;
  while (!cursor.Done()) {
    auto slice = cursor.Next();
    ASSERT_TRUE(slice.ok());
    seen.push_back(slice->shard_index);
    entries += slice->size();
  }
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(entries, corpus_.entries.size());
}

TEST_F(CorpusStreamTest, PeakResidencyIsBoundedByShardsNotCorpus) {
  ShardedCorpusStream stream = OpenSharded(4);
  size_t max_shard = 0;
  for (size_t s = 0; s < stream.num_shards(); ++s) {
    max_shard = std::max(max_shard, stream.shard_entries(s));
  }
  {
    ShardCursor cursor(stream, &pool_);
    while (!cursor.Done()) {
      auto slice = cursor.Next();
      ASSERT_TRUE(slice.ok());
      // The slice drops at the end of each iteration, so at most the
      // current slice plus the in-flight prefetch are resident.
    }
  }
  EXPECT_EQ(stream.resident_entries(), 0u);
  EXPECT_GT(stream.peak_resident_entries(), 0u);
  EXPECT_LE(stream.peak_resident_entries(), 2 * max_shard);
  EXPECT_LT(stream.peak_resident_entries(), corpus_.entries.size());
}

// ReadShard must be thread-safe (the cursor prefetches on pool workers).
// This test exists chiefly for TSan coverage in tools/check.sh.
TEST_F(CorpusStreamTest, ConcurrentReadShardIsSafe) {
  ShardedCorpusStream stream = OpenSharded(4);
  std::vector<std::thread> threads;
  std::atomic<size_t> total{0};
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&stream, &total, t] {
      for (size_t s = 0; s < 4; ++s) {
        auto slice = stream.ReadShard((s + t) % 4);
        ASSERT_TRUE(slice.ok());
        total.fetch_add(slice->size());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 4 * corpus_.entries.size());
  EXPECT_EQ(stream.resident_entries(), 0u);
}

TEST_F(CorpusStreamTest, StreamingEvaluatorMatchesResidentExactly) {
  ShardedCorpusStream stream = OpenSharded(3);
  HashScorer scorer;
  const EvalSummary resident =
      EvaluateScorer(corpus_, corpus_.test_idx, scorer, {}, pool_);
  auto streamed =
      EvaluateScorerStream(stream, stream.test_idx(), scorer, {}, pool_);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_DOUBLE_EQ(streamed->ndcg10, resident.ndcg10);
  EXPECT_DOUBLE_EQ(streamed->p1, resident.p1);
  EXPECT_DOUBLE_EQ(streamed->p3, resident.p3);
  EXPECT_DOUBLE_EQ(streamed->p5, resident.p5);
  ASSERT_EQ(streamed->points.size(), resident.points.size());
  for (size_t i = 0; i < resident.points.size(); ++i) {
    EXPECT_EQ(streamed->points[i].entry_idx, resident.points[i].entry_idx);
    EXPECT_EQ(streamed->points[i].contrib_idx,
              resident.points[i].contrib_idx);
    EXPECT_DOUBLE_EQ(streamed->points[i].ndcg10, resident.points[i].ndcg10);
    EXPECT_DOUBLE_EQ(streamed->points[i].p1, resident.points[i].p1);
    EXPECT_EQ(streamed->points[i].lineage_size,
              resident.points[i].lineage_size);
  }
}

TEST_F(CorpusStreamTest, StreamingEvaluatorRejectsBadSplit) {
  ShardedCorpusStream stream = OpenSharded(2);
  HashScorer scorer;
  std::vector<size_t> bad = {corpus_.entries.size() + 5};
  auto streamed = EvaluateScorerStream(stream, bad, scorer, {}, pool_);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument);
}

// A pool that rejects work used to leave every point zeroed and NDCG 0
// with an OK status.
TEST_F(CorpusStreamTest, StreamingEvaluatorFailsOnShutDownPool) {
  ShardedCorpusStream stream = OpenSharded(2);
  HashScorer scorer;
  ThreadPool stopped(2);
  stopped.Shutdown();
  auto streamed =
      EvaluateScorerStream(stream, stream.test_idx(), scorer, {}, stopped);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kFailedPrecondition);
}

// The dev MSE sums one error per pair in pair order, so it reads the same
// bits at any thread count. With no pre-training pairs the model stays at
// its seeded initialisation, and only the dev scoring runs in parallel.
TEST_F(CorpusStreamTest, PretrainDevMseIsIndependentOfThreadCount) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 16, pool_);
  TrainConfig cfg;
  cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
  cfg.pretrain_epochs = 1;
  cfg.pretrain_pairs_per_epoch = 0;
  cfg.finetune_epochs = 0;
  cfg.seed = 7;

  std::vector<double> mse;
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    InMemoryCorpusStream stream(corpus_);
    auto result = TrainLearnShapleyStream(stream, &sims, cfg, pool);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    mse.push_back(result->pretrain_dev_mse);
  }
  EXPECT_GT(mse[0], 0.0);  // the dev pairs were scored
  for (double m : mse) {
    EXPECT_EQ(std::memcmp(&m, &mse[0], sizeof(double)), 0)
        << m << " vs " << mse[0];
  }
}

TEST_F(CorpusStreamTest, StreamTrainerOneShardRoundTripTrainsIdentically) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 16, pool_);
  TrainConfig cfg;
  cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
  cfg.pretrain_epochs = 1;
  cfg.pretrain_pairs_per_epoch = 32;
  cfg.finetune_epochs = 1;
  cfg.finetune_samples_per_epoch = 64;
  cfg.batch_size = 16;
  cfg.seed = 5;

  TrainResult built = TrainLearnShapley(corpus_, sims, cfg, pool_);
  // The loaded corpus holds the same content, but its lineage hash maps are
  // filled in a different order than the builder's.
  ShardedCorpusStream stream = OpenSharded(1);
  auto loaded = TrainLearnShapleyStream(stream, &sims, cfg, pool_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_DOUBLE_EQ(loaded->pretrain_dev_mse, built.pretrain_dev_mse);
  EXPECT_DOUBLE_EQ(loaded->best_dev_ndcg10, built.best_dev_ndcg10);
  ASSERT_NE(loaded->ranker, nullptr);
  const EvalSummary a =
      EvaluateScorer(corpus_, corpus_.test_idx, *built.ranker, {}, pool_);
  const EvalSummary b =
      EvaluateScorer(corpus_, corpus_.test_idx, *loaded->ranker, {}, pool_);
  EXPECT_DOUBLE_EQ(a.ndcg10, b.ndcg10);
}

// FNV-1a over the bytes of every trained weight.
uint64_t WeightsFingerprint(LearnShapleyRanker& ranker) {
  std::string bytes;
  for (const Param* p : ranker.model().Params()) {
    bytes.append(reinterpret_cast<const char*>(p->value.data()),
                 sizeof(float) * p->value.size());
  }
  return FnvChecksum(bytes.data(), bytes.size());
}

// Training sums each batch in fixed lanes (sample i to lane i mod 8, lanes
// added in lane order), so a run gives the same bits at any thread count.
// The batch size 12 leaves lanes of unequal length. The pins fix the
// trained weights themselves (this fixture's dev split always ranks
// perfectly, so its NDCG is 1): a change that moves them must say so.
// SmallAblation's only block is the last; Base's first block takes its
// gradient from the one-row last block above it. The Base pin was taken
// while training still ran and back-propagated every row of the last block.
TEST_F(CorpusStreamTest, TrainingIsIdenticalAtAnyThreadCount) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 16, pool_);
  TrainConfig cfg;
  cfg.pretrain_epochs = 1;
  cfg.pretrain_pairs_per_epoch = 40;
  cfg.finetune_epochs = 2;
  cfg.finetune_samples_per_epoch = 60;
  cfg.batch_size = 12;
  cfg.seed = 5;

  struct Pin {
    TrainConfig::ModelSize size;
    uint64_t weights;
    double pretrain_dev_mse;
  };
  for (const Pin& pin :
       {Pin{TrainConfig::ModelSize::kSmallAblation, 0x1f75a4308eb8b950u,
            0x1.adb8e9dbbcd3cp-2},
        Pin{TrainConfig::ModelSize::kBase, 0x6b7bce456808713du,
            0x1.4ab14956b1f5fp-2}}) {
    cfg.model_size = pin.size;
    for (size_t threads : {1, 1, 2, 2, 4, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "size " << static_cast<int>(pin.size) << ", "
                   << threads << " threads");
      ThreadPool pool(threads);
      InMemoryCorpusStream stream(corpus_);
      auto result = TrainLearnShapleyStream(stream, &sims, cfg, pool);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(WeightsFingerprint(*result->ranker), pin.weights);
      EXPECT_EQ(result->pretrain_dev_mse, pin.pretrain_dev_mse);
      EXPECT_EQ(result->best_dev_ndcg10, 1.0);
    }
  }
}

// An empty dev split would score MSE 0 and NDCG 0 in every epoch, so
// selecting on it would keep each stage's first epoch and drop the rest.
// With no dev entries each stage keeps its last epoch instead.
TEST_F(CorpusStreamTest, EmptyDevSplitKeepsTheLastEpoch) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 16, pool_);
  Corpus no_dev = corpus_;
  no_dev.dev_idx.clear();
  InMemoryCorpusStream stream(no_dev);
  // The weight fingerprint of a run with the given epoch counts.
  const auto train = [&](size_t pretrain_epochs,
                         size_t finetune_epochs) -> uint64_t {
    TrainConfig cfg;
    cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
    cfg.pretrain_epochs = pretrain_epochs;
    cfg.pretrain_pairs_per_epoch = 40;
    cfg.finetune_epochs = finetune_epochs;
    cfg.finetune_samples_per_epoch = 60;
    cfg.batch_size = 12;
    cfg.seed = 5;
    auto result = TrainLearnShapleyStream(stream, &sims, cfg, pool_);
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString();
      return 0;
    }
    EXPECT_EQ(result->pretrain_dev_mse, 0.0);
    EXPECT_EQ(result->best_dev_ndcg10, 0.0);
    return WeightsFingerprint(*result->ranker);
  };
  EXPECT_NE(train(1, 0), train(2, 0));
  EXPECT_NE(train(0, 1), train(0, 2));
}

// Each epoch's dev pass runs under its own span, a child of its stage's, and
// recording metrics moves no trained weight.
TEST_F(CorpusStreamTest, TrainingMetricsSpanTheDevPassesAndMoveNoWeight) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 16, pool_);
  TrainConfig cfg;
  cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
  cfg.pretrain_epochs = 2;
  cfg.pretrain_pairs_per_epoch = 40;
  cfg.finetune_epochs = 3;
  cfg.finetune_samples_per_epoch = 60;
  cfg.batch_size = 12;
  cfg.seed = 5;
  InMemoryCorpusStream stream(corpus_);
  auto plain = TrainLearnShapleyStream(stream, &sims, cfg, pool_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  MetricsRegistry registry;
  cfg.metrics = &registry;
  auto observed = TrainLearnShapleyStream(stream, &sims, cfg, pool_);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  EXPECT_EQ(WeightsFingerprint(*observed->ranker),
            WeightsFingerprint(*plain->ranker));
  EXPECT_EQ(observed->pretrain_dev_mse, plain->pretrain_dev_mse);
  EXPECT_EQ(observed->best_dev_ndcg10, plain->best_dev_ndcg10);

  EXPECT_EQ(registry.SpanAt({"train", "train.vocab_pass"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"train", "train.pretrain"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"train", "train.pretrain", "train.dev_mse"}).count,
            2u);
  EXPECT_EQ(registry.SpanAt({"train", "train.finetune"}).count, 1u);
  EXPECT_EQ(
      registry.SpanAt({"train", "train.finetune", "train.dev_ndcg"}).count,
      3u);
}

// Pre-training and fine-tuning on the fixture's 4-thread pool: the dev-MSE
// workers share one const model, and each training worker runs its steps
// through its own activation record. TSan checks this in tools/check.sh.
TEST_F(CorpusStreamTest, StreamTrainerPretrainsOnSeveralThreads) {
  const SimilarityMatrices sims =
      ComputeSimilarityMatrices(corpus_, 16, pool_);
  TrainConfig cfg;
  cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
  cfg.pretrain_epochs = 1;
  cfg.pretrain_pairs_per_epoch = 48;
  cfg.finetune_epochs = 1;
  cfg.finetune_samples_per_epoch = 48;
  cfg.batch_size = 16;
  cfg.seed = 6;

  InMemoryCorpusStream stream(corpus_);
  auto result = TrainLearnShapleyStream(stream, &sims, cfg, pool_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->ranker, nullptr);
  EXPECT_TRUE(std::isfinite(result->pretrain_dev_mse));
  EXPECT_GT(result->pretrain_dev_mse, 0.0);  // the dev pairs were scored
}

TEST_F(CorpusStreamTest, StreamTrainerRejectsBadTrainSubset) {
  TrainConfig cfg;
  cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
  cfg.do_pretrain = false;
  cfg.finetune_epochs = 1;
  cfg.train_subset = {0, corpus_.entries.size() + 5};

  InMemoryCorpusStream in_memory(corpus_);
  auto resident = TrainLearnShapleyStream(in_memory, nullptr, cfg, pool_);
  ASSERT_FALSE(resident.ok());
  EXPECT_EQ(resident.status().code(), StatusCode::kInvalidArgument);

  ShardedCorpusStream sharded = OpenSharded(2);
  auto streamed = TrainLearnShapleyStream(sharded, nullptr, cfg, pool_);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CorpusStreamTest, StreamTrainerMultiShardRunsBounded) {
  ShardedCorpusStream stream = OpenSharded(4);
  TrainConfig cfg;
  cfg.model_size = TrainConfig::ModelSize::kSmallAblation;
  cfg.do_pretrain = false;  // similarity matrices are corpus-global
  cfg.finetune_epochs = 2;
  cfg.finetune_samples_per_epoch = 64;
  cfg.batch_size = 16;
  cfg.seed = 5;

  ThreadPool serial(1);
  auto result = TrainLearnShapleyStream(stream, nullptr, cfg, serial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->ranker, nullptr);
  EXPECT_GE(result->best_dev_ndcg10, 0.0);

  // The acceptance criterion: training never held the whole corpus.
  size_t max_shard = 0;
  for (size_t s = 0; s < stream.num_shards(); ++s) {
    max_shard = std::max(max_shard, stream.shard_entries(s));
  }
  EXPECT_GT(stream.peak_resident_entries(), 0u);
  EXPECT_LE(stream.peak_resident_entries(), 2 * max_shard);
  EXPECT_LT(stream.peak_resident_entries(), corpus_.entries.size());

  // Determinism: a second run over a fresh stream is identical.
  auto stream2 = ShardedCorpusStream::Open(data_.db.get(), path_);
  ASSERT_TRUE(stream2.ok());
  auto again = TrainLearnShapleyStream(*stream2, nullptr, cfg, serial);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again->best_dev_ndcg10, result->best_dev_ndcg10);
}

// --- Fault injection in the shard-read path. ---
//
// Every injected fault must surface as a clean non-OK ReadShard: no slice
// published, no resident-entry accounting, no partial state — the caller
// can retry or fail over, and the stream is untouched.

TEST_F(CorpusStreamTest, StreamReadFaultSurfacesCleanly) {
  ShardedCorpusStream stream = OpenSharded(3);
  FaultInjector fault;
  fault.FailAt(kSiteStreamRead, 0);
  stream.set_fault_injector(&fault);

  auto slice = stream.ReadShard(0);
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stream.resident_entries(), 0u);

  // The site is single-shot: the retry succeeds and the slice is whole.
  auto retry = stream.ReadShard(0);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->size(), stream.shard_entries(0));
}

TEST_F(CorpusStreamTest, ShardOpenFaultSurfacesCleanly) {
  ShardedCorpusStream stream = OpenSharded(2);
  FaultInjector fault;
  fault.FailAt(kSiteShardOpen, 0, StatusCode::kInternal);
  stream.set_fault_injector(&fault);

  auto slice = stream.ReadShard(1);
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), StatusCode::kInternal);
  EXPECT_EQ(stream.resident_entries(), 0u);

  auto retry = stream.ReadShard(1);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(CorpusStreamTest, ShardRecordFaultMidDecodeLeavesNoPartialState) {
  ShardedCorpusStream stream = OpenSharded(1);
  ASSERT_GT(stream.shard_entries(0), 2u);
  FaultInjector fault;
  // Fail on the third record read: the first two records were already
  // decoded when the fault hits, and none of them may leak out.
  fault.FailAt(kSiteShardRecord, 2);
  stream.set_fault_injector(&fault);

  auto slice = stream.ReadShard(0);
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stream.resident_entries(), 0u);
  EXPECT_GE(fault.hits(kSiteShardRecord), 3u);

  auto retry = stream.ReadShard(0);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->size(), corpus_.entries.size());
}

TEST_F(CorpusStreamTest, UnarmedInjectorCountsHitsWithoutFailing) {
  ShardedCorpusStream stream = OpenSharded(2);
  FaultInjector fault;
  stream.set_fault_injector(&fault);
  auto slice = stream.ReadShard(0);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(fault.hits(kSiteStreamRead), 1u);
  EXPECT_EQ(fault.hits(kSiteShardOpen), 1u);
  // One record poll per decoded entry, at least.
  EXPECT_GE(fault.hits(kSiteShardRecord), stream.shard_entries(0));
}

}  // namespace
}  // namespace lshap