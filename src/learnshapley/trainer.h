#ifndef LSHAP_LEARNSHAPLEY_TRAINER_H_
#define LSHAP_LEARNSHAPLEY_TRAINER_H_

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "corpus/corpus.h"
#include "corpus/stream.h"
#include "learnshapley/ranker.h"

namespace lshap {

// Training configuration for the full LearnShapley pipeline (pre-train on
// similarity objectives, fine-tune on Shapley regression, checkpoint on the
// dev split). Follows the options-builder convention (DESIGN.md §9.4):
// default-constructed reproduces the paper pipeline, every knob chains.
struct TrainConfig {
  enum class ModelSize { kBase, kLarge, kSmallAblation };

  ModelSize model_size = ModelSize::kBase;
  PretrainObjectives objectives;
  // Section 5.5 ablation: skip pre-training entirely ("BERT fine-tune only"
  // corresponds to do_pretrain = false on the base model; the
  // small-transformer ablation uses kSmallAblation + do_pretrain = false).
  bool do_pretrain = true;

  size_t pretrain_epochs = 3;
  size_t pretrain_pairs_per_epoch = 1024;
  size_t finetune_epochs = 4;
  size_t finetune_samples_per_epoch = 4096;
  size_t batch_size = 64;
  // A gentler pre-training rate preserves the fine-tunability of the small
  // encoder (at 2e-3 the similarity objectives distort the embeddings
  // enough to erase the pre-training benefit).
  float pretrain_lr = 5e-4f;
  float finetune_lr = 2e-3f;
  // Per-epoch multiplicative learning-rate decay (both stages).
  float lr_decay = 0.9f;
  // Target scaling. The paper multiplies raw Shapley values by 1000 before
  // regression (suited to BERT's pretrained optimization regime); for the
  // from-scratch MiniBERT a small scale over per-tuple-normalized targets
  // conditions the loss far better (measured +0.03 NDCG / +0.2 p@1). Set
  // shapley_scale = 1000 and normalize_targets_per_tuple = false to follow
  // the paper literally.
  float shapley_scale = 10.0f;
  // Divide each fact's target by the maximum Shapley value in its tuple's
  // lineage before scaling. The induced per-tuple ranking is unchanged, but
  // the regression becomes scale-free: absolute Shapley magnitudes depend on
  // the (hidden) lineage size, which a from-scratch MiniBERT wastes capacity
  // estimating. Set false to reproduce the paper's raw-value regression.
  bool normalize_targets_per_tuple = true;
  size_t max_len = 80;
  uint64_t seed = 42;
  // Extension beyond the paper (its Limitations section notes LearnShapley
  // is trained only on positive samples and so cannot separate contributing
  // from non-contributing facts): add this many random non-lineage facts
  // per contribution as zero-target samples during fine-tuning. 0 disables
  // the extension and reproduces the paper's training exactly.
  size_t negative_samples_per_contribution = 0;
  // Restrict training to these corpus entries (Figure 11 log-size sweep);
  // empty means corpus.train_idx.
  std::vector<size_t> train_subset;
  // Observability opt-in: when set, training records train.* gauges
  // (per-epoch loss, dev metrics, examples/sec), example counters, and an
  // Adam step-time histogram, under a "train" span whose children are
  // "train.vocab_pass", "train.pretrain" and "train.finetune". Each epoch's
  // dev pass is a child of its stage: "train.dev_mse" (PairMse) and
  // "train.dev_ndcg" (EvaluateScorerStream). Null disables all of it at
  // one-branch cost; it never changes the trained weights.
  MetricsRegistry* metrics = nullptr;

  TrainConfig& WithModelSize(ModelSize s) { model_size = s; return *this; }
  TrainConfig& WithObjectives(const PretrainObjectives& o) {
    objectives = o;
    return *this;
  }
  TrainConfig& WithDoPretrain(bool on) { do_pretrain = on; return *this; }
  TrainConfig& WithPretrainEpochs(size_t n) {
    pretrain_epochs = n;
    return *this;
  }
  TrainConfig& WithPretrainPairsPerEpoch(size_t n) {
    pretrain_pairs_per_epoch = n;
    return *this;
  }
  TrainConfig& WithFinetuneEpochs(size_t n) {
    finetune_epochs = n;
    return *this;
  }
  TrainConfig& WithFinetuneSamplesPerEpoch(size_t n) {
    finetune_samples_per_epoch = n;
    return *this;
  }
  TrainConfig& WithBatchSize(size_t n) { batch_size = n; return *this; }
  TrainConfig& WithPretrainLr(float lr) { pretrain_lr = lr; return *this; }
  TrainConfig& WithFinetuneLr(float lr) { finetune_lr = lr; return *this; }
  TrainConfig& WithLrDecay(float d) { lr_decay = d; return *this; }
  TrainConfig& WithShapleyScale(float s) { shapley_scale = s; return *this; }
  TrainConfig& WithNormalizeTargetsPerTuple(bool on) {
    normalize_targets_per_tuple = on;
    return *this;
  }
  TrainConfig& WithMaxLen(size_t n) { max_len = n; return *this; }
  TrainConfig& WithSeed(uint64_t s) { seed = s; return *this; }
  TrainConfig& WithNegativeSamplesPerContribution(size_t n) {
    negative_samples_per_contribution = n;
    return *this;
  }
  TrainConfig& WithTrainSubset(std::vector<size_t> subset) {
    train_subset = std::move(subset);
    return *this;
  }
  TrainConfig& WithMetrics(MetricsRegistry* m) { metrics = m; return *this; }
};

// Each stage keeps the epoch that scores best on the dev split. With an
// empty dev split no dev pass runs: each stage keeps its last epoch, and
// pretrain_dev_mse and best_dev_ndcg10 read 0. A stage that runs no epoch
// keeps its initial weights and reads 0 too.
struct TrainResult {
  std::unique_ptr<LearnShapleyRanker> ranker;
  double pretrain_dev_mse = 0.0;   // of the selected pre-train checkpoint
  double best_dev_ndcg10 = 0.0;    // of the selected fine-tune checkpoint
  double train_seconds = 0.0;
};

// Trains LearnShapley on the corpus' train split (data-parallel across
// `pool` workers with summed-gradient batches) and returns the deployable
// ranker with the best dev-NDCG@10 fine-tune checkpoint restored.
//
// This is TrainLearnShapleyStream over InMemoryCorpusStream(corpus): an
// in-memory corpus is the one-shard case of the one training pipeline.
// CHECK-fails where that returns an error (an out-of-range train_subset
// entry).
TrainResult TrainLearnShapley(const Corpus& corpus,
                              const SimilarityMatrices& sims,
                              const TrainConfig& config, ThreadPool& pool);

// The training pipeline. It reads the corpus through `stream` a shard at a
// time, so peak corpus memory is bounded by shard size, not corpus size:
//
//  - One decode pass over every shard builds the vocabulary from the train
//    entries and caches every entry's query tokens.
//  - Pre-training runs on those tokens and `sims`.
//  - Each fine-tune epoch visits the train shards, starting one shard
//    later than the epoch before. Each shard's samples are lightweight
//    references (entry, contribution, fact, target), shuffled by an RNG
//    derived from (seed, epoch, shard); the shard contributes up to an
//    equal share of finetune_samples_per_epoch. A worker encodes a sample
//    only when it steps on it. Dev NDCG@10 is evaluated streamed after
//    every epoch.
//
// Both the vocabulary pass and the sample enumeration visit each lineage's
// facts in ascending FactId order, and each batch's gradients are summed in
// fixed lanes. So the result is a function of (config, corpus content,
// shard layout) alone, at any thread count: a corpus and its one-shard
// save/load round trip train to the same model.
//
// `sims` may be null to skip pre-training — the similarity matrices are
// corpus-global (N×N over all entries) and so only exist when the corpus
// was resident at some point. Returns kInvalidArgument for an out-of-range
// train_subset entry, and the status of any shard read that fails.
Result<TrainResult> TrainLearnShapleyStream(const CorpusStream& stream,
                                            const SimilarityMatrices* sims,
                                            const TrainConfig& config,
                                            ThreadPool& pool);

}  // namespace lshap

#endif  // LSHAP_LEARNSHAPLEY_TRAINER_H_
