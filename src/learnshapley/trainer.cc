#include "learnshapley/trainer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "common/timer.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/serialization.h"
#include "ml/adam.h"

namespace lshap {

namespace {

struct PairSample {
  EncodedPair input;
  double sim_rank;
  double sim_witness;
  double sim_syntax;
};

// One fine-tuning sample by reference into the shard being trained: fact
// `fact` of contribution `contrib` of slice entry `entry`, regressed toward
// `target`. A worker encodes it only when it steps on it.
struct SampleRef {
  size_t entry;
  size_t contrib;
  FactId fact;
  float target;
};

// Runs batches across a fixed number of model clones, the lanes, and sums
// their gradients into the main model. Sample i of a batch goes to lane
// i mod kLanes, which steps on its samples in index order on whichever pool
// thread runs it; the main model then adds the lanes in lane order, and the
// losses follow the same layout. So every sum, and the trained weights,
// come out the same at any thread count. Weights are re-broadcast to the
// clones before every batch.
class DataParallelRunner {
 public:
  static constexpr size_t kLanes = 8;

  DataParallelRunner(LearnShapleyModel* main, ThreadPool* pool)
      : main_(main), pool_(pool), clones_(kLanes, *main) {}

  // fn(model, index) must run the sample at `index` through `model`
  // (accumulating grads inside the model) and return its loss.
  template <typename Fn>
  float RunBatch(size_t batch_begin, size_t batch_end, const Fn& fn) {
    Broadcast();
    const size_t lanes = std::min(kLanes, batch_end - batch_begin);
    std::array<float, kLanes> losses{};
    ParallelFor(*pool_, lanes, [&](size_t lane) {
      for (size_t i = batch_begin + lane; i < batch_end; i += kLanes) {
        losses[lane] += fn(clones_[lane], i);
      }
    });
    // Sum lane gradients into the main model, normalized by batch size.
    const float inv = 1.0f / static_cast<float>(batch_end - batch_begin);
    std::vector<Param*> main_params = main_->Params();
    float total = 0.0f;
    for (size_t lane = 0; lane < lanes; ++lane) {
      std::vector<Param*> clone_params = clones_[lane].Params();
      for (size_t p = 0; p < main_params.size(); ++p) {
        main_params[p]->grad.AddScaled(clone_params[p]->grad, inv);
        clone_params[p]->ZeroGrad();
      }
      total += losses[lane];
    }
    return total;
  }

 private:
  void Broadcast() {
    std::vector<Param*> main_params = main_->Params();
    for (auto& clone : clones_) {
      std::vector<Param*> clone_params = clone.Params();
      for (size_t p = 0; p < main_params.size(); ++p) {
        clone_params[p]->value = main_params[p]->value;
      }
    }
  }

  LearnShapleyModel* main_;
  ThreadPool* pool_;
  std::vector<LearnShapleyModel> clones_;
};

EncoderConfig MakeEncoderConfig(TrainConfig::ModelSize size,
                                size_t vocab_size, size_t max_len,
                                uint64_t seed) {
  EncoderConfig cfg;
  switch (size) {
    case TrainConfig::ModelSize::kBase:
      cfg = EncoderConfig::Base(vocab_size);
      break;
    case TrainConfig::ModelSize::kLarge:
      cfg = EncoderConfig::Large(vocab_size);
      break;
    case TrainConfig::ModelSize::kSmallAblation:
      cfg = EncoderConfig::SmallAblation(vocab_size);
      break;
  }
  cfg.max_len = max_len;
  cfg.seed = seed;
  return cfg;
}

// Mean MSE of the enabled similarity heads over a set of pair samples,
// evaluated in parallel; the workers share the const model. Each pair's
// error has its own slot and the slots are summed in pair order, so the
// result does not depend on the thread count.
double PairMse(const std::vector<PairSample>& pairs,
               const PretrainObjectives& objectives,
               const LearnShapleyModel& model, ThreadPool& pool) {
  if (pairs.empty()) return 0.0;
  std::vector<double> errors(pairs.size(), 0.0);
  ParallelFor(pool, pairs.size(), [&](size_t i) {
    const auto sims = model.PredictSimilarities(pairs[i].input);
    double err = 0.0;
    int terms = 0;
    if (objectives.rank) {
      const double d = sims.rank - pairs[i].sim_rank;
      err += d * d;
      ++terms;
    }
    if (objectives.witness) {
      const double d = sims.witness - pairs[i].sim_witness;
      err += d * d;
      ++terms;
    }
    if (objectives.syntax) {
      const double d = sims.syntax - pairs[i].sim_syntax;
      err += d * d;
      ++terms;
    }
    errors[i] = terms > 0 ? err / terms : 0.0;
  });
  double total = 0.0;
  for (double e : errors) total += e;
  return total / static_cast<double>(pairs.size());
}

// Handle bundle resolved once per training run; every member is a no-op
// handle when config.metrics is null.
struct TrainMetricSet {
  Counter pretrain_examples, finetune_examples, adam_steps;
  Gauge pretrain_epoch_loss, pretrain_dev_mse, finetune_epoch_loss,
      finetune_dev_ndcg10, examples_per_sec;
  Histogram adam_step_seconds;

  TrainMetricSet() = default;
  explicit TrainMetricSet(MetricsRegistry* r)
      : pretrain_examples(CounterFor(r, "train.pretrain_examples")),
        finetune_examples(CounterFor(r, "train.finetune_examples")),
        adam_steps(CounterFor(r, "train.adam_steps")),
        pretrain_epoch_loss(GaugeFor(r, "train.pretrain_epoch_loss")),
        pretrain_dev_mse(GaugeFor(r, "train.pretrain_dev_mse")),
        finetune_epoch_loss(GaugeFor(r, "train.finetune_epoch_loss")),
        finetune_dev_ndcg10(GaugeFor(r, "train.finetune_dev_ndcg10")),
        examples_per_sec(GaugeFor(r, "train.examples_per_sec")),
        adam_step_seconds(HistogramFor(r, "train.adam_step_seconds",
                                       ExponentialBuckets(1e-5, 4.0, 12))) {}
};

// optimizer.Step() with its wall time observed into the step histogram.
// The timing reads are guarded so the disabled path stays two branches.
template <typename Opt>
void TimedStep(Opt& optimizer, const TrainMetricSet& metrics) {
  if (!metrics.adam_step_seconds.enabled()) {
    optimizer.Step();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  optimizer.Step();
  const auto t1 = std::chrono::steady_clock::now();
  metrics.adam_steps.Inc();
  metrics.adam_step_seconds.Observe(
      std::chrono::duration<double>(t1 - t0).count());
}

std::string RankerName(const TrainConfig& config) {
  std::string name = "LearnShapley-";
  switch (config.model_size) {
    case TrainConfig::ModelSize::kBase:
      name += "base";
      break;
    case TrainConfig::ModelSize::kLarge:
      name += "large";
      break;
    case TrainConfig::ModelSize::kSmallAblation:
      name += "small";
      break;
  }
  if (!config.do_pretrain) name += " (no pre-train)";
  return name;
}

// A contribution's (fact, Shapley value) pairs in ascending FactId order.
// The vocabulary pass and the sample enumeration both walk lineages through
// this, so a trained model never depends on the order in which a lineage's
// hash map was filled (a loaded corpus fills it differently from a built
// one).
std::vector<std::pair<FactId, double>> SortedLineage(
    const TupleContribution& c) {
  std::vector<std::pair<FactId, double>> facts(c.shapley.begin(),
                                               c.shapley.end());
  std::sort(facts.begin(), facts.end());
  return facts;
}

// Pre-training on the similarity objectives. Operates only on cached query
// token streams plus the similarity matrices, which are indexed by global
// entry index, so it never touches a shard. Restores the best-dev-MSE
// checkpoint into `model` and returns that MSE. With no dev pairs (an empty
// dev or train split) it keeps the last epoch and returns 0.
double PretrainOnSims(const std::vector<size_t>& train,
                      const std::vector<size_t>& dev_idx,
                      const std::vector<std::vector<std::string>>& query_tokens,
                      const SimilarityMatrices& sims, const TrainConfig& config,
                      const TrainMetricSet& metrics, const Vocab& vocab,
                      LearnShapleyModel& model, DataParallelRunner& runner,
                      ThreadPool& pool, Rng& rng, size_t& total_examples) {
  ScopedSpan pretrain_span(config.metrics, "train.pretrain");
  // Query pair (a, b), encoded, with its three similarity targets.
  auto make_sample = [&](size_t a, size_t b) {
    return PairSample{
        EncodeSegments(vocab, {query_tokens[a], query_tokens[b]},
                       config.max_len),
        sims.rank[a][b], sims.witness[a][b], sims.syntax[a][b]};
  };
  // All train-train pairs (i < j) as candidates.
  std::vector<std::pair<size_t, size_t>> train_pairs;
  for (size_t a = 0; a < train.size(); ++a) {
    for (size_t b = a + 1; b < train.size(); ++b) {
      train_pairs.emplace_back(train[a], train[b]);
    }
  }
  // Dev pairs (dev × train) for checkpoint selection, capped.
  std::vector<PairSample> dev_pairs;
  {
    std::vector<std::pair<size_t, size_t>> cands;
    for (size_t d : dev_idx) {
      for (size_t t : train) cands.emplace_back(d, t);
    }
    rng.Shuffle(cands);
    const size_t take = std::min<size_t>(cands.size(), 256);
    for (size_t i = 0; i < take; ++i) {
      dev_pairs.push_back(make_sample(cands[i].first, cands[i].second));
    }
  }

  Adam optimizer(model.Params(), [&] {
    AdamConfig a;
    a.lr = config.pretrain_lr;
    return a;
  }());

  double best_mse = 1e30;
  std::vector<Tensor> best_weights = model.SnapshotWeights();
  for (size_t epoch = 0; epoch < config.pretrain_epochs; ++epoch) {
    rng.Shuffle(train_pairs);
    const size_t take =
        std::min(train_pairs.size(), config.pretrain_pairs_per_epoch);
    std::vector<PairSample> samples;
    samples.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      samples.push_back(make_sample(train_pairs[i].first,
                                    train_pairs[i].second));
    }
    float epoch_loss = 0.0f;
    for (size_t begin = 0; begin < samples.size();
         begin += config.batch_size) {
      const size_t end = std::min(samples.size(), begin + config.batch_size);
      epoch_loss += runner.RunBatch(begin, end, [&](LearnShapleyModel& m,
                                                    size_t i) {
        return m.PretrainStep(samples[i].input, samples[i].sim_rank,
                              samples[i].sim_witness, samples[i].sim_syntax,
                              config.objectives);
      });
      TimedStep(optimizer, metrics);
    }
    metrics.pretrain_examples.Inc(take);
    total_examples += take;
    metrics.pretrain_epoch_loss.Set(
        static_cast<double>(epoch_loss) /
        static_cast<double>(std::max<size_t>(1, take)));
    optimizer.set_lr(optimizer.lr() * config.lr_decay);
    if (dev_pairs.empty()) continue;
    ScopedSpan dev_span(config.metrics, "train.dev_mse");
    const double dev_mse = PairMse(dev_pairs, config.objectives, model, pool);
    metrics.pretrain_dev_mse.Set(dev_mse);
    if (dev_mse < best_mse) {
      best_mse = dev_mse;
      best_weights = model.SnapshotWeights();
    }
  }
  if (dev_pairs.empty()) return 0.0;
  model.RestoreWeights(best_weights);
  return best_mse;
}

// The fine-tuning samples of one shard's train entries, in entry order:
// each lineage fact in ascending FactId order with its scaled target, then
// the contribution's zero-target negatives (the extension beyond the
// paper). Negatives come from a per-(entry, contribution) RNG stream, so
// the negative set does not depend on epoch or shard visit order.
std::vector<SampleRef> ShardSamples(const CorpusSlice& slice,
                                    const std::vector<char>& in_train,
                                    size_t num_facts,
                                    const TrainConfig& config) {
  std::vector<SampleRef> samples;
  const Corpus& chunk = *slice.corpus;
  for (size_t i = 0; i < chunk.entries.size(); ++i) {
    const size_t e = slice.base_entry + i;
    if (!in_train[e]) continue;
    const CorpusEntry& entry = chunk.entries[i];
    for (size_t ci = 0; ci < entry.contributions.size(); ++ci) {
      const TupleContribution& c = entry.contributions[ci];
      const std::vector<std::pair<FactId, double>> lineage = SortedLineage(c);
      double norm = 1.0;
      if (config.normalize_targets_per_tuple) {
        double max_v = 0.0;
        for (const auto& [f, v] : lineage) max_v = std::max(max_v, v);
        if (max_v > 0.0) norm = 1.0 / max_v;
      }
      for (const auto& [f, v] : lineage) {
        samples.push_back(
            {i, ci, f, static_cast<float>(v * norm) * config.shapley_scale});
      }
      if (config.negative_samples_per_contribution == 0) continue;
      Rng neg_rng(config.seed ^ (0xda942042e4dd58b5ULL * (e + 1)) ^
                  (0x9e3779b97f4a7c15ULL * (ci + 1)));
      for (size_t neg = 0; neg < config.negative_samples_per_contribution;
           ++neg) {
        const FactId f = static_cast<FactId>(neg_rng.NextBounded(num_facts));
        if (c.shapley.count(f) > 0) continue;  // accidentally positive
        samples.push_back({i, ci, f, 0.0f});
      }
    }
  }
  return samples;
}

}  // namespace

Result<TrainResult> TrainLearnShapleyStream(const CorpusStream& stream,
                                            const SimilarityMatrices* sims,
                                            const TrainConfig& config,
                                            ThreadPool& pool) {
  WallTimer timer;
  ScopedSpan train_span(config.metrics, "train");
  const TrainMetricSet metrics(config.metrics);
  size_t total_examples = 0;
  Rng rng(config.seed);
  const Database& db = stream.db();

  const std::vector<size_t>& train =
      config.train_subset.empty() ? stream.train_idx() : config.train_subset;
  std::vector<char> in_train(stream.num_entries(), 0);
  for (size_t e : train) {
    if (e >= stream.num_entries()) {
      return Status::InvalidArgument(
          StrFormat("train entry %zu out of range (corpus has %zu entries)",
                    e, stream.num_entries()));
    }
    in_train[e] = 1;
  }

  // ---- Vocabulary and cached query token streams: one decode of every
  // shard, in entry order; only the (small) token vectors stay resident.
  // Entry order is the same for every shard layout, so token ids are too.
  auto vocab = std::make_shared<Vocab>();
  std::vector<std::vector<std::string>> query_tokens(stream.num_entries());
  {
    ScopedSpan vocab_span(config.metrics, "train.vocab_pass");
    ShardCursor cursor(stream, &pool);
    while (!cursor.Done()) {
      auto slice = cursor.Next();
      if (!slice.ok()) return slice.status();
      const Corpus& chunk = *slice->corpus;
      for (size_t i = 0; i < chunk.entries.size(); ++i) {
        const size_t e = slice->base_entry + i;
        query_tokens[e] = QueryTokens(chunk.entries[i].query);
        if (!in_train[e]) continue;
        vocab->AddTokens(query_tokens[e]);
        for (const auto& c : chunk.entries[i].contributions) {
          vocab->AddTokens(TupleTokens(c.tuple));
          for (const auto& [f, v] : SortedLineage(c)) {
            vocab->AddTokens(FactTokens(db, f));
          }
        }
      }
    }
  }
  // Overlap markers emitted by FactTokensWithContext.
  vocab->AddTokens({"ovl0", "ovl1", "ovl2"});

  // ---- Model. ----
  const EncoderConfig encoder_cfg = MakeEncoderConfig(
      config.model_size, vocab->size(), config.max_len, config.seed);
  LearnShapleyModel model(encoder_cfg, config.seed);
  DataParallelRunner runner(&model, &pool);

  TrainResult result;

  // ---- Pre-training (needs caller-supplied similarity matrices, which
  // are corpus-global; pass null to skip). ----
  if (config.do_pretrain && config.objectives.AnyEnabled() &&
      sims != nullptr) {
    result.pretrain_dev_mse = PretrainOnSims(
        train, stream.dev_idx(), query_tokens, *sims, config, metrics, *vocab,
        model, runner, pool, rng, total_examples);
  }

  // ---- Fine-tuning, shard at a time. ----
  ScopedSpan finetune_span(config.metrics, "train.finetune");
  Adam optimizer(model.Params(), [&] {
    AdamConfig a;
    a.lr = config.finetune_lr;
    return a;
  }());

  // An empty dev split scores nothing, so no epoch could beat the first:
  // skip the dev pass and keep the last epoch instead.
  const bool has_dev = !stream.dev_idx().empty();
  double best_ndcg = -1.0;
  std::vector<Tensor> best_weights = model.SnapshotWeights();

  std::vector<size_t> train_shards;
  {
    std::vector<char> has(stream.num_shards(), 0);
    for (size_t e : train) has[stream.ShardOf(e)] = 1;
    for (size_t s = 0; s < has.size(); ++s) {
      if (has[s]) train_shards.push_back(s);
    }
  }

  for (size_t epoch = 0; epoch < config.finetune_epochs; ++epoch) {
    float epoch_loss = 0.0f;
    size_t epoch_examples = 0;
    if (!train_shards.empty()) {
      // Rotate the starting shard so no shard always trains against the
      // freshest (end-of-epoch) weights.
      std::vector<size_t> order = train_shards;
      std::rotate(order.begin(), order.begin() + (epoch % order.size()),
                  order.end());
      const size_t quota =
          (config.finetune_samples_per_epoch + order.size() - 1) /
          order.size();
      size_t remaining = config.finetune_samples_per_epoch;

      ShardCursor cursor(stream, &pool, order);
      while (!cursor.Done()) {
        auto slice_r = cursor.Next();
        if (!slice_r.ok()) return slice_r.status();
        const CorpusSlice slice = std::move(*slice_r);
        const Corpus& chunk = *slice.corpus;

        std::vector<SampleRef> samples =
            ShardSamples(slice, in_train, db.num_facts(), config);
        // Per-(epoch, shard) derived shuffle: sample order is a function of
        // position in the corpus, not of scheduling.
        Rng order_rng(config.seed ^
                      (0x2545f4914f6cdd1dULL * (epoch + 1)) ^
                      (0x9e3779b97f4a7c15ULL * (slice.shard_index + 1)));
        order_rng.Shuffle(samples);
        const size_t take = std::min({samples.size(), quota, remaining});
        for (size_t begin = 0; begin < take; begin += config.batch_size) {
          const size_t end = std::min(take, begin + config.batch_size);
          epoch_loss += runner.RunBatch(
              begin, end, [&](LearnShapleyModel& m, size_t i) {
                const SampleRef& s = samples[i];
                const TupleContribution& c =
                    chunk.entries[s.entry].contributions[s.contrib];
                const std::vector<std::string> t_tokens = TupleTokens(c.tuple);
                const EncodedPair input = EncodeSegments(
                    *vocab,
                    {query_tokens[slice.base_entry + s.entry], t_tokens,
                     FactTokensWithContext(db, s.fact, t_tokens)},
                    config.max_len);
                return m.FinetuneStep(input, s.target);
              });
          TimedStep(optimizer, metrics);
        }
        remaining -= take;
        epoch_examples += take;
      }
    }

    metrics.finetune_examples.Inc(epoch_examples);
    total_examples += epoch_examples;
    metrics.finetune_epoch_loss.Set(
        static_cast<double>(epoch_loss) /
        static_cast<double>(std::max<size_t>(1, epoch_examples)));
    optimizer.set_lr(optimizer.lr() * config.lr_decay);
    if (!has_dev) continue;
    // Dev NDCG@10 for checkpoint selection, streamed over the dev shards.
    ScopedSpan dev_span(config.metrics, "train.dev_ndcg");
    LearnShapleyRanker dev_ranker(model, vocab, config.max_len,
                                  config.shapley_scale, "dev");
    auto dev = EvaluateScorerStream(stream, stream.dev_idx(), dev_ranker, {},
                                    pool);
    if (!dev.ok()) return dev.status();
    metrics.finetune_dev_ndcg10.Set(dev->ndcg10);
    if (dev->ndcg10 > best_ndcg) {
      best_ndcg = dev->ndcg10;
      best_weights = model.SnapshotWeights();
    }
  }
  if (has_dev) {
    model.RestoreWeights(best_weights);
    result.best_dev_ndcg10 = best_ndcg;
  }

  result.ranker = std::make_unique<LearnShapleyRanker>(
      std::move(model), vocab, config.max_len, config.shapley_scale,
      RankerName(config));
  result.train_seconds = timer.ElapsedSeconds();
  if (result.train_seconds > 0.0) {
    metrics.examples_per_sec.Set(static_cast<double>(total_examples) /
                                 result.train_seconds);
  }
  return result;
}

TrainResult TrainLearnShapley(const Corpus& corpus,
                              const SimilarityMatrices& sims,
                              const TrainConfig& config, ThreadPool& pool) {
  InMemoryCorpusStream stream(corpus);
  auto result = TrainLearnShapleyStream(stream, &sims, config, pool);
  LSHAP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(*result);
}

}  // namespace lshap
