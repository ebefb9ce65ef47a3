// Table 6: inference time per (query, output tuple) pair — LearnShapley-base
// and -large vs. Nearest Queries with syntax / witness similarity computed
// at inference time (as deployment would), vs. the exact knowledge-
// compilation algorithm. Average and worst-case milliseconds, single thread.
//
// LearnShapley rows are split into tokenize / encode / score stages so the
// model forward pass is measured honestly (tokenization is shared context
// work, amortized across the tuple's lineage by the batched scoring path),
// and report per-fact amortized score latency. --quantized adds int8 SIMD
// rows next to the float oracle rows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "eval/evaluator.h"
#include "learnshapley/serialization.h"
#include "learnshapley/trainer.h"
#include "ml/simd.h"
#include "similarity/similarity.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

struct Timing {
  double avg_ms = 0.0;
  double max_ms = 0.0;
};

Timing Summarize(const std::vector<double>& ms) {
  Timing t;
  for (double m : ms) {
    t.avg_ms += m;
    t.max_ms = std::max(t.max_ms, m);
  }
  if (!ms.empty()) t.avg_ms /= static_cast<double>(ms.size());
  return t;
}

void PrintRow(const char* name, const Timing& t) {
  std::printf("%-34s %12.3f %12.3f\n", name, t.avg_ms, t.max_ms);
}

// Per-pair stage timings for one LearnShapley configuration.
struct StageTimes {
  std::vector<double> tokenize_ms;  // per pair
  std::vector<double> encode_ms;    // per pair
  std::vector<double> score_ms;     // per pair
  double total_score_ms = 0.0;
  size_t total_facts = 0;

  double PerFactMs() const {
    return total_facts == 0 ? 0.0
                            : total_score_ms / static_cast<double>(total_facts);
  }
};

void PrintStageRow(const char* name, const StageTimes& t) {
  const Timing tok = Summarize(t.tokenize_ms);
  const Timing enc = Summarize(t.encode_ms);
  const Timing sc = Summarize(t.score_ms);
  std::printf("%-28s %9.3f %9.3f %9.3f %9.3f %11.4f\n", name, tok.avg_ms,
              enc.avg_ms, sc.avg_ms, sc.max_ms, t.PerFactMs());
}

// One (query, tuple, lineage) pair through the three stages, timed
// separately. Mirrors LearnShapleyRanker::ScoreLineage's batched structure:
// (query, tuple) context tokenized and encoded once for the whole lineage.
void TimePair(const LearnShapleyRanker& ranker, const Database& db,
              const Query& q, const OutputTuple& tuple,
              const std::vector<FactId>& lineage, StageTimes& out) {
  const Vocab& vocab = ranker.vocab();
  const size_t max_len = ranker.max_len();

  WallTimer t_tok;
  const std::vector<std::string> q_tokens = QueryTokens(q);
  const std::vector<std::string> t_tokens = TupleTokens(tuple);
  std::vector<std::vector<std::string>> fact_tokens;
  fact_tokens.reserve(lineage.size());
  for (FactId f : lineage) {
    fact_tokens.push_back(FactTokensWithContext(db, f, t_tokens));
  }
  out.tokenize_ms.push_back(t_tok.ElapsedMillis());

  WallTimer t_enc;
  const std::vector<int> q_ids = EncodeTokens(vocab, q_tokens);
  const std::vector<int> t_ids = EncodeTokens(vocab, t_tokens);
  std::vector<EncodedPair> inputs;
  inputs.reserve(lineage.size());
  for (const auto& ft : fact_tokens) {
    const std::vector<int> f_ids = EncodeTokens(vocab, ft);
    inputs.push_back(AssembleEncodedSegments({&q_ids, &t_ids, &f_ids}, max_len));
  }
  out.encode_ms.push_back(t_enc.ElapsedMillis());

  static thread_local InferenceArena arena;
  static thread_local QuantScratch scratch;
  const bool quantized = ranker.config().mode == InferenceMode::kQuantized;
  WallTimer t_score;
  double sink = 0.0;
  for (const EncodedPair& input : inputs) {
    sink += quantized
                ? ranker.quantized_model()->PredictShapley(input, scratch)
                : ranker.model().PredictShapley(input, arena);
  }
  const double ms = t_score.ElapsedMillis();
  out.score_ms.push_back(ms);
  out.total_score_ms += ms;
  out.total_facts += lineage.size();
  if (sink == 12345.6789) std::printf("(unlikely)\n");  // keep scores live
}

}  // namespace

int main(int argc, char** argv) {
  bool quantized = false;
  const auto set_quantized = [&quantized](const char*) { quantized = true; };
  ParseBenchArgs(argc, argv, {{"--quantized", set_quantized}});
  ThreadPool pool;
  PrintHeader("Table 6: inference time per (query, output tuple) pair [ms]");
  const Workbench wb = MakeAcademicWorkbench(pool);
  const Corpus& corpus = wb.corpus;

  TrainConfig base_cfg;
  base_cfg.pretrain_epochs = 2;
  base_cfg.pretrain_pairs_per_epoch = 512;
  base_cfg.finetune_epochs = 3;
  base_cfg.finetune_samples_per_epoch = 2048;
  base_cfg.seed = 600;
  base_cfg.metrics = BenchMetrics();
  TrainResult base = TrainLearnShapley(corpus, wb.sims, base_cfg, pool);
  base.ranker->set_metrics(BenchMetrics());

  TrainConfig large_cfg = base_cfg;
  large_cfg.model_size = TrainConfig::ModelSize::kLarge;
  large_cfg.seed = 601;
  TrainResult large = TrainLearnShapley(corpus, wb.sims, large_cfg, pool);
  large.ranker->set_metrics(BenchMetrics());

  // Quantized twins sharing the trained weights (opt-in mode).
  std::unique_ptr<LearnShapleyRanker> base_q, large_q;
  if (quantized) {
    std::printf("quantized mode: simd=%s\n",
                SimdLevelName(ActiveSimdLevel()));
    base_q = base.ranker->Clone();
    base_q->Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
    large_q = large.ranker->Clone();
    large_q->Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
  }

  // Deployment artifacts for the Nearest Queries baselines: per-train-query
  // fact means and (for witness) output sets — data DBShap already stores.
  std::unordered_map<size_t, ShapleyValues> fact_means;
  for (size_t t : corpus.train_idx) {
    ShapleyValues sums;
    std::unordered_map<FactId, size_t> counts;
    for (const auto& c : corpus.entries[t].contributions) {
      for (const auto& [f, v] : c.shapley) {
        sums[f] += v;
        ++counts[f];
      }
    }
    for (auto& [f, s] : sums) s /= static_cast<double>(counts[f]);
    fact_means.emplace(t, std::move(sums));
  }

  auto nn_score = [&](const std::vector<std::pair<double, size_t>>& sims_desc,
                      const ShapleyValues& gold) {
    ShapleyValues out;
    const size_t n = std::min<size_t>(3, sims_desc.size());
    for (const auto& [f, v] : gold) {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const auto& means = fact_means.at(sims_desc[i].second);
        auto it = means.find(f);
        if (it != means.end()) sum += it->second;
      }
      out[f] = n > 0 ? sum / static_cast<double>(n) : 0.0;
    }
    return out;
  };

  StageTimes st_base, st_large, st_base_q, st_large_q;
  std::vector<double> t_syntax, t_witness, t_exact;

  for (size_t e : corpus.test_idx) {
    const CorpusEntry& entry = corpus.entries[e];
    // Re-evaluate the query once to obtain provenance for the exact method.
    auto eval_result = Evaluate(*corpus.db, entry.query);
    for (size_t c = 0; c < entry.contributions.size(); ++c) {
      const TupleContribution& contrib = entry.contributions[c];
      std::vector<FactId> lineage;
      for (const auto& [f, v] : contrib.shapley) lineage.push_back(f);

      TimePair(*base.ranker, *corpus.db, entry.query, contrib.tuple, lineage,
               st_base);
      TimePair(*large.ranker, *corpus.db, entry.query, contrib.tuple, lineage,
               st_large);
      if (quantized) {
        TimePair(*base_q, *corpus.db, entry.query, contrib.tuple, lineage,
                 st_base_q);
        TimePair(*large_q, *corpus.db, entry.query, contrib.tuple, lineage,
                 st_large_q);
      }
      {
        // Syntax NN: decompose the test query into operations against every
        // train query at inference time (the paper's preprocessing cost).
        WallTimer timer;
        std::vector<std::pair<double, size_t>> sims_desc;
        for (size_t t : corpus.train_idx) {
          sims_desc.emplace_back(
              SyntaxSimilarity(entry.query, corpus.entries[t].query), t);
        }
        std::sort(sims_desc.rbegin(), sims_desc.rend());
        (void)nn_score(sims_desc, contrib.shapley);
        t_syntax.push_back(timer.ElapsedMillis());
      }
      {
        // Witness NN: set operations on stored output-tuple sets.
        WallTimer timer;
        std::vector<std::pair<double, size_t>> sims_desc;
        for (size_t t : corpus.train_idx) {
          sims_desc.emplace_back(
              WitnessSimilarity(entry.all_outputs,
                                corpus.entries[t].all_outputs),
              t);
        }
        std::sort(sims_desc.rbegin(), sims_desc.rend());
        (void)nn_score(sims_desc, contrib.shapley);
        t_witness.push_back(timer.ElapsedMillis());
      }
      if (eval_result.ok()) {
        auto it = eval_result->index.find(contrib.tuple);
        if (it != eval_result->index.end()) {
          const Dnf& prov = eval_result->ProvenanceOf(it->second);
          WallTimer timer;
          (void)ComputeShapleyExact(prov).value();
          t_exact.push_back(timer.ElapsedMillis());
        }
      }
    }
  }

  std::printf("\n%-28s %9s %9s %9s %9s %11s   (%zu pairs)\n", "LearnShapley",
              "tok avg", "enc avg", "score avg", "score max", "ms/fact",
              st_base.score_ms.size());
  PrintStageRow("  base (float)", st_base);
  PrintStageRow("  large (float)", st_large);
  if (quantized) {
    PrintStageRow("  base (int8 simd)", st_base_q);
    PrintStageRow("  large (int8 simd)", st_large_q);
  }

  std::printf("\n%-34s %12s %12s   (Academic test split)\n", "method",
              "avg [ms]", "max [ms]");
  PrintRow("NearestQueries-witness", Summarize(t_witness));
  PrintRow("NearestQueries-syntax", Summarize(t_syntax));
  PrintRow("Exact Shapley (circuit, [15])", Summarize(t_exact));
  std::printf("\n(Exact computation additionally requires capturing full "
              "boolean provenance,\nwhich is excluded from its timing "
              "here; LearnShapley needs only the lineage.\nScore timings "
              "exclude tokenize/encode, reported separately above.)\n");
  return 0;
}
