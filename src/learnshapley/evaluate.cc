#include "learnshapley/evaluate.h"

#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "metrics/ranking_metrics.h"

namespace lshap {

namespace {

// NDCG@10 restricted to a subset of the lineage: both the predicted ranking
// and the gold relevances are filtered to `subset` before scoring.
double PartialNdcg(const std::vector<FactId>& predicted,
                   const ShapleyValues& gold,
                   const std::unordered_set<FactId>& train_seen,
                   bool want_seen) {
  std::vector<FactId> filtered_pred;
  ShapleyValues filtered_gold;
  for (FactId f : predicted) {
    const bool is_seen = train_seen.count(f) > 0;
    if (is_seen == want_seen) filtered_pred.push_back(f);
  }
  for (const auto& [f, v] : gold) {
    const bool is_seen = train_seen.count(f) > 0;
    if (is_seen == want_seen) filtered_gold[f] = v;
  }
  return NdcgAtK(filtered_pred, filtered_gold, 10);
}

// Scores every contribution of one decoded slice in parallel, every worker
// through the one const `scorer`, and writes the results into `per_pos`
// (indexed by split position, then contribution index). `members` lists
// the (split position, global entry) pairs of this slice's shard, in split
// order. Fails when the pool rejects the work.
Status EvaluateSlice(const CorpusSlice& slice,
                     const std::vector<std::pair<size_t, size_t>>& members,
                     const FactScorer& scorer,
                     const std::unordered_set<FactId>& train_seen,
                     ThreadPool& pool,
                     std::vector<std::vector<EvalPoint>>& per_pos) {
  const Corpus& chunk = *slice.corpus;
  struct Job {
    size_t pos;       // position in the split vector
    size_t local_e;   // entry index within the slice chunk
    size_t global_e;  // corpus-global entry index
    size_t c;         // contribution index
  };
  std::vector<Job> jobs;
  for (const auto& [pos, e] : members) {
    const size_t local = e - slice.base_entry;
    const size_t num_contribs = chunk.entries[local].contributions.size();
    per_pos[pos].resize(num_contribs);
    for (size_t c = 0; c < num_contribs; ++c) {
      jobs.push_back({pos, local, e, c});
    }
  }

  CancelToken never_cancelled;
  return ParallelFor(pool, jobs.size(), never_cancelled, [&](size_t j) {
    const Job& job = jobs[j];
    const CorpusEntry& entry = chunk.entries[job.local_e];
    const TupleContribution& contrib = entry.contributions[job.c];
    const ShapleyValues& gold = contrib.shapley;

    const ShapleyValues predicted = scorer.Score(chunk, job.local_e, job.c);
    const std::vector<FactId> ranking = RankByScore(predicted);

    EvalPoint& pt = per_pos[job.pos][job.c];
    pt.entry_idx = job.global_e;
    pt.contrib_idx = job.c;
    pt.ndcg10 = NdcgAtK(ranking, gold, 10);
    pt.p1 = PrecisionAtK(ranking, gold, 1);
    pt.p3 = PrecisionAtK(ranking, gold, 3);
    pt.p5 = PrecisionAtK(ranking, gold, 5);
    pt.lineage_size = gold.size();
    pt.num_tables = entry.query.NumTables();
    if (!train_seen.empty()) {
      size_t seen = 0;
      for (const auto& [f, v] : gold) {
        if (train_seen.count(f) > 0) ++seen;
      }
      pt.has_seen = seen > 0;
      pt.has_unseen = seen < gold.size();
      if (pt.has_seen) {
        pt.seen_ndcg10 = PartialNdcg(ranking, gold, train_seen, true);
      }
      if (pt.has_unseen) {
        pt.unseen_ndcg10 = PartialNdcg(ranking, gold, train_seen, false);
      }
    }
    return Status::Ok();
  });
}

}  // namespace

Result<EvalSummary> EvaluateScorerStream(
    const CorpusStream& stream, const std::vector<size_t>& split,
    const FactScorer& scorer, const std::unordered_set<FactId>& train_seen,
    ThreadPool& pool) {
  // Group split positions by shard (split order preserved within a shard),
  // so each shard is decoded exactly once per pass.
  std::vector<std::vector<std::pair<size_t, size_t>>> by_shard(
      stream.num_shards());
  for (size_t pos = 0; pos < split.size(); ++pos) {
    const size_t e = split[pos];
    if (e >= stream.num_entries()) {
      return Status::InvalidArgument(
          StrFormat("split entry %zu out of range (corpus has %zu entries)",
                    e, stream.num_entries()));
    }
    by_shard[stream.ShardOf(e)].emplace_back(pos, e);
  }
  std::vector<size_t> visit;
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (!by_shard[s].empty()) visit.push_back(s);
  }

  // Results keyed by split position so that flattening below reproduces the
  // resident evaluator's (split position, contribution) point order exactly,
  // regardless of which shard each entry lives in.
  std::vector<std::vector<EvalPoint>> per_pos(split.size());

  if (!visit.empty()) {
    ShardCursor cursor(stream, &pool, visit);
    while (!cursor.Done()) {
      auto slice = cursor.Next();
      if (!slice.ok()) return slice.status();
      Status st = EvaluateSlice(*slice, by_shard[slice->shard_index], scorer,
                                train_seen, pool, per_pos);
      if (!st.ok()) return st;
    }
  }

  EvalSummary summary;
  for (auto& points : per_pos) {
    for (EvalPoint& pt : points) summary.points.push_back(pt);
  }

  std::vector<double> ndcg, p1, p3, p5;
  ndcg.reserve(summary.points.size());
  for (const auto& pt : summary.points) {
    ndcg.push_back(pt.ndcg10);
    p1.push_back(pt.p1);
    p3.push_back(pt.p3);
    p5.push_back(pt.p5);
  }
  summary.ndcg10 = Mean(ndcg);
  summary.p1 = Mean(p1);
  summary.p3 = Mean(p3);
  summary.p5 = Mean(p5);
  return summary;
}

EvalSummary EvaluateScorer(const Corpus& corpus,
                           const std::vector<size_t>& split,
                           const FactScorer& scorer,
                           const std::unordered_set<FactId>& train_seen,
                           ThreadPool& pool) {
  // The in-memory stream has one shard aliasing the whole corpus, so the
  // streaming evaluator enumerates and scores exactly the jobs this
  // function always has.
  InMemoryCorpusStream stream(corpus);
  auto summary = EvaluateScorerStream(stream, split, scorer, train_seen, pool);
  LSHAP_CHECK(summary.ok());
  return std::move(*summary);
}

}  // namespace lshap
