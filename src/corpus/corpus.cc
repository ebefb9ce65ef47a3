#include "corpus/corpus.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "corpus/format.h"
#include "eval/evaluator.h"
#include "shapley/shapley.h"

namespace lshap {

namespace {

// Per-job record of which ladder rung produced the ground truth (null: the
// tuple was never processed) plus the budget-trip sites hit along the way.
// Filled by worker threads (one slot per job, no sharing) and folded into
// the shard's RungCounts serially after the wave, so the recorded counts are
// deterministic regardless of thread interleaving.
struct LadderOutcome {
  size_t RungCounts::*rung = nullptr;
  std::vector<std::string> trip_sites;
};

// Adds `counts` to the registry's `<prefix>rung_*` counters.
void MirrorRungCounts(MetricsRegistry* registry, const std::string& prefix,
                      const RungCounts& counts) {
  CounterFor(registry, prefix + "rung_exact").Inc(counts.exact);
  CounterFor(registry, prefix + "rung_stratified").Inc(counts.stratified);
  CounterFor(registry, prefix + "rung_monte_carlo").Inc(counts.monte_carlo);
  CounterFor(registry, prefix + "rung_cnf_proxy").Inc(counts.cnf_proxy);
  CounterFor(registry, prefix + "rung_skipped").Inc(counts.skipped);
}

}  // namespace

// BuildCorpus's metric handles — the registry-backed successor of the
// ad-hoc BuildStats counters. BuildStats stays (it is serialized with the
// corpus and printed by the benches); the build mirrors its rung counts
// into the registry too (MirrorRungCounts), so one --metrics-json snapshot
// carries the rung transitions alongside the evaluator and trainer
// sections.
struct CorpusMetricSet {
  Counter queries_generated, queries_kept, tuples_prefiltered, jobs,
      budget_trips;
  Histogram lineage_facts, circuit_nodes;
  Gauge wall_seconds;

  CorpusMetricSet() = default;
  explicit CorpusMetricSet(MetricsRegistry* r)
      : queries_generated(CounterFor(r, "corpus.queries_generated")),
        queries_kept(CounterFor(r, "corpus.queries_kept")),
        tuples_prefiltered(CounterFor(r, "corpus.tuples_prefiltered")),
        jobs(CounterFor(r, "corpus.ground_truth_jobs")),
        budget_trips(CounterFor(r, "corpus.budget_trips")),
        lineage_facts(HistogramFor(r, "corpus.lineage_facts",
                                   ExponentialBuckets(1.0, 2.0, 10))),
        circuit_nodes(HistogramFor(r, "corpus.circuit_nodes",
                                   ExponentialBuckets(4.0, 4.0, 10))),
        wall_seconds(GaugeFor(r, "corpus.wall_seconds")) {}
};

namespace {

// One finished shard, handed to the build's sink in shard order: the kept
// entries (empty contributions and empty entries already dropped) and the
// shard's own ladder accounting.
struct ShardResult {
  uint32_t shard_index = 0;
  std::vector<CorpusEntry> entries;
  ShardBuildStats stats;
};

// The sharded build driver behind BuildCorpus and BuildCorpusToShards.
//
// Determinism contract (DESIGN.md §10.4): the query log is partitioned into
// K contiguous slices, and the sequential sampling RNG stream — output
// sampling per kept query, then the final split shuffle — is consumed in
// shard order, exactly the order the K=1 build consumes it. The
// stratified and Monte-Carlo fallback rungs are seeded by global job index
// (a running counter across shards, with distinct per-rung mix
// constants). So the merged entries, splits and rung counts are
// identical for every K and thread count; only wall-clock deadline trips
// can differ run to run.
//
// `sink` receives each ShardResult in shard order and owns the entries
// from then on — the driver never holds more than one shard's entries.
template <typename Sink>
BuildStats RunShardedBuild(const Database& db, const SchemaGraph& graph,
                           const CorpusConfig& config, ThreadPool& pool,
                           const CorpusMetricSet& metrics, Sink&& sink,
                           std::vector<size_t>& train_idx,
                           std::vector<size_t>& dev_idx,
                           std::vector<size_t>& test_idx) {
  WallTimer build_timer;
  ScopedSpan build_span(config.metrics, "corpus.build");

  std::vector<Query> log;
  {
    ScopedSpan span(config.metrics, "corpus.generate_log");
    QueryGenerator generator(&db, graph, config.query_gen, config.seed);
    log = generator.GenerateLog(config.num_base_queries, db.name());
    metrics.queries_generated.Inc(log.size());
  }

  Rng rng(config.seed ^ 0xc0ffee);
  // The registry threads through to the evaluator, so a corpus build's
  // snapshot also carries the eval.* section for its query replay.
  const EvalOptions eval_options =
      EvalOptions().WithMetrics(config.metrics);

  const size_t num_shards = std::max<size_t>(1, config.num_shards);
  // Whole-build deadline, shared by every shard's wave. Anchored right
  // before the first wave launches — for K=1 that is the historical anchor
  // point (after log evaluation, before the ladder).
  using Clock = std::chrono::steady_clock;
  const bool has_build_deadline = config.build_deadline_seconds > 0.0;
  bool deadline_anchored = false;
  Clock::time_point build_deadline{};

  BuildStats stats;
  stats.per_shard.reserve(num_shards);
  // Global ladder-job counter: jobs are enumerated in the same order for
  // every K, and this index seeds the sampling fallbacks (stratified and
  // plain MC), so rung results are shard-count-invariant.
  size_t job_counter = 0;
  size_t total_kept = 0;  // kept entries across shards, for the split

  for (size_t s = 0; s < num_shards; ++s) {
    WallTimer shard_timer;
    ShardResult shard;
    shard.shard_index = static_cast<uint32_t>(s);
    shard.stats.shard_index = static_cast<uint32_t>(s);
    ShardBuildStats& sstats = shard.stats;

    // This shard's contiguous slice of the query log.
    const size_t lo = log.size() * s / num_shards;
    const size_t hi = log.size() * (s + 1) / num_shards;

    // Evaluate the slice; keep queries with non-empty (bounded) results.
    struct Pending {
      Query query;
      EvalResult result;
      std::vector<size_t> sampled;  // output indices to compute Shapley for
    };
    std::vector<Pending> pending;
    {
      ScopedSpan span(config.metrics, "corpus.evaluate_log");
      for (size_t qi = lo; qi < hi; ++qi) {
        auto eval = Evaluate(db, log[qi], eval_options);
        if (!eval.ok()) continue;
        EvalResult result = std::move(eval).value();
        if (result.tuples.size() < config.min_outputs_per_query) continue;

        Pending p;
        p.query = log[qi];
        const size_t total = result.tuples.size();
        const size_t want = std::min(total, config.max_outputs_per_query);
        p.sampled = rng.SampleWithoutReplacement(total, want);
        std::sort(p.sampled.begin(), p.sampled.end());
        p.result = std::move(result);
        pending.push_back(std::move(p));
      }
      metrics.queries_kept.Inc(pending.size());
    }

    // Shapley ground truth, parallel over this shard's (query, tuple)
    // pairs, each pair descending the degradation ladder under the
    // configured budgets.
    struct Job {
      size_t entry;
      size_t slot;
      const Dnf* prov;
      size_t global;  // global job index (MC fallback seed)
    };
    shard.entries.resize(pending.size());
    std::vector<Job> jobs;
    for (size_t e = 0; e < pending.size(); ++e) {
      Pending& p = pending[e];
      CorpusEntry& entry = shard.entries[e];
      entry.query = p.query;
      entry.all_outputs = std::move(p.result.tuples);
      size_t slot = 0;
      for (size_t idx : p.sampled) {
        const Dnf& prov = p.result.provenance[idx];
        if (prov.Variables().size() > config.max_lineage ||
            prov.num_clauses() > config.max_clauses) {
          // The syntactic pre-filter is the outermost skip rung: the tuple
          // never reaches the ladder, but it still leaves a skip record.
          ++sstats.skipped;
          ++sstats.budget_trips[kSiteCorpusPrefilter];
          metrics.tuples_prefiltered.Inc();
          continue;
        }
        metrics.lineage_facts.Observe(
            static_cast<double>(prov.Variables().size()));
        entry.contributions.push_back({entry.all_outputs[idx], {}});
        jobs.push_back({e, slot, &prov, job_counter++});
        ++slot;
      }
    }

    if (has_build_deadline && !deadline_anchored) {
      build_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 config.build_deadline_seconds));
      deadline_anchored = true;
    }
    // Each shard's wave gets its own token; the shared deadline anchor
    // still expires every later shard's jobs at their first check.
    CancelToken shard_cancel;

    std::vector<LadderOutcome> outcomes(jobs.size());
    const auto ladder = [&](size_t j) -> Status {
      const Job& job = jobs[j];
      LadderOutcome& outcome = outcomes[j];
      ShapleyValues& dest =
          shard.entries[job.entry].contributions[job.slot].shapley;
      if (has_build_deadline && Clock::now() >= build_deadline) {
        return Status::ResourceExhausted("corpus build deadline exceeded");
      }
      // Runs one rung under a fresh per-tuple budget. Its values land in
      // `dest`, and the outcome records the rung or the trip site. Returns
      // true once the ladder is done: the rung succeeded, or the wave was
      // cancelled (`stop` then holds the kCancelled status).
      Status stop;
      const auto rung = [&](size_t RungCounts::*which, uint64_t max_units,
                            const auto& compute) {
        ExecutionBudget budget({config.tuple_deadline_seconds, max_units},
                               &shard_cancel, config.fault_injector);
        Result<ShapleyValues> values = compute(&budget);
        if (values.ok()) {
          dest = std::move(values).value();
          outcome.rung = which;
          return true;
        }
        outcome.trip_sites.push_back(budget.trip_site());
        if (values.status().code() != StatusCode::kCancelled) return false;
        stop = values.status();
        return true;
      };

      // Rung 1: exact circuit Shapley under the full per-tuple budget.
      if (rung(&RungCounts::exact, config.max_circuit_nodes,
               [&](ExecutionBudget* budget) {
                 Result<ShapleyValues> exact =
                     ComputeShapleyExact(*job.prov, budget);
                 // Charge accounting runs even without a unit cap, so after
                 // a successful exact rung the charged units are (almost
                 // exactly) the compiled circuit's node count.
                 if (exact.ok()) {
                   metrics.circuit_nodes.Observe(
                       static_cast<double>(budget->charged_units()));
                 }
                 return exact;
               })) {
        return stop;
      }
      // Rung 2 (opt-in): relation-stratified MC estimate. Strata come from
      // each lineage fact's source table; the rng is seeded per global job
      // index (with a mix constant distinct from the plain-MC rung's) so
      // the result is deterministic regardless of thread or shard
      // assignment.
      if (config.stratified_fallback_samples > 0) {
        const std::vector<FactId> lineage = job.prov->Variables();
        std::vector<uint32_t> strata(lineage.size());
        for (size_t i = 0; i < lineage.size(); ++i) {
          strata[i] = db.FactTableIndex(lineage[i]);
        }
        if (rung(&RungCounts::stratified, 0, [&](ExecutionBudget* budget) {
              Rng strat_rng(config.seed ^
                            (0xda942042e4dd58b5ULL * (job.global + 1)));
              return ComputeShapleyStratified(
                  *job.prov, strata, config.stratified_fallback_samples,
                  strat_rng, {}, budget);
            })) {
          return stop;
        }
      }
      // Rung 3: plain Monte-Carlo estimate with a fixed sample budget,
      // seeded per global job index like rung 2.
      if (rung(&RungCounts::monte_carlo, 0, [&](ExecutionBudget* budget) {
            Rng mc_rng(config.seed ^
                       (0x9e3779b97f4a7c15ULL * (job.global + 1)));
            return ComputeShapleyMonteCarlo(
                *job.prov, config.mc_fallback_samples, mc_rng, budget);
          })) {
        return stop;
      }
      // Rung 4: CNF-proxy ranking scores (polynomial closed form).
      if (rung(&RungCounts::cnf_proxy, 0, [&](ExecutionBudget* budget) {
            return ComputeCnfProxy(*job.prov, budget);
          })) {
        return stop;
      }
      // Rung 5: skip. The tuple is dropped below with a stats record; the
      // wave itself keeps going.
      outcome.rung = &RungCounts::skipped;
      return Status::Ok();
    };
    metrics.jobs.Inc(jobs.size());
    // The wave status is deliberately dropped: a cancelled build is not an
    // error of the build — the unprocessed jobs are folded into the skip
    // accounting below and the (partial) shard is still valid.
    {
      ScopedSpan span(config.metrics, "corpus.ground_truth");
      (void)ParallelFor(pool, jobs.size(), shard_cancel, ladder);
    }

    // Fold the per-job outcomes into the shard's stats serially
    // (deterministic counts), then drop the contributions that got no
    // ground truth.
    for (const LadderOutcome& outcome : outcomes) {
      if (outcome.rung != nullptr) {
        ++(sstats.*outcome.rung);
      } else {
        // Build cancelled (or deadline hit) before this tuple ran.
        ++sstats.skipped;
        ++sstats.budget_trips[kSiteCorpusBuildDeadline];
      }
      for (const std::string& site : outcome.trip_sites) {
        ++sstats.budget_trips[site];
      }
    }
    for (auto& e : shard.entries) {
      e.contributions.erase(
          std::remove_if(e.contributions.begin(), e.contributions.end(),
                         [](const TupleContribution& c) {
                           return c.shapley.empty();
                         }),
          e.contributions.end());
    }
    // Drop entries that ended with no usable contributions.
    std::vector<CorpusEntry> kept;
    kept.reserve(shard.entries.size());
    for (auto& e : shard.entries) {
      if (!e.contributions.empty()) kept.push_back(std::move(e));
    }
    shard.entries = std::move(kept);

    sstats.entries = shard.entries.size();
    sstats.wall_seconds = shard_timer.ElapsedSeconds();
    total_kept += shard.entries.size();

    // Merge this shard into the totals — in shard order, on the driver
    // thread, never under a mutex in completion order — so the merged
    // counts are deterministic at any thread count.
    stats += sstats;
    for (const auto& [site, n] : sstats.budget_trips) {
      stats.budget_trips[site] += n;
    }
    if (config.metrics != nullptr) {
      // Per-shard rung counters, opt-in like every corpus.* metric.
      const std::string prefix = StrFormat("corpus.shard%03zu.", s);
      CounterFor(config.metrics, prefix + "entries").Inc(sstats.entries);
      MirrorRungCounts(config.metrics, prefix, sstats);
    }
    stats.per_shard.push_back(sstats);
    sink(std::move(shard));
  }

  ScopedSpan finalize_span(config.metrics, "corpus.finalize");
  // Query-level 70/10/20 split over the merged entry order, drawn from the
  // same sequential RNG stream — the step after the last shard's sampling,
  // exactly as in the K=1 build.
  std::vector<size_t> order(total_kept);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const size_t n_train = static_cast<size_t>(
      config.train_frac * static_cast<double>(order.size()));
  const size_t n_dev = static_cast<size_t>(
      config.dev_frac * static_cast<double>(order.size()));
  for (size_t i = 0; i < order.size(); ++i) {
    if (i < n_train) {
      train_idx.push_back(order[i]);
    } else if (i < n_train + n_dev) {
      dev_idx.push_back(order[i]);
    } else {
      test_idx.push_back(order[i]);
    }
  }

  stats.wall_seconds = build_timer.ElapsedSeconds();
  // Mirror the merged BuildStats into the registry (rung counts are
  // deterministic; see the shard-order merge above).
  MirrorRungCounts(config.metrics, "corpus.", stats);
  for (const auto& [site, n] : stats.budget_trips) {
    metrics.budget_trips.Inc(n);
  }
  metrics.wall_seconds.Set(stats.wall_seconds);
  return stats;
}

}  // namespace

Corpus BuildCorpus(const Database& db, const SchemaGraph& graph,
                   const CorpusConfig& config, ThreadPool& pool) {
  const CorpusMetricSet metrics(config.metrics);
  Corpus corpus;
  corpus.db = &db;
  corpus.stats = RunShardedBuild(
      db, graph, config, pool, metrics,
      [&corpus](ShardResult&& shard) {
        for (CorpusEntry& e : shard.entries) {
          corpus.entries.push_back(std::move(e));
        }
      },
      corpus.train_idx, corpus.dev_idx, corpus.test_idx);
  return corpus;
}

Result<BuildStats> BuildCorpusToShards(const Database& db,
                                       const SchemaGraph& graph,
                                       const CorpusConfig& config,
                                       ThreadPool& pool,
                                       const std::string& path) {
  const CorpusMetricSet metrics(config.metrics);
  const uint64_t fingerprint = FactTableFingerprint(db);
  Status write_status = Status::Ok();
  std::vector<uint64_t> shard_entries;
  uint64_t base_entry = 0;
  std::vector<size_t> train_idx, dev_idx, test_idx;
  BuildStats stats = RunShardedBuild(
      db, graph, config, pool, metrics,
      [&](ShardResult&& shard) {
        if (!write_status.ok()) return;  // first write error wins
        ShardWriter writer(ShardFileName(path, shard.shard_index),
                           fingerprint, shard.shard_index, base_entry);
        for (const CorpusEntry& e : shard.entries) {
          write_status = writer.Append(e);
          if (!write_status.ok()) return;
        }
        write_status = writer.Finish(&shard.stats);
        if (!write_status.ok()) return;
        base_entry += shard.entries.size();
        shard_entries.push_back(shard.entries.size());
      },
      train_idx, dev_idx, test_idx);
  if (!write_status.ok()) return write_status;

  CorpusManifest manifest;
  manifest.db_name = db.name();
  manifest.db_facts = db.num_facts();
  manifest.db_fingerprint = fingerprint;
  manifest.shard_entries = std::move(shard_entries);
  manifest.train_idx = std::move(train_idx);
  manifest.dev_idx = std::move(dev_idx);
  manifest.test_idx = std::move(test_idx);
  manifest.stats = stats;
  Status s = WriteManifest(manifest, path);
  if (!s.ok()) return s;
  return stats;
}

SimilarityMatrices ComputeSimilarityMatrices(const Corpus& corpus,
                                             size_t max_tuples_for_rank,
                                             ThreadPool& pool) {
  const size_t n = corpus.entries.size();
  SimilarityMatrices m;
  m.syntax.assign(n, std::vector<double>(n, 0.0));
  m.witness.assign(n, std::vector<double>(n, 0.0));
  m.rank.assign(n, std::vector<double>(n, 0.0));

  // Truncated contribution views for the (expensive) rank similarity.
  std::vector<std::vector<TupleContribution>> capped(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& c = corpus.entries[i].contributions;
    const size_t take = std::min(c.size(), max_tuples_for_rank);
    capped[i].assign(c.begin(), c.begin() + static_cast<ptrdiff_t>(take));
  }

  // Upper-triangle pairs, parallelized.
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(n * (n + 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) pairs.emplace_back(i, j);
  }
  ParallelFor(pool, pairs.size(), [&](size_t p) {
    const auto [i, j] = pairs[p];
    const CorpusEntry& a = corpus.entries[i];
    const CorpusEntry& b = corpus.entries[j];
    const double syn = SyntaxSimilarity(a.query, b.query);
    const double wit = WitnessSimilarity(a.all_outputs, b.all_outputs);
    const double rnk = RankSimilarity(capped[i], capped[j]);
    m.syntax[i][j] = m.syntax[j][i] = syn;
    m.witness[i][j] = m.witness[j][i] = wit;
    m.rank[i][j] = m.rank[j][i] = rnk;
  });
  return m;
}

SplitStats ComputeSplitStats(const Corpus& corpus,
                             const std::vector<size_t>& split) {
  SplitStats stats;
  stats.queries = split.size();
  for (size_t i : split) {
    const CorpusEntry& e = corpus.entries[i];
    stats.results += e.all_outputs.size();
    for (const auto& c : e.contributions) stats.facts += c.shapley.size();
  }
  return stats;
}

std::unordered_set<FactId> TrainSeenFacts(const Corpus& corpus) {
  std::unordered_set<FactId> seen;
  for (size_t i : corpus.train_idx) {
    for (const auto& c : corpus.entries[i].contributions) {
      for (const auto& [f, v] : c.shapley) seen.insert(f);
    }
  }
  return seen;
}

double MeanGroupSimilarity(const std::vector<std::vector<double>>& matrix,
                           const std::vector<size_t>& group_a,
                           const std::vector<size_t>& group_b) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i : group_a) {
    for (size_t j : group_b) {
      if (i == j) continue;
      sum += matrix[i][j];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace lshap
