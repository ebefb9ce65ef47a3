// pipebench: the LearnShapley pipeline benchmark (see README.md).
//
// One run takes one workload — one of the paper's two databases and the
// query logs, model and traffic generated from the run's seed — through the
// whole pipeline, timing each stage from outside through the library's
// public API:
//
//   setup   generate the database, the serving request pool and the
//           resident reference corpora of the five build logs
//   rounds  repeated for a share of the run, each round doing:
//           BuildCorpusToShards (K = 4 shards, 4 threads) + LoadCorpusShards
//           of two logs; ComputeSimilarityMatrices of one sample;
//           TrainLearnShapley (base model, fixed reduced budget);
//           EvaluateScorer, float and int8, on one sample; single-thread
//           ScoreLineage of the test pairs; one chunk of open-loop
//           RankTuple traffic at each of two rates against a 2-worker
//           RankingService
//   ladder  the serving rate ladder (traced run only)
//
// Every stage output is checked (correctness gates); a violated gate makes
// the run exit 1. --trace 1 runs the same stages and then replays each
// layer's public entry points one at a time, pairing every timing with a
// deterministic work count, and reports per-layer metrics instead.
//
// Usage: pipebench --workload imdb|academic --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR]
//
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corpus/corpus.h"
#include "corpus/format.h"
#include "corpus/io.h"
#include "datasets/academic.h"
#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "learnshapley/evaluate.h"
#include "learnshapley/serialization.h"
#include "learnshapley/trainer.h"
#include "metrics/ranking_metrics.h"
#include "ml/adam.h"
#include "ml/encoder.h"
#include "ml/layers.h"
#include "ml/simd.h"
#include "provenance/bool_expr.h"
#include "provenance/compiler.h"
#include "query/generator.h"
#include "relational/tuple.h"
#include "serving/service.h"
#include "shapley/shapley.h"
#include "similarity/similarity.h"

namespace lshap {
namespace {

using Clock = std::chrono::steady_clock;

// Every pool the benchmark creates has this many threads (the machine's 4
// cores); serving uses 1 generator + 1 collector + 2 service workers.
constexpr size_t kThreads = 4;
constexpr size_t kShards = 4;
constexpr size_t kServeWorkers = 2;
// Entries of the model corpus, dev facts the trainer checkpoints on,
// facts scored per infer pass, and test pairs scored one at a time.
constexpr size_t kModelQueries = 120;
constexpr size_t kDevFacts = 300;
constexpr double kNdcgFloor = 0.5;
constexpr size_t kInferFacts = 3000;
constexpr size_t kPairs = 100;
constexpr size_t kPairMinFacts = 10;
constexpr size_t kPairMaxFacts = 12;
// Measured rounds (at least), build logs per round, and the distinct
// inputs the sims and infer stages cycle through.
constexpr size_t kMinRounds = 3;
constexpr size_t kBuildLogsPerRound = 2;
constexpr size_t kSimSamples = 3;
constexpr size_t kInferTuplesPerEntry = 2;
// Query logs the build stage cycles through.
constexpr size_t kBuildLogs = 5;
// The seed whose reference corpus digest is pinned per workload.
constexpr uint64_t kDefaultSeed = 1;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return MixWord(seed * 0x100000001b3ull + stream);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile a sample can resolve with at least ten samples
// beyond it: the value with exactly ten larger samples, and its rank.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t k = n > 10 ? n - 11 : 0;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

// Throughput over a fixed set of work items, each timed on one or more
// repetitions: the median over every repetition of its item's work over its
// time. With few repetitions per item, a pooled median still discards the
// repetitions a burst of host load slowed.
class ItemTimes {
 public:
  explicit ItemTimes(size_t items) : work_(items, 0.0), times_(items) {}
  void Add(size_t item, double work, double seconds) {
    work_[item] = work;
    times_[item].push_back(seconds);
  }
  // One line per item: its work and every repetition's time in ms.
  void Print(const char* name) const {
    for (size_t i = 0; i < work_.size(); ++i) {
      std::printf("  %s item %zu (work %.0f) ms:", name, i, work_[i]);
      for (double t : times_[i]) std::printf(" %.1f", t * 1e3);
      std::printf("\n");
    }
  }
  double Rate() const {
    std::vector<double> rates;
    for (size_t i = 0; i < work_.size(); ++i) {
      for (double t : times_[i]) rates.push_back(work_[i] / t);
    }
    return Median(rates);
  }

 private:
  std::vector<double> work_;
  std::vector<std::vector<double>> times_;
};

// ---------------------------------------------------------------------------
// Results and gates.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    std::printf("  %-44s %16.6f %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

class Gates {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::printf("GATE FAILED: %s\n", what.c_str());
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

// Canonical digest of a corpus: queries, witness sets, per-tuple Shapley
// values (fact-sorted, exact bit patterns) and the split permutations.
uint64_t CorpusDigest(const Corpus& corpus) {
  std::string buf;
  auto put_u64 = [&](uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const CorpusEntry& e : corpus.entries) {
    buf += e.query.id;
    buf += '\n';
    buf += e.query.ToSql();
    buf += '\n';
    for (const OutputTuple& t : e.all_outputs) {
      buf += OutputTupleToString(t);
      buf += '\n';
    }
    for (const TupleContribution& c : e.contributions) {
      buf += OutputTupleToString(c.tuple);
      std::vector<std::pair<FactId, double>> facts(c.shapley.begin(),
                                                   c.shapley.end());
      std::sort(facts.begin(), facts.end());
      for (const auto& [f, v] : facts) {
        put_u64(f);
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        put_u64(bits);
      }
    }
  }
  for (const auto* split :
       {&corpus.train_idx, &corpus.dev_idx, &corpus.test_idx}) {
    put_u64(split->size());
    for (size_t i : *split) put_u64(i);
  }
  return FnvChecksum(buf.data(), buf.size());
}

size_t CountContributions(const Corpus& corpus) {
  size_t n = 0;
  for (const CorpusEntry& e : corpus.entries) n += e.contributions.size();
  return n;
}

size_t CountFacts(const Corpus& corpus, const std::vector<size_t>& split) {
  size_t n = 0;
  for (size_t i : split) {
    for (const auto& c : corpus.entries[i].contributions) {
      n += c.shapley.size();
    }
  }
  return n;
}

std::vector<FactId> SortedLineage(const TupleContribution& c) {
  std::vector<FactId> lineage;
  lineage.reserve(c.shapley.size());
  for (const auto& [f, v] : c.shapley) lineage.push_back(f);
  std::sort(lineage.begin(), lineage.end());
  return lineage;
}

// A seeded sample of `n` entries of `corpus` (all of them when it has
// fewer), in corpus order, each keeping its train/dev/test membership.
Corpus SampleCorpus(const Corpus& corpus, size_t n, uint64_t seed) {
  const size_t total = corpus.entries.size();
  std::vector<size_t> pick(total);
  std::iota(pick.begin(), pick.end(), size_t{0});
  if (total > n) {
    Rng rng(seed);
    pick = rng.SampleWithoutReplacement(total, n);
    std::sort(pick.begin(), pick.end());
  }
  constexpr size_t kAbsent = static_cast<size_t>(-1);
  std::vector<size_t> new_index(total, kAbsent);
  Corpus out;
  out.db = corpus.db;
  out.stats = corpus.stats;
  for (size_t i : pick) {
    new_index[i] = out.entries.size();
    out.entries.push_back(corpus.entries[i]);
  }
  auto remap = [&](const std::vector<size_t>& from, std::vector<size_t>& to) {
    for (size_t i : from) {
      if (new_index[i] != kAbsent) to.push_back(new_index[i]);
    }
  };
  remap(corpus.train_idx, out.train_idx);
  remap(corpus.dev_idx, out.dev_idx);
  remap(corpus.test_idx, out.test_idx);
  return out;
}

// Appends the entries of `from` to `into`, keeping each entry's
// train/dev/test membership.
void AppendCorpus(Corpus& into, Corpus&& from) {
  const size_t base = into.entries.size();
  for (CorpusEntry& e : from.entries) into.entries.push_back(std::move(e));
  for (size_t i : from.train_idx) into.train_idx.push_back(base + i);
  for (size_t i : from.dev_idx) into.dev_idx.push_back(base + i);
  for (size_t i : from.test_idx) into.test_idx.push_back(base + i);
}

// Bytes of a manifest plus its shard files; 0 when any file is missing.
uint64_t ShardBytes(const std::string& path, size_t shards) {
  std::error_code ec;
  uint64_t bytes = std::filesystem::file_size(path, ec);
  if (ec) return 0;
  for (size_t s = 0; s < shards; ++s) {
    bytes += std::filesystem::file_size(ShardFileName(path, s), ec);
    if (ec) return 0;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  GeneratedDb (*make_db)();
  int max_tables;
  // Reference corpus digest at kDefaultSeed.
  uint64_t pinned_digest;
  // Serving traffic: the two fixed open-loop rates (the ladder starts at
  // hi) and the per-request latency limit L, also each request's deadline.
  double lo_rps;
  double hi_rps;
  double limit_s;
};

GeneratedDb MakeImdb() { return MakeImdbDatabase({}); }
GeneratedDb MakeAcademic() { return MakeAcademicDatabase({}); }

const Workload kWorkloads[] = {
    {"imdb", MakeImdb, 4, 0xb056c1af3555c288ull, 60.0, 90.0, 0.1},
    {"academic", MakeAcademic, 5, 0x7f5d0e90f8bc6575ull, 60.0, 90.0, 0.1},
};

CorpusConfig MakeCorpusConfig(const Workload& w, uint64_t seed) {
  CorpusConfig c;
  c.seed = DeriveSeed(seed, 1);
  c.num_base_queries = 200;
  c.max_outputs_per_query = 24;
  // Tighter pre-filter caps than the library defaults (200 / 120): a few
  // pathological lineages would otherwise dominate the ground-truth time
  // and make throughput swing with the seed.
  c.max_lineage = 64;
  c.max_clauses = 48;
  // Multi-table joins give paper-like lineages (as in the bench workbench).
  c.query_gen.min_tables = 2;
  c.query_gen.max_tables = w.max_tables;
  return c;
}

TrainConfig MakeTrainConfig(uint64_t seed) {
  TrainConfig t;
  t.pretrain_epochs = 1;
  t.pretrain_pairs_per_epoch = 256;
  t.finetune_epochs = 2;
  t.finetune_samples_per_epoch = 512;
  t.seed = DeriveSeed(seed, 3);
  return t;
}

size_t TrainExamples(const TrainConfig& t) {
  return t.pretrain_epochs * t.pretrain_pairs_per_epoch +
         t.finetune_epochs * t.finetune_samples_per_epoch;
}

// Time shares of --seconds: the measured rounds (at least kMinRounds),
// each round's serving chunk per rate, and each of the serving ladder's
// kLadderSteps steps.
constexpr int kLadderSteps = 7;
constexpr double kMissLimit = 0.05;

struct Budget {
  double rounds, serve_chunk, ladder_step;
};

Budget MakeBudget(double seconds) {
  return Budget{0.7 * seconds, 0.04 * seconds, 0.025 * seconds};
}

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir = ".bench_build/pipebench_work";
};

// ---------------------------------------------------------------------------
// Serving traffic.

// One (query, tuple) clients ask about. The pool follows bench_serve's
// generator (queries of up to 3 tables, 10% unions), with two changes that
// keep the per-request cost comparable across seeds: queries join at least
// 2 tables, and the pool holds kKeysPerSize keys of every lineage size from
// kMinLineage to kMaxLineage facts, each from a different query. The cost of
// a request is mostly one model forward per lineage fact, so a fixed size
// mix keeps the latency median from jumping with the seed. See README.md
// for the measured mix.
struct RequestKey {
  Query query;
  OutputTuple tuple;
  size_t lineage_size = 0;
};

constexpr size_t kMinLineage = 2;
constexpr size_t kMaxLineage = 8;
constexpr size_t kKeysPerSize = 36;
constexpr size_t kPoolKeys = kKeysPerSize * (kMaxLineage - kMinLineage + 1);
constexpr double kZipfExponent = 0.5;

std::vector<RequestKey> BuildRequestPool(const Database& db,
                                         const SchemaGraph& graph,
                                         uint64_t seed) {
  QueryGenConfig qg;
  qg.min_tables = 2;
  qg.max_tables = 3;
  qg.union_prob = 0.1;
  QueryGenerator gen(&db, graph, qg, seed);
  std::vector<RequestKey> pool;
  std::array<size_t, kMaxLineage + 1> per_size{};
  for (size_t i = 0; pool.size() < kPoolKeys && i < 40 * kPoolKeys; ++i) {
    Query q = gen.Generate("serve_q" + std::to_string(i));
    auto result = Evaluate(db, q, ProvenanceCapture::kLineageOnly);
    if (!result.ok()) continue;
    for (size_t t = 0; t < result->tuples.size(); ++t) {
      const size_t n = result->lineages[t].size();
      if (n < kMinLineage || n > kMaxLineage || per_size[n] == kKeysPerSize) {
        continue;
      }
      ++per_size[n];
      pool.push_back(RequestKey{std::move(q), result->tuples[t], n});
      break;
    }
  }
  // Zipf popularity follows the pool order; shuffled, so that it does not
  // follow the order in which the sizes filled.
  Rng rng(seed);
  rng.Shuffle(pool);
  return pool;
}

struct Arrival {
  double offset_s = 0.0;  // scheduled send time from the phase start
  uint32_t key = 0;
};

// Poisson arrivals (independent users) at `rate`, keys Zipf over the pool.
std::vector<Arrival> MakeSchedule(double rate, double duration, size_t keys,
                                  uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(keys, kZipfExponent);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration) break;
    out.push_back({t, static_cast<uint32_t>(zipf.Sample(rng))});
  }
  return out;
}

struct ServeCounters {
  uint64_t submitted = 0, completed = 0, errors = 0, cancelled = 0;
  uint64_t rejected = 0, queue_full = 0, backlog = 0, deadline = 0;
};

ServeCounters ReadServeCounters(const MetricsRegistry& m) {
  ServeCounters c;
  c.submitted = m.CounterValue("serve.submitted");
  c.completed = m.CounterValue("serve.completed");
  c.errors = m.CounterValue("serve.errors");
  c.cancelled = m.CounterValue("serve.cancelled");
  c.queue_full = m.CounterValue("serve.rejected.queue_full");
  c.backlog = m.CounterValue("serve.rejected.backlog");
  c.deadline = m.CounterValue("serve.rejected.deadline");
  c.rejected = c.queue_full + c.backlog + c.deadline +
               m.CounterValue("serve.rejected.no_snapshot") +
               m.CounterValue("serve.rejected.fault") +
               m.CounterValue("serve.rejected.shutdown");
  return c;
}

struct SampledAnswer {
  uint32_t key = 0;
  RankedTuple result;
};

struct PhaseResult {
  double rate = 0.0;
  size_t sent = 0;
  size_t misses = 0;   // rejected, failed, below the cached rung, or late
  size_t errors = 0;   // non-OK responses
  size_t repeats = 0;  // arrivals whose key was already sent in this phase
  std::array<size_t, 5> rungs{};
  ServeCounters counters;  // service counter deltas over the phase
  std::vector<double> latency_ms, queue_ms, process_ms, submit_us, lag_ms,
      publish_ms;
  std::vector<SampledAnswer> sampled;

  double miss_share() const {
    return Share(static_cast<double>(misses), static_cast<double>(sent));
  }

  // Adds another phase at the same rate to this one.
  void Append(PhaseResult&& o) {
    rate = o.rate;
    sent += o.sent;
    misses += o.misses;
    errors += o.errors;
    repeats += o.repeats;
    for (size_t r = 0; r < rungs.size(); ++r) rungs[r] += o.rungs[r];
    counters.submitted += o.counters.submitted;
    counters.completed += o.counters.completed;
    counters.errors += o.counters.errors;
    counters.cancelled += o.counters.cancelled;
    counters.rejected += o.counters.rejected;
    counters.queue_full += o.counters.queue_full;
    counters.backlog += o.counters.backlog;
    counters.deadline += o.counters.deadline;
    for (auto field : {&PhaseResult::latency_ms, &PhaseResult::queue_ms,
                       &PhaseResult::process_ms, &PhaseResult::submit_us,
                       &PhaseResult::lag_ms, &PhaseResult::publish_ms}) {
      (this->*field).insert((this->*field).end(), (o.*field).begin(),
                            (o.*field).end());
    }
    for (SampledAnswer& a : o.sampled) sampled.push_back(std::move(a));
  }
};

struct ServeEnv {
  std::shared_ptr<const Database> db;
  std::shared_ptr<const LearnShapleyRanker> ranker;
  const std::vector<RequestKey>* pool = nullptr;
  double limit_s = 0.1;
  double publish_every_s = 0.5;
};

// One open-loop phase: this thread sends on the schedule, one collector
// thread gathers responses. Latency runs from each request's scheduled send
// time to its response (lateness + submit + queue + processing), so a stall
// in the generator is charged to the requests it delayed.
PhaseResult RunPhase(RankingService& service, const ServeEnv& env,
                     const MetricsRegistry& registry,
                     const std::vector<Arrival>& schedule, double rate,
                     size_t sample_every) {
  struct InFlight {
    std::future<RankResponse> response;
    uint32_t key = 0;
    double pre_queue_s = 0.0;  // lateness + Submit call
  };
  struct Collected {
    size_t misses = 0, errors = 0, seen = 0;
    std::array<size_t, 5> rungs{};
    std::vector<double> latency_ms, queue_ms, process_ms;
    std::vector<SampledAnswer> sampled;
  };

  PhaseResult res;
  res.rate = rate;
  const ServeCounters before = ReadServeCounters(registry);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;  // guarded by mu
  bool producing = true;          // guarded by mu
  Collected col;                  // written by the collector only
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || !producing; });
        if (inflight.empty()) return;
        f = std::move(inflight.front());
        inflight.pop_front();
      }
      RankResponse r;
      try {
        r = f.response.get();
      } catch (const std::exception& e) {
        r.status = Status::Internal(e.what());
      }
      const double latency = f.pre_queue_s + r.queue_seconds + r.serve_seconds;
      const bool ok = r.status.ok();
      if (!ok) ++col.errors;
      ++col.rungs[static_cast<size_t>(r.rung)];
      if (!ok || r.rung > ServeRung::kCached || latency > env.limit_s) {
        ++col.misses;
      }
      col.latency_ms.push_back(latency * 1e3);
      col.queue_ms.push_back(r.queue_seconds * 1e3);
      col.process_ms.push_back(r.serve_seconds * 1e3);
      if (ok && r.rung == ServeRung::kModel && sample_every > 0 &&
          col.seen++ % sample_every == 0 && col.sampled.size() < 16 &&
          r.results.size() == 1) {
        col.sampled.push_back({f.key, std::move(r.results[0])});
      }
    }
  });
  auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      producing = false;
    }
    cv.notify_one();
    collector.join();
  };

  try {
    std::vector<bool> seen(env.pool->size(), false);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    const auto publish_every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(env.publish_every_s));
    Clock::time_point next_publish = start + publish_every;
    for (const Arrival& a : schedule) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(a.offset_s));
      // The write path: the same snapshot re-published at a fixed cadence.
      if (due >= next_publish) {
        const Clock::time_point t0 = Clock::now();
        (void)service.Publish(env.db, env.ranker);
        res.publish_ms.push_back(Since(t0) * 1e3);
        next_publish += publish_every;
      }
      const RequestKey& key = (*env.pool)[a.key];
      RankRequest req;
      req.query = key.query;
      req.tuple = key.tuple;
      req.deadline_seconds = env.limit_s;
      std::this_thread::sleep_until(due);
      const Clock::time_point t_send = Clock::now();
      auto submitted = service.Submit(std::move(req));
      const double submit_s = Since(t_send);
      const double lag_s =
          std::chrono::duration<double>(t_send - due).count();
      res.lag_ms.push_back(lag_s * 1e3);
      res.submit_us.push_back(submit_s * 1e6);
      ++res.sent;
      if (seen[a.key]) ++res.repeats;
      seen[a.key] = true;
      if (!submitted.ok()) {
        ++res.misses;  // rejected at admission
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        inflight.push_back({std::move(*submitted), a.key, lag_s + submit_s});
      }
      cv.notify_one();
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();

  const ServeCounters after = ReadServeCounters(registry);
  res.counters.submitted = after.submitted - before.submitted;
  res.counters.completed = after.completed - before.completed;
  res.counters.errors = after.errors - before.errors;
  res.counters.cancelled = after.cancelled - before.cancelled;
  res.counters.rejected = after.rejected - before.rejected;
  res.counters.queue_full = after.queue_full - before.queue_full;
  res.counters.backlog = after.backlog - before.backlog;
  res.counters.deadline = after.deadline - before.deadline;
  res.misses += col.misses;
  res.errors = col.errors;
  res.rungs = col.rungs;
  res.latency_ms = std::move(col.latency_ms);
  res.queue_ms = std::move(col.queue_ms);
  res.process_ms = std::move(col.process_ms);
  res.sampled = std::move(col.sampled);
  return res;
}

// ---------------------------------------------------------------------------
// Per-layer replays (--trace 1). Each returns timings plus the work counts
// that serve as their denominators; the counts must repeat exactly.

struct BuildLayers {
  uint64_t queries = 0, rows = 0, tuples = 0, nodes = 0, cache_hits = 0;
  uint64_t components = 0, repeat_in_query = 0, repeat_in_log = 0;
  uint64_t value_mismatches = 0;
  double genlog_ms = 0, eval_ms = 0, eval_plain_ms = 0, compile_ms = 0,
         exact_ms = 0;

  bool SameCounts(const BuildLayers& o) const {
    return queries == o.queries && rows == o.rows && tuples == o.tuples &&
           nodes == o.nodes && cache_hits == o.cache_hits &&
           components == o.components &&
           repeat_in_query == o.repeat_in_query &&
           repeat_in_log == o.repeat_in_log;
  }
};

BuildLayers ReplayBuildLayers(const Database& db, const SchemaGraph& graph,
                              const CorpusConfig& cfg, const Corpus& corpus) {
  BuildLayers out;
  {
    QueryGenerator gen(&db, graph, cfg.query_gen, cfg.seed);
    const Clock::time_point t0 = Clock::now();
    const std::vector<Query> log =
        gen.GenerateLog(cfg.num_base_queries, db.name());
    out.genlog_ms = Since(t0) * 1e3;
    out.queries = log.size();
  }
  MetricsRegistry reg;
  std::unordered_set<std::string> log_keys;
  for (const CorpusEntry& e : corpus.entries) {
    Clock::time_point t0 = Clock::now();
    auto plain = Evaluate(db, e.query, EvalOptions());
    out.eval_plain_ms += Since(t0) * 1e3;
    t0 = Clock::now();
    auto r = Evaluate(db, e.query, EvalOptions().WithMetrics(&reg));
    out.eval_ms += Since(t0) * 1e3;
    if (!r.ok() || !plain.ok()) {
      ++out.value_mismatches;
      continue;
    }
    std::unordered_set<std::string> query_keys;
    for (const TupleContribution& c : e.contributions) {
      auto it = r->index.find(c.tuple);
      if (it == r->index.end()) {
        ++out.value_mismatches;
        continue;
      }
      const Dnf& prov = r->ProvenanceOf(it->second);
      ++out.tuples;
      // Top-level components, keyed canonically: how often the same
      // component recurs within one query and across the whole log.
      for (const std::vector<size_t>& comp : ClauseComponents(prov)) {
        std::vector<Clause> clauses;
        clauses.reserve(comp.size());
        for (size_t ci : comp) clauses.push_back(prov.clauses()[ci]);
        const std::string key = Dnf(std::move(clauses)).CacheKey();
        ++out.components;
        if (!query_keys.insert(key).second) ++out.repeat_in_query;
        if (!log_keys.insert(key).second) ++out.repeat_in_log;
      }
      DnfCompiler compiler;
      t0 = Clock::now();
      const std::unique_ptr<Circuit> circuit = compiler.CompileUnlimited(prov);
      out.compile_ms += Since(t0) * 1e3;
      out.nodes += compiler.last_num_nodes();
      out.cache_hits += compiler.last_cache_hits();
      t0 = Clock::now();
      const ShapleyValues exact = ComputeShapleyExactUnlimited(prov);
      out.exact_ms += Since(t0) * 1e3;
      // The corpus ground truth must be exactly what the exact engine says.
      if (exact != c.shapley) ++out.value_mismatches;
    }
  }
  out.rows = reg.CounterValue("eval.rows_scanned") +
             reg.CounterValue("eval.join.rows_probed");
  return out;
}

struct SimLayers {
  uint64_t pairs = 0;
  double syntax_ms = 0, witness_ms = 0, rank_ms = 0;
};

SimLayers ReplaySimilarity(const Corpus& corpus, size_t max_tuples_for_rank) {
  SimLayers out;
  const size_t n = corpus.entries.size();
  std::vector<std::vector<TupleContribution>> capped(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& c = corpus.entries[i].contributions;
    const size_t take = std::min(c.size(), max_tuples_for_rank);
    capped[i].assign(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(take));
  }
  out.pairs = n * (n + 1) / 2;
  double sink = 0.0;
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      sink += SyntaxSimilarity(corpus.entries[i].query,
                               corpus.entries[j].query);
    }
  }
  out.syntax_ms = Since(t0) * 1e3;
  t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      sink += WitnessSimilarity(corpus.entries[i].all_outputs,
                                corpus.entries[j].all_outputs);
    }
  }
  out.witness_ms = Since(t0) * 1e3;
  t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) sink += RankSimilarity(capped[i], capped[j]);
  }
  out.rank_ms = Since(t0) * 1e3;
  if (sink < 0) std::printf("(negative similarity sum)\n");
  return out;
}

struct TestPair {
  size_t entry = 0;
  size_t contrib = 0;
  std::vector<FactId> lineage;
};

struct MlLayers {
  uint64_t facts = 0, madds = 0, replay_mismatches = 0;
  double tokenize_ms = 0, encode_ms = 0, forward_ms = 0, int8_ms = 0;
  double embed_ms = 0, attn_ms = 0, ffn_ms = 0;
  double train_forward_ms = 0, train_step_ms = 0, adam_ms = 0;
};

// Replays TransformerEncoder::ForwardInference stage by stage through the
// encoder's const layer accessors, adding each stage's time to `out`:
// the embedding lookup; per block the attention half (LayerNorm 1,
// self-attention, residual) and the FFN half (LayerNorm 2, projections,
// GELU, residual); the final LayerNorm counts as FFN. Returns whether the
// replay's output equals the library's forward bit for bit.
bool ReplayEncoderStages(const TransformerEncoder& enc, const EncodedPair& in,
                         InferenceArena& arena, MlLayers& out) {
  const size_t n = in.ids.size();
  const size_t dim = enc.config().dim;
  arena.Reset();
  Clock::time_point t0 = Clock::now();
  Tensor& h0 = arena.Get(n, dim);
  const Tensor& tok = enc.tok_emb().table();
  const Tensor& pos = enc.pos_emb().table();
  for (size_t i = 0; i < n; ++i) {
    const float* src = tok.row_data(static_cast<size_t>(in.ids[i]));
    const float* prow = pos.row_data(i);
    float* dst = h0.row_data(i);
    for (size_t c = 0; c < dim; ++c) dst[c] = src[c] + prow[c];
  }
  out.embed_ms += Since(t0) * 1e3;
  const Tensor* cur = &h0;
  for (const TransformerLayer& layer : enc.layers()) {
    t0 = Clock::now();
    Tensor& ln1 = arena.Get(n, dim);
    layer.ln1().ForwardInference(*cur, ln1);
    Tensor& attn = arena.Get(n, dim);
    layer.attn().ForwardInference(ln1, in.mask, arena, attn);
    Tensor& h = arena.Get(n, dim);
    h = *cur;
    h.Add(attn);
    out.attn_ms += Since(t0) * 1e3;
    t0 = Clock::now();
    Tensor& ln2 = arena.Get(n, dim);
    layer.ln2().ForwardInference(h, ln2);
    Tensor& ffn1 = arena.Get(1, 1);
    layer.ffn1().ForwardInference(ln2, ffn1);
    Tensor& gelu = arena.Get(1, 1);
    Gelu::ForwardInference(ffn1, gelu);
    Tensor& ffn2 = arena.Get(1, 1);
    layer.ffn2().ForwardInference(gelu, ffn2);
    Tensor& next = arena.Get(n, dim);
    next = h;
    next.Add(ffn2);
    out.ffn_ms += Since(t0) * 1e3;
    cur = &next;
  }
  t0 = Clock::now();
  Tensor& replayed = arena.Get(n, dim);
  enc.final_ln().ForwardInference(*cur, replayed);
  out.ffn_ms += Since(t0) * 1e3;

  InferenceArena ref_arena;
  Tensor reference;
  enc.ForwardInference(in.ids, in.mask, ref_arena, reference);
  return reference.rows() == replayed.rows() &&
         reference.cols() == replayed.cols() &&
         std::memcmp(reference.data(), replayed.data(),
                     sizeof(float) * reference.rows() * reference.cols()) == 0;
}

// Multiply-adds of one encoder forward over a sequence of `len` tokens:
// per layer the q/k/v/out projections, the two attention products and the
// two FFN projections, plus the regression head.
uint64_t ForwardMadds(const EncoderConfig& c, uint64_t len) {
  const uint64_t d = c.dim, f = c.ffn_dim;
  const uint64_t per_layer =
      4 * len * d * d + 2 * len * len * d + 2 * len * d * f;
  return c.num_layers * per_layer + d;
}

// Replays LearnShapleyRanker::ScoreLineage stage by stage (tokenize,
// vocab-encode, float forward, int8 forward), then one fixed batch of
// training steps on a copy of the model.
MlLayers ReplayMl(const Corpus& corpus, const std::vector<TestPair>& pairs,
                  const LearnShapleyRanker& ranker,
                  const LearnShapleyRanker& ranker_q) {
  MlLayers out;
  const Database& db = *corpus.db;
  InferenceArena arena, stage_arena;
  QuantScratch scratch;
  std::vector<EncodedPair> batch;
  std::vector<float> targets;
  double sink = 0.0;
  for (const TestPair& p : pairs) {
    const CorpusEntry& e = corpus.entries[p.entry];
    const TupleContribution& c = e.contributions[p.contrib];
    Clock::time_point t0 = Clock::now();
    const std::vector<std::string> q_tokens = QueryTokens(e.query);
    const std::vector<std::string> t_tokens = TupleTokens(c.tuple);
    std::vector<std::vector<std::string>> fact_tokens;
    fact_tokens.reserve(p.lineage.size());
    for (FactId f : p.lineage) {
      fact_tokens.push_back(FactTokensWithContext(db, f, t_tokens));
    }
    out.tokenize_ms += Since(t0) * 1e3;

    t0 = Clock::now();
    const std::vector<int> q_ids = EncodeTokens(ranker.vocab(), q_tokens);
    const std::vector<int> t_ids = EncodeTokens(ranker.vocab(), t_tokens);
    std::vector<EncodedPair> inputs;
    inputs.reserve(p.lineage.size());
    for (const auto& ft : fact_tokens) {
      const std::vector<int> f_ids = EncodeTokens(ranker.vocab(), ft);
      inputs.push_back(
          AssembleEncodedSegments({&q_ids, &t_ids, &f_ids}, ranker.max_len()));
    }
    out.encode_ms += Since(t0) * 1e3;

    t0 = Clock::now();
    for (const EncodedPair& in : inputs) {
      sink += ranker.model().PredictShapley(in, arena);
    }
    out.forward_ms += Since(t0) * 1e3;
    t0 = Clock::now();
    for (const EncodedPair& in : inputs) {
      sink += ranker_q.quantized_model()->PredictShapley(in, scratch);
    }
    out.int8_ms += Since(t0) * 1e3;
    for (const EncodedPair& in : inputs) {
      if (!ReplayEncoderStages(ranker.model().encoder(), in, stage_arena,
                               out)) {
        ++out.replay_mismatches;
      }
    }

    out.facts += inputs.size();
    for (size_t i = 0; i < inputs.size(); ++i) {
      out.madds +=
          ForwardMadds(ranker.model().encoder_config(), inputs[i].ids.size());
      if (batch.size() < 64) {
        batch.push_back(inputs[i]);
        targets.push_back(static_cast<float>(c.shapley.at(p.lineage[i])));
      }
    }
  }

  LearnShapleyModel model = ranker.model();
  Clock::time_point t0 = Clock::now();
  for (const EncodedPair& in : batch) sink += model.PredictShapley(in);
  out.train_forward_ms = Since(t0) * 1e3;
  t0 = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    sink += model.FinetuneStep(batch[i], targets[i]);
  }
  out.train_step_ms = Since(t0) * 1e3;
  Adam adam(model.Params(), AdamConfig{});
  t0 = Clock::now();
  adam.Step();
  out.adam_ms = Since(t0) * 1e3;
  if (!std::isfinite(sink)) std::printf("(non-finite replay output)\n");
  return out;
}

// ---------------------------------------------------------------------------

void PrintEnvironment() {
  std::printf("env: {\"nproc\": %ld, \"threads\": %zu, \"simd\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
              sysconf(_SC_NPROCESSORS_ONLN), kThreads,
              SimdLevelName(ActiveSimdLevel()), PIPEBENCH_BUILD_TYPE,
              __VERSION__);
}

// Refuses trees whose timings would not describe the optimized library.
bool TreeIsMeasurable() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "pipebench: refusing a sanitizer build\n");
  return false;
#endif
#ifndef NDEBUG
  std::fprintf(stderr, "pipebench: refusing a build without NDEBUG\n");
  return false;
#endif
  if (std::strcmp(PIPEBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "pipebench: refusing build type %s\n",
                 PIPEBENCH_BUILD_TYPE);
    return false;
  }
  return true;
}

int Run(const Workload& w, const Options& opt) {
  const Clock::time_point run_start = Clock::now();
  Gates gates;
  Report e2e, layers;
  const Budget budget = MakeBudget(opt.seconds);
  ThreadPool pool(kThreads);
  const std::string dir = opt.work_dir + "/" + w.name;
  std::filesystem::create_directories(dir);
  const std::string shard_path = dir + "/corpus";
  const std::string resave_path = dir + "/resaved";
  // Query log `log` of the build stage; log 0 is the reference log, the
  // one the model stages use.
  auto log_cfg = [&](size_t log) {
    CorpusConfig c = MakeCorpusConfig(w, opt.seed);
    if (log > 0) c.seed = DeriveSeed(opt.seed, 1000 + log);
    return c;
  };
  const CorpusConfig ref_cfg = log_cfg(0);
  uint64_t attempted = 0, failed = 0;

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  PrintEnvironment();

  // --- setup, three times: the database, the serving request pool, and
  // for every build log the resident reference corpus the sharded build
  // must reproduce. ---
  GeneratedDb data;
  std::vector<RequestKey> request_pool;
  std::vector<Corpus> refs;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    GeneratedDb d = w.make_db();
    d.db->FreezeStringOrder();
    std::vector<RequestKey> keys =
        BuildRequestPool(*d.db, d.graph, DeriveSeed(opt.seed, 5));
    std::vector<Corpus> built;
    for (size_t log = 0; log < kBuildLogs; ++log) {
      built.push_back(BuildCorpus(*d.db, d.graph, log_cfg(log), pool));
    }
    setup_s.push_back(Since(t0));
    data = std::move(d);
    request_pool = std::move(keys);
    refs = std::move(built);
  }
  const Corpus& reference = refs[0];
  std::vector<uint64_t> ref_digests;
  for (const Corpus& r : refs) ref_digests.push_back(CorpusDigest(r));
  const uint64_t ref_digest = ref_digests[0];
  const Database& db = *data.db;
  std::printf("[%.1f s] setup done\n", Since(run_start));
  std::printf("reference corpus: %zu entries, %zu contributions, digest "
              "0x%016llx\n",
              reference.entries.size(), CountContributions(reference),
              static_cast<unsigned long long>(ref_digest));
  if (opt.seed == kDefaultSeed && w.pinned_digest != 0) {
    gates.Check(ref_digest == w.pinned_digest,
                "reference corpus digest differs from the pinned value");
  }
  for (const Corpus& r : refs) {
    const BuildStats& rs = r.stats;
    gates.Check(CountContributions(r) ==
                    rs.exact + rs.stratified + rs.monte_carlo + rs.cnf_proxy,
                "reference corpus: contributions != resolved ladder tuples");
  }

  // The model stages (sims, train, infer, pairs) run on seeded samples of
  // kModelQueries entries, small enough to repeat several times in a run.
  // A sample takes an equal share from each build log's corpus, so its
  // composition varies less from seed to seed.
  auto mixed_sample = [&](uint64_t stream) {
    Corpus out;
    out.db = &db;
    for (size_t log = 0; log < kBuildLogs; ++log) {
      AppendCorpus(out, SampleCorpus(refs[log], kModelQueries / kBuildLogs,
                                     DeriveSeed(opt.seed, 16 * stream + log)));
    }
    return out;
  };
  const Corpus model = mixed_sample(2);
  std::vector<Corpus> sim_samples;
  for (size_t i = 1; i < kSimSamples; ++i) {
    sim_samples.push_back(mixed_sample(200 + i));
  }
  // The trainer scores the dev split after every fine-tune epoch;
  // checkpointing on the first dev queries that hold kDevFacts facts keeps
  // that a small share of the training time, alike from seed to seed.
  Corpus train_corpus = model;
  {
    size_t keep = 0, facts = 0;
    while (keep < train_corpus.dev_idx.size() && facts < kDevFacts) {
      facts += CountFacts(model, {train_corpus.dev_idx[keep++]});
    }
    train_corpus.dev_idx.resize(keep);
  }
  const TrainConfig tcfg = MakeTrainConfig(opt.seed);
  // Single-thread per-pair scoring (the Table 6 protocol) over a seeded
  // sample of (query, tuple) pairs from every build log. Per-pair time
  // grows with the lineage, whose size distribution differs from seed to
  // seed, so the sample holds pairs of kPairMinFacts to kPairMaxFacts facts
  // only, drawn from a corpus large enough to fill it.
  Corpus pair_corpus;
  pair_corpus.db = &db;
  for (size_t log = 0; log < kBuildLogs; ++log) {
    AppendCorpus(pair_corpus, Corpus(refs[log]));
  }
  // EvaluateScorer input: seeded entries of every build log, each cut to
  // its first kInferTuplesPerEntry output tuples, about kInferFacts facts in
  // all. The cost of a fact follows its query's token length, so a sample
  // of many queries moves less with the seed than one of a few long ones.
  Corpus infer_corpus;
  infer_corpus.db = &db;
  size_t infer_facts = 0;
  {
    std::vector<size_t> order(pair_corpus.entries.size());
    std::iota(order.begin(), order.end(), size_t{0});
    Rng rng(DeriveSeed(opt.seed, 300));
    rng.Shuffle(order);
    for (size_t i = 0; i < order.size() && infer_facts < kInferFacts; ++i) {
      CorpusEntry e = pair_corpus.entries[order[i]];
      if (e.contributions.size() > kInferTuplesPerEntry) {
        e.contributions.resize(kInferTuplesPerEntry);
      }
      infer_corpus.test_idx.push_back(infer_corpus.entries.size());
      infer_corpus.entries.push_back(std::move(e));
      infer_facts += CountFacts(infer_corpus, {infer_corpus.test_idx.back()});
    }
  }
  std::printf("infer sample: %zu entries, %zu facts\n",
              infer_corpus.entries.size(), infer_facts);
  std::vector<TestPair> pairs;
  for (size_t e = 0; e < pair_corpus.entries.size(); ++e) {
    const auto& contributions = pair_corpus.entries[e].contributions;
    for (size_t c = 0; c < contributions.size(); ++c) {
      const size_t n = contributions[c].shapley.size();
      if (n < kPairMinFacts || n > kPairMaxFacts) continue;
      pairs.push_back({e, c, SortedLineage(contributions[c])});
    }
  }
  if (pairs.size() > kPairs) {
    Rng rng(DeriveSeed(opt.seed, 4));
    std::vector<size_t> pick =
        rng.SampleWithoutReplacement(pairs.size(), kPairs);
    std::sort(pick.begin(), pick.end());
    std::vector<TestPair> sample;
    for (size_t i : pick) sample.push_back(std::move(pairs[i]));
    pairs = std::move(sample);
  }
  gates.Check(!pairs.empty(), "no test pairs to score");

  // --- measured rounds. The host is shared and its speed drifts by up to
  // 1.5x over tens of seconds (see README.md), so the compute stages run
  // in rounds, one repetition of each per round, and each stage's
  // repetitions spread over the whole measured time. A round builds
  // kBuildLogsPerRound logs (cycling through all kBuildLogs) and loads
  // them back, computes one sample's similarity matrices (cycling), trains
  // the model, scores the inference sample in float and int8,
  // and makes one single-thread pass over the test pairs. Round 0 also
  // keeps what later stages need: log 0's loaded corpus, the model
  // corpus' matrices and the trained ranker. ---
  // A 2-worker ranking service over the snapshot, fed open-loop traffic
  // (see RunPhase). It is published once the first round has trained the
  // ranker.
  ServeEnv env;
  // Non-owning: `data` outlives the service, which is shut down below.
  env.db = std::shared_ptr<const Database>(data.db.get(),
                                           [](const Database*) {});
  env.pool = &request_pool;
  env.limit_s = w.limit_s;
  gates.Check(request_pool.size() >= kPoolKeys / 2, "request pool too small");
  MetricsRegistry serve_registry;
  RankingService service(ServiceConfig{}
                             .WithWorkers(kServeWorkers)
                             .WithMetrics(&serve_registry));
  PhaseResult lo, hi;

  Corpus corpus;
  SimilarityMatrices sims;
  std::shared_ptr<LearnShapleyRanker> ranker, ranker_q;
  ItemTimes build_times(kBuildLogs), sim_times(kSimSamples), train_times(1);
  ItemTimes float_times(1), int8_times(1);
  std::vector<double> build_ms, build_util, sim_util, train_util, infer_util;
  std::vector<std::vector<double>> pair_pass_ms(pairs.size());
  std::vector<double> agreement, dev_ndcg;
  const Clock::time_point rounds_start = Clock::now();
  for (size_t round = 0;
       round < kMinRounds || Since(rounds_start) < budget.rounds; ++round) {
    for (size_t b = 0; b < kBuildLogsPerRound; ++b) {
      const size_t log = (round * kBuildLogsPerRound + b) % kBuildLogs;
      CorpusConfig cfg = log_cfg(log);
      cfg.num_shards = kShards;
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      auto stats = BuildCorpusToShards(db, data.graph, cfg, pool, shard_path);
      const double t_build = Since(t0);
      const double cpu_build = ProcessCpuSeconds() - cpu0;
      auto loaded = LoadCorpusShards(&db, shard_path);
      const double t_total = Since(t0);
      if (!stats.ok() || !loaded.ok()) {
        ++failed;
        const Status& st = stats.ok() ? loaded.status() : stats.status();
        gates.Check(false, "sharded build or load failed: " + st.ToString());
        continue;
      }
      const size_t resolved = stats->exact + stats->stratified +
                              stats->monte_carlo + stats->cnf_proxy;
      attempted += stats->attempted();
      size_t shard_attempted = 0;
      for (const ShardBuildStats& s : stats->per_shard) {
        shard_attempted += s.attempted();
      }
      gates.Check(shard_attempted == stats->attempted() &&
                      CountContributions(*loaded) == resolved,
                  "sharded build: a tuple is not accounted for by a rung");
      const BuildStats& rs = refs[log].stats;
      gates.Check(stats->attempted() == rs.attempted() &&
                      stats->exact == rs.exact && stats->skipped == rs.skipped,
                  "sharded build: rung counts differ from the reference");
      gates.Check(CorpusDigest(*loaded) == ref_digests[log],
                  "loaded shards differ from the resident reference corpus");
      build_times.Add(log, static_cast<double>(resolved), t_total);
      build_ms.push_back(t_build * 1e3);
      build_util.push_back(cpu_build /
                           (t_build * static_cast<double>(kThreads)));
      if (round == 0 && log == 0) corpus = std::move(*loaded);
    }

    {
      const size_t item = round % kSimSamples;
      const Corpus& c = item == 0 ? model : sim_samples[item - 1];
      const size_t n = c.entries.size();
      const double sim_pairs = static_cast<double>(n * (n + 1) / 2);
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      SimilarityMatrices m = ComputeSimilarityMatrices(c, 12, pool);
      const double t = Since(t0);
      sim_times.Add(item, sim_pairs, t);
      sim_util.push_back((ProcessCpuSeconds() - cpu0) /
                         (t * static_cast<double>(kThreads)));
      attempted += static_cast<uint64_t>(sim_pairs);
      if (round == 0) {
        sims = std::move(m);
      } else if (item == 0) {
        gates.Check(m.syntax == sims.syntax && m.witness == sims.witness &&
                        m.rank == sims.rank,
                    "similarity matrices differ between two computations");
      }
    }

    {
      // Trained from scratch every round. The trainer's data-parallel
      // steps let worker threads claim samples as they go and then sum the
      // workers' gradients, so the last bits of a step may depend on
      // timing. Each round's best dev NDCG@10 is printed; the quality gate
      // is the test NDCG@10 below, over a larger sample than the few
      // hundred dev facts.
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      TrainResult r = TrainLearnShapley(train_corpus, sims, tcfg, pool);
      const double t = Since(t0);
      train_times.Add(0, static_cast<double>(TrainExamples(tcfg)), t);
      train_util.push_back((ProcessCpuSeconds() - cpu0) /
                           (t * static_cast<double>(kThreads)));
      dev_ndcg.push_back(r.best_dev_ndcg10);
      if (round == 0) {
        ranker = std::shared_ptr<LearnShapleyRanker>(std::move(r.ranker));
        ranker_q = std::shared_ptr<LearnShapleyRanker>(
            static_cast<LearnShapleyRanker*>(ranker->Clone().release()));
        ranker_q->Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
      }
    }

    {
      const double facts = static_cast<double>(infer_facts);
      for (LearnShapleyRanker* r : {ranker.get(), ranker_q.get()}) {
        const double cpu0 = ProcessCpuSeconds();
        const Clock::time_point t0 = Clock::now();
        const EvalSummary s = EvaluateScorer(
            infer_corpus, infer_corpus.test_idx, *r, {}, pool);
        const double t = Since(t0);
        (r == ranker.get() ? float_times : int8_times).Add(0, facts, t);
        infer_util.push_back((ProcessCpuSeconds() - cpu0) /
                             (t * static_cast<double>(kThreads)));
        gates.Check(!s.points.empty(), "EvaluateScorer returned no points");
      }
    }

    // One pass over the pairs; the first also checks int8 agreement with
    // float as in quant_test.
    for (size_t i = 0; i < pairs.size(); ++i) {
      const TestPair& p = pairs[i];
      const CorpusEntry& e = pair_corpus.entries[p.entry];
      const OutputTuple& t = e.contributions[p.contrib].tuple;
      const Clock::time_point t0 = Clock::now();
      const ShapleyValues f = ranker->ScoreLineage(db, e.query, t, p.lineage);
      pair_pass_ms[i].push_back(Since(t0) * 1e3);
      if (round > 0) continue;
      const ShapleyValues q =
          ranker_q->ScoreLineage(db, e.query, t, p.lineage);
      const std::vector<FactId> rank_f = RankByScore(f);
      ShapleyValues float_rank_rel;
      for (size_t r = 0; r < rank_f.size(); ++r) {
        float_rank_rel[rank_f[r]] = static_cast<double>(rank_f.size() - r);
      }
      agreement.push_back(NdcgAtK(RankByScore(q), float_rank_rel, 10));
    }

    // One chunk of serving traffic at each of lo and hi. Round 0 first
    // publishes the trained ranker and warms the service up (unmeasured).
    if (round == 0) {
      env.ranker = ranker;
      gates.Check(service.Publish(env.db, env.ranker).ok(),
                  "initial publish failed");
      (void)RunPhase(service, env, serve_registry,
                     MakeSchedule(w.lo_rps, 0.5, request_pool.size(),
                                  DeriveSeed(opt.seed, 6)),
                     w.lo_rps, 0);
    }
    for (const bool is_hi : {false, true}) {
      const double rate = is_hi ? w.hi_rps : w.lo_rps;
      (is_hi ? hi : lo)
          .Append(RunPhase(service, env, serve_registry,
                           MakeSchedule(rate, budget.serve_chunk,
                                        request_pool.size(),
                                        DeriveSeed(opt.seed,
                                                   7 + 2 * round + is_hi)),
                           rate, 13));
    }
    std::printf("[%.1f s] round %zu done\n", Since(run_start), round);
  }
  corpus.db = &db;
  // Test NDCG@10 over a seeded sample of every build log's test entries,
  // about kInferFacts facts: several times the model corpus' test split, so
  // the quality guard moves less with the seed.
  std::vector<size_t> test_sample;
  size_t test_facts = 0;
  {
    std::vector<size_t> order = pair_corpus.test_idx;
    Rng rng(DeriveSeed(opt.seed, 8));
    rng.Shuffle(order);
    for (size_t i = 0; i < order.size() && test_facts < kInferFacts; ++i) {
      test_sample.push_back(order[i]);
      test_facts += CountFacts(pair_corpus, {order[i]});
    }
  }
  const double ndcg10 =
      EvaluateScorer(pair_corpus, test_sample, *ranker, {}, pool).ndcg10;
  std::printf("  test NDCG@10 over %zu entries, %zu facts (model corpus test "
              "split: %zu entries)\n",
              test_sample.size(), test_facts, model.test_idx.size());
  gates.Check(ndcg10 >= kNdcgFloor, "test NDCG@10 below the floor");
  const double int8_agreement = Mean(agreement);
  gates.Check(int8_agreement >= 0.97,
              "int8 ranking agreement with float below 0.97");
  std::vector<double> pair_ms;
  for (const std::vector<double>& passes : pair_pass_ms) {
    pair_ms.push_back(Median(passes));
  }
  const Tail pair_tail = TailOf(pair_ms);

  std::printf("[%.1f s] rounds done\n", Since(run_start));
  // --- serve: the rate ladder, after the measured rounds, in the traced
  // run only (serve.max_rps is a per-layer metric). ---
  std::vector<PhaseResult> ladder;
  double max_rps = 0.0;
  {
    const size_t keys = request_pool.size();
    const int ladder_steps = opt.trace ? kLadderSteps : 0;
    // Rate ladder for max_rps: a step passes when at most kMissLimit of
    // its requests miss L. A step sends a few hundred requests, so the
    // highest percentile it resolves with ten samples beyond is about p95;
    // the limit is set on that percentile. The lo phase is the first
    // passing rate. The ladder tries hi, then grows the rate by kGrow per
    // step until a step fails; the remaining steps bisect the bracket in
    // log-rate, so max_rps resolves to a few percent rather than to the
    // growth step. A step that fails is tried once more, and fails only
    // if both tries do. max_rps is the highest passing rate.
    constexpr double kGrow = 1.5;
    auto step_passes = [&](double rate, int step) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        ladder.push_back(RunPhase(
            service, env, serve_registry,
            MakeSchedule(rate, budget.ladder_step, keys,
                         DeriveSeed(opt.seed, 100 + 2 * step + attempt)),
            rate, 0));
        if (ladder.back().miss_share() <= kMissLimit) return true;
      }
      return false;
    };
    double pass_rate = lo.miss_share() <= kMissLimit ? w.lo_rps : 0.0;
    double fail_rate = 0.0;
    for (int step = 0; step < ladder_steps && pass_rate > 0.0; ++step) {
      const double rate = fail_rate > 0.0 ? std::sqrt(pass_rate * fail_rate)
                          : step == 0     ? w.hi_rps
                                          : pass_rate * kGrow;
      if (step_passes(rate, step)) {
        pass_rate = rate;
      } else {
        fail_rate = rate;
      }
    }
    // Where the miss limit falls depends on the host's speed, so an
    // unbracketed ladder is reported, not failed: a slow host can make lo
    // miss already.
    max_rps = pass_rate;
    if (opt.trace && (pass_rate == 0.0 || fail_rate == 0.0)) {
      std::printf("note: the rate ladder did not bracket the miss limit\n");
    }
    service.Shutdown();
    const ServeCounters total = ReadServeCounters(serve_registry);
    gates.Check(
        total.submitted == total.completed + total.rejected + total.cancelled,
        "serving accounting: submitted != completed + rejected + cancelled");
    gates.Check(total.errors == 0, "serving returned errors");
    failed += total.errors;
  }
  std::printf("[%.1f s] serve done\n", Since(run_start));
  for (const PhaseResult* ph : {&lo, &hi}) {
    attempted += ph->sent;
    gates.Check(ph->errors == 0, "non-OK responses in a fixed-rate phase");
    for (const SampledAnswer& s : ph->sampled) {
      const RequestKey& key = request_pool[s.key];
      auto ev = Evaluate(db, key.query, ProvenanceCapture::kLineageOnly);
      bool same = ev.ok();
      if (same) {
        auto it = ev->index.find(key.tuple);
        same = it != ev->index.end();
        if (same) {
          const ShapleyValues offline = ranker->ScoreLineage(
              db, key.query, key.tuple, ev->lineages[it->second]);
          same = offline.size() == s.result.ranking.size();
          for (size_t j = 0; same && j < s.result.ranking.size(); ++j) {
            auto f = offline.find(s.result.ranking[j]);
            same = f != offline.end() && f->second == s.result.scores[j];
          }
        }
      }
      gates.Check(same,
                  "served model-rung answer differs from offline ScoreLineage");
    }
  }
  for (const PhaseResult& ph : ladder) attempted += ph.sent;

  // --- end-to-end metrics. ---
  std::printf("\nend-to-end:\n");
  const Tail lo_tail = TailOf(lo.latency_ms), hi_tail = TailOf(hi.latency_ms);
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Add("build.tuples_per_s", build_times.Rate(), "1/s");
  e2e.Add("train.examples_per_s", train_times.Rate(), "1/s");
  e2e.Add("train.ndcg10", ndcg10, "ratio");
  e2e.Add("infer.facts_per_s", float_times.Rate(), "1/s");
  e2e.Add("infer_int8.facts_per_s", int8_times.Rate(), "1/s");
  e2e.Add("infer.pair_tail_ms", pair_tail.value, "ms");
  e2e.Add("serve.lo.p50_ms", Median(lo.latency_ms), "ms");
  e2e.Add("serve.hi.p50_ms", Median(hi.latency_ms), "ms");
  std::printf("  (tails: infer.pair p%.1f of %zu pairs; serve.lo p%.1f of "
              "%zu; serve.hi p%.1f of %zu)\n",
              pair_tail.percentile, pair_ms.size(), lo_tail.percentile,
              lo.latency_ms.size(), hi_tail.percentile, hi.latency_ms.size());
  {
    std::vector<double> sizes;
    for (const RequestKey& k : request_pool) {
      sizes.push_back(static_cast<double>(k.lineage_size));
    }
    std::sort(sizes.begin(), sizes.end());
    std::printf("  request pool lineages: min %.0f, p25 %.0f, median %.0f, "
                "p75 %.0f, max %.0f, mean %.2f\n",
                sizes.front(), sizes[sizes.size() / 4], Median(sizes),
                sizes[3 * sizes.size() / 4], sizes.back(), Mean(sizes));
    std::printf("  key repeat share: lo %.4f, hi %.4f\n",
                Share(static_cast<double>(lo.repeats),
                      static_cast<double>(lo.sent)),
                Share(static_cast<double>(hi.repeats),
                      static_cast<double>(hi.sent)));
  }
  std::printf("  serve: lo %.0f/s miss %.4f, hi %.0f/s miss %.4f, L %.0f ms, "
              "ladder steps %zu, pool %zu keys, int8 agreement %.4f\n",
              w.lo_rps, lo.miss_share(), w.hi_rps, hi.miss_share(),
              w.limit_s * 1e3, ladder.size(), request_pool.size(),
              int8_agreement);
  std::printf("  train: best dev NDCG@10 per round:");
  for (double v : dev_ndcg) std::printf(" %.4f", v);
  std::printf("\n");
  build_times.Print("build");
  sim_times.Print("sims");
  train_times.Print("train");
  float_times.Print("infer");
  int8_times.Print("infer_int8");
  for (const PhaseResult& ph : ladder) {
    std::printf("  ladder %.1f/s: sent %zu, miss %.4f, p50 %.3f ms\n",
                ph.rate, ph.sent, ph.miss_share(), Median(ph.latency_ms));
  }

  // --- per-layer replays. ---
  if (opt.trace) {
    std::printf("\nper-layer (traced replays):\n");
    const Clock::time_point replay0 = Clock::now();
    BuildLayers bl[2];
    for (BuildLayers& b : bl) {
      b = ReplayBuildLayers(db, data.graph, ref_cfg, corpus);
    }
    SimLayers sl[2];
    for (SimLayers& s : sl) s = ReplaySimilarity(model, 12);
    MlLayers ml[2];
    for (MlLayers& m : ml) {
      m = ReplayMl(pair_corpus, pairs, *ranker, *ranker_q);
    }
    // Evaluation as the service runs it: each pool key's query, kFull.
    std::vector<double> serve_eval_us[2];
    for (auto& v : serve_eval_us) {
      for (const RequestKey& k : request_pool) {
        const Clock::time_point t0 = Clock::now();
        auto r = Evaluate(db, k.query, EvalOptions());
        v.push_back(Since(t0) * 1e6);
        gates.Check(r.ok(), "serve-pool query failed to evaluate");
      }
    }
    // Save and load of the loaded corpus as 4 shards.
    std::vector<double> save_s, load_s;
    uint64_t shard_bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      Clock::time_point t0 = Clock::now();
      const Status st = SaveCorpusShards(corpus, resave_path, kShards);
      save_s.push_back(Since(t0));
      t0 = Clock::now();
      auto back = LoadCorpusShards(&db, resave_path);
      load_s.push_back(Since(t0));
      gates.Check(st.ok() && back.ok() && CorpusDigest(*back) == ref_digest,
                  "re-saved shards do not load back identical");
      shard_bytes = ShardBytes(resave_path, kShards);
    }
    const double replay_s = Since(replay0);

    gates.Check(bl[0].SameCounts(bl[1]) && sl[0].pairs == sl[1].pairs &&
                    ml[0].facts == ml[1].facts && ml[0].madds == ml[1].madds,
                "work counts differ between two replays of the same seed");
    gates.Check(ml[0].replay_mismatches == 0,
                "encoder stage replay differs from the library's forward");
    gates.Check(bl[0].value_mismatches == 0,
                "exact Shapley replay differs from the corpus ground truth");
    auto min2 = [](double a, double b) { return std::min(a, b); };
    const BuildLayers& b = bl[0];
    const double compile_ms = min2(bl[0].compile_ms, bl[1].compile_ms);
    const double exact_ms = min2(bl[0].exact_ms, bl[1].exact_ms);
    const double eval_ms = min2(bl[0].eval_ms, bl[1].eval_ms);
    const double eval_plain_ms = min2(bl[0].eval_plain_ms, bl[1].eval_plain_ms);
    auto count = [](uint64_t n) { return static_cast<double>(n); };
    auto per = [](double total, uint64_t n) {
      return total / static_cast<double>(std::max<uint64_t>(n, 1));
    };
    double facts = 0;
    for (const CorpusEntry& e : corpus.entries) {
      for (const auto& c : e.contributions) facts += count(c.shapley.size());
    }

    layers.Add("query.genlog_ms", min2(bl[0].genlog_ms, bl[1].genlog_ms), "ms");
    layers.Add("query.queries", count(b.queries), "count");
    layers.Add("eval.ms", eval_ms, "ms");
    layers.Add("eval.rows", count(b.rows), "count");
    layers.Add("eval.ns_per_row", per(eval_ms * 1e6, b.rows), "ns");
    std::vector<double> serve_eval = serve_eval_us[0];
    for (size_t i = 0; i < serve_eval.size(); ++i) {
      serve_eval[i] = min2(serve_eval[i], serve_eval_us[1][i]);
    }
    layers.Add("eval.serve_p50_us", Median(serve_eval), "us");
    layers.Add("eval.serve_tail_us", TailOf(serve_eval).value, "us");
    layers.Add("provenance.compile_ms", compile_ms, "ms");
    layers.Add("provenance.nodes", count(b.nodes), "count");
    layers.Add("provenance.cache_hits", count(b.cache_hits), "count");
    layers.Add("provenance.ns_per_node", per(compile_ms * 1e6, b.nodes), "ns");
    layers.Add("provenance.components", count(b.components), "count");
    layers.Add("provenance.component_repeat_share_query",
               Share(count(b.repeat_in_query), count(b.components)), "ratio");
    layers.Add("provenance.component_repeat_share_log",
               Share(count(b.repeat_in_log), count(b.components)), "ratio");
    layers.Add("shapley.exact_ms", exact_ms, "ms");
    layers.Add("shapley.count_ms", std::max(0.0, exact_ms - compile_ms), "ms");
    layers.Add("shapley.tuples", count(b.tuples), "count");
    layers.Add("corpus.build_ms", Median(build_ms), "ms");
    layers.Add("corpus.save_mb_per_s",
               static_cast<double>(shard_bytes) / 1e6 / Median(save_s), "MB/s");
    layers.Add("corpus.load_mb_per_s",
               static_cast<double>(shard_bytes) / 1e6 / Median(load_s), "MB/s");
    layers.Add("corpus.bytes_per_fact",
               static_cast<double>(shard_bytes) / std::max(facts, 1.0), "B");
    layers.Add("corpus.cpu_util", Median(build_util), "ratio");
    layers.Add("similarity.syntax_ms", min2(sl[0].syntax_ms, sl[1].syntax_ms),
               "ms");
    layers.Add("similarity.witness_ms",
               min2(sl[0].witness_ms, sl[1].witness_ms), "ms");
    layers.Add("similarity.rank_ms", min2(sl[0].rank_ms, sl[1].rank_ms), "ms");
    layers.Add("similarity.pairs", count(sl[0].pairs), "count");
    layers.Add("sims.pairs_per_s", sim_times.Rate(), "1/s");
    layers.Add("similarity.cpu_util", Median(sim_util), "ratio");
    layers.Add("ml.tokenize_us",
               per(min2(ml[0].tokenize_ms, ml[1].tokenize_ms) * 1e3,
                   ml[0].facts), "us");
    layers.Add("ml.encode_us",
               per(min2(ml[0].encode_ms, ml[1].encode_ms) * 1e3, ml[0].facts),
               "us");
    auto per_fact_us = [&](double MlLayers::*field) {
      return per(min2(ml[0].*field, ml[1].*field) * 1e3, ml[0].facts);
    };
    layers.Add("ml.embed_us", per_fact_us(&MlLayers::embed_ms), "us");
    layers.Add("ml.attn_us", per_fact_us(&MlLayers::attn_ms), "us");
    layers.Add("ml.ffn_us", per_fact_us(&MlLayers::ffn_ms), "us");
    layers.Add("ml.forward_us",
               per(min2(ml[0].forward_ms, ml[1].forward_ms) * 1e3,
                   ml[0].facts), "us");
    layers.Add("ml.int8_forward_us",
               per(min2(ml[0].int8_ms, ml[1].int8_ms) * 1e3, ml[0].facts),
               "us");
    layers.Add("ml.facts", count(ml[0].facts), "count");
    layers.Add("ml.madds_per_fact", per(count(ml[0].madds), ml[0].facts),
               "count");
    const double fwd = min2(ml[0].train_forward_ms, ml[1].train_forward_ms);
    const double step = min2(ml[0].train_step_ms, ml[1].train_step_ms);
    layers.Add("ml.train_forward_ms", fwd, "ms");
    layers.Add("ml.train_backward_ms", std::max(0.0, step - fwd), "ms");
    layers.Add("ml.adam_step_ms", min2(ml[0].adam_ms, ml[1].adam_ms), "ms");
    layers.Add("train.cpu_util", Median(train_util), "ratio");
    layers.Add("infer.cpu_util", Median(infer_util), "ratio");
    layers.Add("infer.pair_p50_ms", Median(pair_ms), "ms");
    layers.Add("infer.int8_agreement", int8_agreement, "ratio");

    auto joined = [&](std::vector<double> PhaseResult::*field) {
      std::vector<double> v = lo.*field;
      v.insert(v.end(), (hi.*field).begin(), (hi.*field).end());
      return v;
    };
    const double sent = count(lo.sent + hi.sent);
    layers.Add("serve.lo.tail_ms", lo_tail.value, "ms");
    layers.Add("serve.hi.tail_ms", hi_tail.value, "ms");
    layers.Add("serve.submit_tail_us", TailOf(joined(&PhaseResult::submit_us)).value, "us");
    layers.Add("serve.queue_p50_ms", Median(joined(&PhaseResult::queue_ms)), "ms");
    layers.Add("serve.queue_tail_ms", TailOf(joined(&PhaseResult::queue_ms)).value, "ms");
    layers.Add("serve.process_p50_ms", Median(joined(&PhaseResult::process_ms)), "ms");
    layers.Add("serve.process_tail_ms", TailOf(joined(&PhaseResult::process_ms)).value, "ms");
    // Rung and rejection shares over every phase, the ladder's overloaded
    // steps included, so the degradation ladder shows. The stratified rung
    // is off in the default ServiceConfig and is not reported.
    {
      std::vector<const PhaseResult*> phases = {&lo, &hi};
      for (const PhaseResult& ph : ladder) phases.push_back(&ph);
      uint64_t all_sent = 0, queue_full = 0, backlog = 0, deadline = 0;
      std::array<uint64_t, 5> rungs{};
      for (const PhaseResult* ph : phases) {
        all_sent += ph->sent;
        queue_full += ph->counters.queue_full;
        backlog += ph->counters.backlog;
        deadline += ph->counters.deadline;
        for (size_t r = 0; r < rungs.size(); ++r) rungs[r] += ph->rungs[r];
      }
      const double n = count(all_sent);
      for (ServeRung r : {ServeRung::kModel, ServeRung::kCached,
                          ServeRung::kCnfProxy, ServeRung::kDegraded}) {
        layers.Add(std::string("serve.rung.") + ServeRungName(r),
                   Share(count(rungs[static_cast<size_t>(r)]), n), "ratio");
      }
      layers.Add("serve.reject.queue_full", Share(count(queue_full), n), "ratio");
      layers.Add("serve.reject.backlog", Share(count(backlog), n), "ratio");
      layers.Add("serve.reject.deadline", Share(count(deadline), n), "ratio");
    }
    layers.Add("serve.publish_ms", Median(joined(&PhaseResult::publish_ms)), "ms");
    layers.Add("serve.gen_lag_ms", TailOf(joined(&PhaseResult::lag_ms)).value, "ms");
    layers.Add("serve.key_repeat_share", Share(count(lo.repeats + hi.repeats), sent),
               "ratio");
    layers.Add("serve.hi.miss_share", hi.miss_share(), "ratio");
    layers.Add("serve.max_rps", max_rps, "1/s");
    layers.Add("trace.eval_overhead_ratio",
               eval_ms / std::max(eval_plain_ms, 1e-9), "ratio");
    layers.Add("trace.replay_s", replay_s, "s");
  }

  const std::vector<Metric>& out = opt.trace ? layers.metrics() : e2e.metrics();
  for (const Metric& m : out) {
    gates.Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  std::string json = "{\"correct\": ";
  json += gates.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(out[i].value) ? out[i].value : -1.0);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
  return gates.ok() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt->seconds >= 1 && opt->seconds <= 600)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty();
}

}  // namespace
}  // namespace lshap

int main(int argc, char** argv) {
  lshap::Options opt;
  if (!lshap::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload imdb|academic --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  if (!lshap::TreeIsMeasurable()) return 3;
  for (const lshap::Workload& w : lshap::kWorkloads) {
    if (opt.workload == w.name) return lshap::Run(w, opt);
  }
  std::fprintf(stderr, "pipebench: unknown workload %s\n",
               opt.workload.c_str());
  return 2;
}
