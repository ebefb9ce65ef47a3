// Closed-loop load driver for the resilient ranking service (DESIGN.md §11):
// N client threads issue Zipf-distributed RankTuple requests against a
// RankingService over the IMDB database, through three phases —
//
//   warm      generous deadlines, no faults: the model rung and the cache
//   overload  tight deadlines, more clients than workers, a small queue:
//             admission control sheds load and the ladder degrades
//   chaos     injected faults at the serve.* sites plus live snapshot
//             swaps: every rung and the explicit-degradation path
//
// Each phase reports p50/p99 client latency (exact, from per-request
// samples), throughput, reject rate and the rung distribution, and checks
// the zero-silent-drops invariant: submitted == completed + rejected +
// cancelled. A violation exits non-zero, which is what tools/check.sh's
// `serve` smoke mode relies on.
//
// Usage: bench_serve [--smoke] [--clients=N] [--requests=N] [--workers=N]
//                    [--quantized] [--metrics-json=PATH]
//
// --quantized publishes the ranker in int8 SIMD inference mode (the float
// model stays loaded as the conversion source), exercising the quantized
// scoring path under concurrency and snapshot swaps.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "datasets/imdb.h"
#include "eval/evaluator.h"
#include "ml/encoder.h"
#include "query/generator.h"
#include "serving/service.h"

namespace lshap {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  size_t clients = 6;
  size_t requests_per_client = 300;
  size_t workers = 2;
  uint64_t seed = 42;
  bool quantized = false;
};

// One (query, tuple) the clients can ask about — drawn Zipf-style so a few
// hot keys dominate, which is what gives the cache rung real hit rates.
struct RequestKey {
  Query query;
  OutputTuple tuple;
};

std::shared_ptr<const LearnShapleyRanker> MakeBenchRanker(uint64_t seed,
                                                          bool quantized) {
  // Untrained weights: serving latency depends on the forward-pass shape,
  // not on what the weights encode, and skipping training keeps the smoke
  // mode in seconds.
  auto vocab = std::make_shared<Vocab>();
  EncoderConfig cfg;
  cfg.vocab_size = vocab->size();
  cfg.max_len = 64;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ffn_dim = 32;
  LearnShapleyModel model(cfg, seed);
  auto ranker = std::make_shared<LearnShapleyRanker>(
      std::move(model), vocab, cfg.max_len, /*shapley_scale=*/1000.0f,
      "bench");
  if (quantized) {
    ranker->Configure(RankerConfig{}.WithMode(InferenceMode::kQuantized));
  }
  return ranker;
}

// Zipf(s=1.0) sampler over [0, n) via the precomputed CDF.
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) {
    cdf_.reserve(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::vector<RequestKey> BuildRequestPool(const Database& db,
                                         const SchemaGraph& graph,
                                         uint64_t seed) {
  QueryGenConfig qg;
  qg.max_tables = 3;
  qg.union_prob = 0.1;
  QueryGenerator gen(&db, graph, qg, seed);
  std::vector<RequestKey> pool;
  for (int i = 0; pool.size() < 16 && i < 200; ++i) {
    Query q = gen.Generate("serve_q" + std::to_string(i));
    auto result = Evaluate(db, q, ProvenanceCapture::kLineageOnly);
    if (!result.ok() || result->tuples.empty()) continue;
    // Keep lineages bounded so a single request cannot dominate a phase.
    const size_t idx = 0;
    if (result->lineages[idx].empty() || result->lineages[idx].size() > 64) {
      continue;
    }
    pool.push_back(RequestKey{q, result->tuples[idx]});
  }
  return pool;
}

struct PhaseCounters {
  uint64_t submitted = 0, admitted = 0, completed = 0, errors = 0;
  uint64_t cancelled = 0, rejected = 0;
  uint64_t rung_model = 0, rung_cached = 0, rung_stratified = 0,
           rung_proxy = 0, rung_degraded = 0;
};

PhaseCounters ReadCounters(const MetricsRegistry& m) {
  PhaseCounters c;
  c.submitted = m.CounterValue("serve.submitted");
  c.admitted = m.CounterValue("serve.admitted");
  c.completed = m.CounterValue("serve.completed");
  c.errors = m.CounterValue("serve.errors");
  c.cancelled = m.CounterValue("serve.cancelled");
  c.rejected = m.CounterValue("serve.rejected.queue_full") +
               m.CounterValue("serve.rejected.backlog") +
               m.CounterValue("serve.rejected.deadline") +
               m.CounterValue("serve.rejected.no_snapshot") +
               m.CounterValue("serve.rejected.fault") +
               m.CounterValue("serve.rejected.shutdown");
  c.rung_model = m.CounterValue("serve.rung.model");
  c.rung_cached = m.CounterValue("serve.rung.cached");
  c.rung_stratified = m.CounterValue("serve.rung.stratified");
  c.rung_proxy = m.CounterValue("serve.rung.cnf_proxy");
  c.rung_degraded = m.CounterValue("serve.rung.degraded");
  return c;
}

PhaseCounters Delta(const PhaseCounters& after, const PhaseCounters& before) {
  PhaseCounters d;
  d.submitted = after.submitted - before.submitted;
  d.admitted = after.admitted - before.admitted;
  d.completed = after.completed - before.completed;
  d.errors = after.errors - before.errors;
  d.cancelled = after.cancelled - before.cancelled;
  d.rejected = after.rejected - before.rejected;
  d.rung_model = after.rung_model - before.rung_model;
  d.rung_cached = after.rung_cached - before.rung_cached;
  d.rung_stratified = after.rung_stratified - before.rung_stratified;
  d.rung_proxy = after.rung_proxy - before.rung_proxy;
  d.rung_degraded = after.rung_degraded - before.rung_degraded;
  return d;
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

struct PhaseSpec {
  const char* name;
  ServiceConfig config;       // fault/metrics filled in by RunPhase
  // Per-request deadline schedule (seconds; 0 = none), cycled per request.
  std::vector<double> deadlines;
  bool swap_snapshots = false;
  // Probabilistic fault arming (site -> probability); empty = no faults.
  std::vector<std::pair<const char*, double>> faults;
};

bool RunPhase(const PhaseSpec& spec, const Options& opt,
              const std::shared_ptr<const Database>& db,
              const std::shared_ptr<const LearnShapleyRanker>& ranker,
              const std::vector<RequestKey>& pool, MetricsRegistry* metrics) {
  FaultInjector fault(opt.seed);
  for (const auto& [site, prob] : spec.faults) {
    fault.FailWithProbability(site, prob);
  }
  ServiceConfig config = spec.config;
  config.metrics = metrics;
  if (!spec.faults.empty()) config.fault = &fault;

  const PhaseCounters before = ReadCounters(*metrics);
  RankingService service(config);
  if (!service.Publish(db, ranker).ok()) return false;

  ZipfSampler zipf(pool.size());
  std::vector<std::vector<double>> latencies(opt.clients);
  std::atomic<bool> publishing{true};
  const Clock::time_point phase_start = Clock::now();

  std::vector<std::thread> clients;
  clients.reserve(opt.clients);
  for (size_t c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(opt.seed + 1000 * (c + 1));
      latencies[c].reserve(opt.requests_per_client);
      for (size_t i = 0; i < opt.requests_per_client; ++i) {
        const RequestKey& key = pool[zipf.Sample(rng)];
        RankRequest req;
        req.query = key.query;
        req.tuple = key.tuple;
        req.deadline_seconds =
            spec.deadlines.empty()
                ? 0.0
                : spec.deadlines[i % spec.deadlines.size()];
        const Clock::time_point t0 = Clock::now();
        RankResponse resp = service.Rank(req);
        (void)resp;
        latencies[c].push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
      }
    });
  }

  std::thread publisher;
  if (spec.swap_snapshots) {
    publisher = std::thread([&] {
      // Re-publish the same frozen database under new epochs while clients
      // hammer the service — the TSan-visible swap-under-load pattern.
      int swaps = 0;
      while (publishing.load(std::memory_order_relaxed) && swaps < 64) {
        (void)service.Publish(db, ++swaps % 2 == 0 ? ranker : nullptr);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  for (std::thread& t : clients) t.join();
  publishing.store(false, std::memory_order_relaxed);
  if (publisher.joinable()) publisher.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  service.Shutdown();

  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  const PhaseCounters d = Delta(ReadCounters(*metrics), before);
  const double p50 = Percentile(all, 0.50);
  const double p99 = Percentile(all, 0.99);
  const double qps = wall > 0 ? static_cast<double>(d.completed) / wall : 0.0;
  const double reject_rate =
      d.submitted > 0
          ? static_cast<double>(d.rejected) / static_cast<double>(d.submitted)
          : 0.0;

  std::printf("%-9s p50 %8.3f ms   p99 %8.3f ms   %8.1f req/s   "
              "reject %5.1f%%\n",
              spec.name, p50 * 1e3, p99 * 1e3, qps, reject_rate * 100.0);
  std::printf("          rungs: model %llu  cached %llu  stratified %llu  "
              "cnf_proxy %llu  degraded %llu   errors %llu\n",
              static_cast<unsigned long long>(d.rung_model),
              static_cast<unsigned long long>(d.rung_cached),
              static_cast<unsigned long long>(d.rung_stratified),
              static_cast<unsigned long long>(d.rung_proxy),
              static_cast<unsigned long long>(d.rung_degraded),
              static_cast<unsigned long long>(d.errors));

  // Zero silent drops: every submitted request has exactly one terminal
  // outcome (a response — OK or error — a rejection, or a cancellation).
  const uint64_t accounted = d.completed + d.rejected + d.cancelled;
  if (accounted != d.submitted) {
    std::printf("ACCOUNTING VIOLATION in phase %s: submitted=%llu but "
                "completed+rejected+cancelled=%llu\n",
                spec.name, static_cast<unsigned long long>(d.submitted),
                static_cast<unsigned long long>(accounted));
    return false;
  }
  // Every client call returned (closed loop), so the sample count must
  // match what the clients issued.
  if (all.size() != opt.clients * opt.requests_per_client) {
    std::printf("ACCOUNTING VIOLATION in phase %s: %zu samples for %zu "
                "client calls\n",
                spec.name, all.size(),
                opt.clients * opt.requests_per_client);
    return false;
  }
  return true;
}

int Run(const Options& opt, MetricsRegistry* metrics) {
  bench::PrintHeader("Resilient ranking service: closed-loop load phases");

  GeneratedDb data = MakeImdbDatabase({});
  data.db->FreezeStringOrder();
  std::shared_ptr<const Database> db(std::move(data.db));
  auto ranker = MakeBenchRanker(opt.seed, opt.quantized);
  const std::vector<RequestKey> pool =
      BuildRequestPool(*db, data.graph, opt.seed);
  if (pool.size() < 4) {
    std::printf("failed to generate a usable request pool\n");
    return 1;
  }
  std::printf("request pool: %zu (query, tuple) keys, %zu clients x %zu "
              "requests, %zu workers, %s inference\n\n",
              pool.size(), opt.clients, opt.requests_per_client, opt.workers,
              InferenceModeName(ranker->config().mode));

  PhaseSpec warm;
  warm.name = "warm";
  warm.config = ServiceConfig{}.WithWorkers(opt.workers);
  PhaseSpec overload;
  overload.name = "overload";
  // Closed-loop clients bound the queue depth at the client count, so the
  // queue and backlog caps sit below it to make admission control visible:
  // depth 3+ trips the backlog bound, depth 4 the hard cap, and the 2 ms
  // deadlines fall below the 5 ms floor and are shed up front.
  overload.config = ServiceConfig{}
                        .WithWorkers(1)
                        .WithQueueCapacity(4)
                        .WithMaxBacklogSeconds(0.012)
                        .WithEstRequestSeconds(5e-3);
  overload.deadlines = {0.0, 0.01, 0.002, 0.0, 0.002};
  PhaseSpec chaos;
  chaos.name = "chaos";
  chaos.config = ServiceConfig{}.WithWorkers(opt.workers);
  chaos.deadlines = {0.0, 0.02, 0.0};
  chaos.swap_snapshots = true;
  chaos.faults = {{kSiteServeEval, 0.05},
                  {kSiteServeCache, 0.10},
                  {kSiteServeSnapshot, 0.02}};

  bool ok = true;
  for (const PhaseSpec* spec : {&warm, &overload, &chaos}) {
    ok = RunPhase(*spec, opt, db, ranker, pool, metrics) && ok;
  }
  std::printf("\naccounting invariant: %s\n", ok ? "HELD" : "VIOLATED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lshap

int main(int argc, char** argv) {
  lshap::Options opt;
  const auto count = [](size_t* field) {
    return [field](const char* v) {
      *field = static_cast<size_t>(std::atol(v));
    };
  };
  lshap::MetricsRegistry* metrics = lshap::bench::ParseBenchArgs(
      argc, argv,
      {{"--smoke",
        [&opt](const char*) {
          opt.clients = 3;
          opt.requests_per_client = 60;
        }},
       {"--clients=", count(&opt.clients)},
       {"--requests=", count(&opt.requests_per_client)},
       {"--workers=", count(&opt.workers)},
       {"--quantized", [&opt](const char*) { opt.quantized = true; }}});
  static lshap::MetricsRegistry local;
  if (metrics == nullptr) metrics = &local;
  return lshap::Run(opt, metrics);
}
