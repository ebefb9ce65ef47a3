// Estimator quality at matched budgets: exact (oracle) vs plain Monte-Carlo
// vs relation-stratified MC (Neyman pilot, and pilot-off proportional) on
// real corpus provenance. For each per-fact sample budget B the three
// estimators see the same lineages and the same per-fact budget; quality is
// measured against the exact oracle as pairwise rank-inversion rate, top-5
// agreement and MSE, averaged over several estimator seeds. Timing is
// min-of-3 with the estimators interleaved inside each repetition, so clock
// drift hits all arms equally. A second section replays the corpus builder's
// degradation ladder under a tight per-tuple deadline with the stratified
// rung off vs on — the acceptance comparison behind BENCH_pr9.json.
//
// Usage: bench_shapley_estimators [--smoke] [--metrics-json=PATH]
//
// --smoke shrinks everything (few lineages, one budget, two seeds, no
// deadline section) so CI can run the full code path in seconds.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "eval/evaluator.h"
#include "shapley/shapley.h"

using namespace lshap;
using namespace lshap::bench;

namespace {

// One benchmark case: a tuple's provenance plus the relation stratum of
// every lineage fact, and the exact Shapley oracle.
struct Case {
  Dnf prov;
  std::vector<uint32_t> strata;
  ShapleyValues exact;
};

// Harvest corpus lineages worth estimating: mid-size (the exact rung is the
// oracle, so n stays brute-force checkable) and spanning at least two
// relations (single-stratum lineages reduce every arm to plain sampling).
std::vector<Case> CollectCases(const Workbench& wb, size_t max_cases) {
  std::vector<Case> cases;
  for (size_t e : wb.corpus.train_idx) {
    const CorpusEntry& entry = wb.corpus.entries[e];
    auto result = Evaluate(*wb.corpus.db, entry.query);
    if (!result.ok()) continue;
    for (const auto& contrib : entry.contributions) {
      auto it = result->index.find(contrib.tuple);
      if (it == result->index.end()) continue;
      const Dnf& prov = result->ProvenanceOf(it->second);
      const std::vector<FactId> lineage = prov.Variables();
      if (lineage.size() < 6 || lineage.size() > 25) continue;
      std::vector<uint32_t> strata(lineage.size());
      for (size_t i = 0; i < lineage.size(); ++i) {
        strata[i] = wb.corpus.db->FactTableIndex(lineage[i]);
      }
      if (std::set<uint32_t>(strata.begin(), strata.end()).size() < 2) {
        continue;
      }
      cases.push_back({prov, std::move(strata),
                       ComputeShapleyExactUnlimited(prov)});
      if (cases.size() >= max_cases) return cases;
    }
  }
  return cases;
}

// Fraction of fact pairs with distinct exact values that the estimate
// orders the wrong way (ties in the estimate count as half an inversion).
double InversionRate(const ShapleyValues& est, const ShapleyValues& exact) {
  std::vector<FactId> facts;
  for (const auto& [f, v] : exact) facts.push_back(f);
  double inversions = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < facts.size(); ++i) {
    for (size_t j = i + 1; j < facts.size(); ++j) {
      const double de = exact.at(facts[i]) - exact.at(facts[j]);
      if (de == 0.0) continue;
      ++pairs;
      const double dm = est.at(facts[i]) - est.at(facts[j]);
      if (dm == 0.0) {
        inversions += 0.5;
      } else if ((de > 0.0) != (dm > 0.0)) {
        inversions += 1.0;
      }
    }
  }
  return pairs == 0 ? 0.0 : inversions / static_cast<double>(pairs);
}

double TopKAgreement(const ShapleyValues& est, const ShapleyValues& exact,
                     size_t k) {
  const auto re = RankByScore(est);
  const auto rx = RankByScore(exact);
  const size_t kk = std::min(k, rx.size());
  const std::set<FactId> top_exact(rx.begin(), rx.begin() + kk);
  size_t overlap = 0;
  for (size_t i = 0; i < kk; ++i) overlap += top_exact.count(re[i]);
  return static_cast<double>(overlap) / static_cast<double>(kk);
}

double Mse(const ShapleyValues& est, const ShapleyValues& exact) {
  double sum = 0.0;
  for (const auto& [f, v] : exact) {
    const double d = est.at(f) - v;
    sum += d * d;
  }
  return sum / static_cast<double>(exact.size());
}

struct Quality {
  double inv_rate = 0.0;
  double top5 = 0.0;
  double mse = 0.0;
  void Add(const ShapleyValues& est, const ShapleyValues& exact) {
    inv_rate += InversionRate(est, exact);
    top5 += TopKAgreement(est, exact, 5);
    mse += Mse(est, exact);
  }
  void Scale(double inv_n) {
    inv_rate *= inv_n;
    top5 *= inv_n;
    mse *= inv_n;
  }
};

// The three arms under test. Budget semantics: `samples` is the per-fact
// budget B for every arm — a plain-MC run with B permutations gives each
// fact exactly B marginal evaluations, and a stratified run targets n*B
// marginal samples spread over the facts. The Neyman arm additionally
// spends a B/4-permutation pilot, amortized across all n facts (per-fact
// overhead B/(4n), well under the budget-match noise floor).
using EstimatorFn = ShapleyValues (*)(const Case&, size_t samples, Rng& rng);

ShapleyValues RunPlainMc(const Case& c, size_t samples, Rng& rng) {
  return ComputeShapleyMonteCarloUnlimited(c.prov, samples, rng);
}

ShapleyValues RunStratProportional(const Case& c, size_t samples, Rng& rng) {
  StratifiedMcOptions opt;
  opt.pilot_permutations = 0;
  return ComputeShapleyStratifiedUnlimited(c.prov, c.strata, samples, rng,
                                           opt);
}

ShapleyValues RunStratNeyman(const Case& c, size_t samples, Rng& rng) {
  StratifiedMcOptions opt;
  opt.pilot_permutations = samples / 4;
  return ComputeShapleyStratifiedUnlimited(c.prov, c.strata, samples, rng,
                                           opt);
}

struct Arm {
  const char* name;
  EstimatorFn fn;
};

constexpr Arm kArms[] = {
    {"plain-mc", RunPlainMc},
    {"strat-prop", RunStratProportional},
    {"strat-neyman", RunStratNeyman},
};

void QualityTable(const std::vector<Case>& cases,
                  const std::vector<size_t>& budgets, size_t num_seeds) {
  for (size_t budget : budgets) {
    std::printf("\n[per-fact budget B = %zu, %zu seeds x %zu lineages]\n",
                budget, num_seeds, cases.size());
    std::printf("%-14s %10s %10s %12s\n", "estimator", "inv-rate", "top-5",
                "mse");
    for (const Arm& arm : kArms) {
      Quality q;
      for (size_t seed = 0; seed < num_seeds; ++seed) {
        for (const Case& c : cases) {
          Rng rng(0x515 + seed * 7919);
          q.Add(arm.fn(c, budget, rng), c.exact);
        }
      }
      q.Scale(1.0 / static_cast<double>(num_seeds * cases.size()));
      std::printf("%-14s %10.4f %10.4f %12.3e\n", arm.name, q.inv_rate,
                  q.top5, q.mse);
    }
  }
}

void TimingTable(const std::vector<Case>& cases, size_t budget,
                 size_t num_seeds) {
  std::printf("\n[wall time, B = %zu, min of 3 interleaved reps]\n", budget);
  std::map<std::string, double> best;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Arm& arm : kArms) {
      WallTimer t;
      for (size_t seed = 0; seed < num_seeds; ++seed) {
        for (const Case& c : cases) {
          Rng rng(0x515 + seed * 7919);
          const ShapleyValues v = arm.fn(c, budget, rng);
          (void)v;
        }
      }
      const double ms = t.ElapsedMillis();
      auto it = best.find(arm.name);
      if (it == best.end() || ms < it->second) best[arm.name] = ms;
    }
  }
  for (const Arm& arm : kArms) {
    std::printf("%-14s %8.2f ms (%zu estimates)\n", arm.name, best[arm.name],
                num_seeds * cases.size());
  }
}

// The acceptance comparison: same database, same tight per-tuple deadline,
// same starved node budget (so the exact rung drops most tuples) — rung off
// vs on. "Above proxy" counts tuples whose ground truth came from a real
// Shapley estimator (exact, stratified or plain MC) rather than the CNF
// heuristic or a skip.
void DeadlineLadderComparison(ThreadPool& pool) {
  PrintHeader("Corpus build under a tight tuple deadline: stratified rung "
              "off vs on");
  const GeneratedDb data = MakeImdbDatabase({});
  CorpusConfig base;
  base.seed = 101;
  base.num_base_queries = 34;
  base.max_outputs_per_query = 24;
  base.query_gen.min_tables = 2;
  base.query_gen.max_tables = 4;
  base.max_circuit_nodes = 8;         // starve the exact rung
  base.tuple_deadline_seconds = 2e-3; // tight enough to trip large-B MC
  base.mc_fallback_samples = 20000;
  base.metrics = BenchMetrics();

  CorpusConfig with_rung = base;
  // The variance reduction is the budget: the stratified rung asks for far
  // fewer per-fact samples than the MC rung's permutations, so it fits the
  // deadline where plain MC trips.
  with_rung.stratified_fallback_samples = 64;

  for (const auto& [label, cfg] :
       std::vector<std::pair<const char*, CorpusConfig>>{
           {"rung off (historical)", base},
           {"rung on (strat 64/fact)", with_rung}}) {
    const Corpus c = BuildCorpus(*data.db, data.graph, cfg, pool);
    const BuildStats& s = c.stats;
    const size_t above_proxy = s.exact + s.stratified + s.monte_carlo;
    std::printf("\n[%s]\n", label);
    std::printf("wall %.3fs | attempted %zu | above proxy %zu (%.1f%%)\n",
                s.wall_seconds, s.attempted(), above_proxy,
                100.0 * static_cast<double>(above_proxy) /
                    static_cast<double>(s.attempted()));
    std::printf("rungs: exact %zu | stratified %zu | monte-carlo %zu | "
                "cnf-proxy %zu | skipped %zu\n",
                s.exact, s.stratified, s.monte_carlo, s.cnf_proxy, s.skipped);
    for (const auto& [site, count] : s.budget_trips) {
      std::printf("  budget trips at %-24s %zu\n", site.c_str(), count);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  ParseBenchArgs(argc, argv,
                 {{"--smoke", [&smoke](const char*) { smoke = true; }}});

  ThreadPool pool;
  PrintHeader("Shapley estimator quality at matched budgets (IMDB corpus "
              "provenance)");
  const Workbench wb = MakeImdbWorkbench(pool);
  const std::vector<Case> cases = CollectCases(wb, smoke ? 8 : 60);
  std::printf("\nlineages collected: %zu (6 <= n <= 25, >= 2 relations)\n",
              cases.size());
  if (cases.empty()) {
    std::printf("no eligible lineages — nothing to compare\n");
    return 1;
  }

  const std::vector<size_t> budgets =
      smoke ? std::vector<size_t>{32} : std::vector<size_t>{32, 128, 512};
  const size_t num_seeds = smoke ? 2 : 5;
  QualityTable(cases, budgets, num_seeds);
  TimingTable(cases, budgets.back(), num_seeds);

  if (!smoke) DeadlineLadderComparison(pool);
  return 0;
}
