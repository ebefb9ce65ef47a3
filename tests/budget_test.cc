#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/budget.h"
#include "common/rng.h"
#include "provenance/bool_expr.h"
#include "provenance/compiler.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

// Random monotone DNF over [0, num_vars).
Dnf RandomDnf(Rng& rng, size_t num_vars, size_t num_clauses,
              size_t max_clause_len) {
  std::vector<Clause> clauses;
  for (size_t c = 0; c < num_clauses; ++c) {
    Clause clause;
    const size_t len = 1 + rng.NextBounded(max_clause_len);
    for (size_t i = 0; i < len; ++i) {
      clause.push_back(static_cast<FactId>(rng.NextBounded(num_vars)));
    }
    clauses.push_back(clause);
  }
  return Dnf(std::move(clauses));
}

// ---- ExecutionBudget / CancelToken / FaultInjector units ----

TEST(ExecutionBudgetTest, UnlimitedNeverTrips) {
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  EXPECT_TRUE(budget.unlimited());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(budget.Check("test.site").ok());
    EXPECT_TRUE(budget.Charge(1000, "test.site").ok());
  }
  EXPECT_FALSE(budget.tripped());
}

TEST(ExecutionBudgetTest, WorkBudgetTripsAndIsSticky) {
  ExecutionBudget budget({0.0, 100});
  EXPECT_TRUE(budget.Charge(60, "test.a").ok());
  EXPECT_TRUE(budget.Charge(40, "test.a").ok());  // exactly at the limit
  const Status s = budget.Charge(1, "test.b");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.tripped());
  EXPECT_EQ(budget.trip_site(), "test.b");
  // Sticky: every later poll returns the same error without re-deriving it.
  EXPECT_EQ(budget.Check("test.c").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.trip_site(), "test.b");
}

TEST(ExecutionBudgetTest, ExpiredDeadlineTripsOnFirstCheck) {
  // A 1 ns allowance is over by the time Check runs; the first check always
  // reads the clock (stride counter starts at 0).
  ExecutionBudget budget({1e-9, 0});
  const Status s = budget.Check("test.deadline");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(ExecutionBudgetTest, CancelTokenPropagates) {
  CancelToken cancel;
  ExecutionBudget budget({0.0, 0}, &cancel);
  EXPECT_TRUE(budget.Check("test.site").ok());
  cancel.RequestCancel();
  const Status s = budget.Check("test.site");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(FaultInjectorTest, FailsAtExactHit) {
  FaultInjector fault;
  fault.FailAt("test.site", 2);
  ExecutionBudget budget({0.0, 0}, nullptr, &fault);
  EXPECT_TRUE(budget.Check("test.site").ok());   // hit 0
  EXPECT_TRUE(budget.Check("test.site").ok());   // hit 1
  const Status s = budget.Check("test.site");    // hit 2: armed
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.trip_site(), "test.site");
  EXPECT_EQ(fault.hits("test.site"), 3u);
}

TEST(FaultInjectorTest, UnarmedSitesCountHits) {
  FaultInjector fault;
  ExecutionBudget budget({0.0, 0}, nullptr, &fault);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(budget.Check("test.other").ok());
  EXPECT_EQ(fault.hits("test.other"), 5u);
  EXPECT_EQ(fault.hits("test.never"), 0u);
}

TEST(FaultInjectorTest, InjectedCodeIsConfigurable) {
  FaultInjector fault;
  fault.FailAt("test.site", 0, StatusCode::kCancelled);
  ExecutionBudget budget({0.0, 0}, nullptr, &fault);
  EXPECT_EQ(budget.Check("test.site").code(), StatusCode::kCancelled);
}

TEST(FaultInjectorTest, ProbabilisticArmingIsDeterministicPerSeed) {
  auto first_failing_hit = [](uint64_t seed) -> int {
    FaultInjector fault(seed);
    fault.FailWithProbability("test.site", 0.2);
    for (int i = 0; i < 200; ++i) {
      if (!fault.OnSite("test.site").ok()) return i;
    }
    return -1;
  };
  EXPECT_EQ(first_failing_hit(42), first_failing_hit(42));
  // Across many seeds a 0.2-per-hit coin must fail somewhere in 200 hits.
  EXPECT_NE(first_failing_hit(42), -1);
}

// ---- Budgeted compiler ----

TEST(BudgetedCompilerTest, UnlimitedMatchesInfallible) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Dnf d = RandomDnf(rng, 2 + rng.NextBounded(8),
                            1 + rng.NextBounded(5), 3);
    DnfCompiler a;
    const auto plain = a.CompileUnlimited(d);
    ExecutionBudget unlimited = ExecutionBudget::Unlimited();
    DnfCompiler b;
    auto budgeted = b.Compile(d, &unlimited);
    ASSERT_TRUE(budgeted.ok());
    EXPECT_EQ(plain->num_nodes(), (*budgeted)->num_nodes());
    EXPECT_EQ(a.last_num_nodes(), b.last_num_nodes());
  }
}

TEST(BudgetedCompilerTest, NodeBudgetBoundsCompilation) {
  Rng rng(6);
  const Dnf d = RandomDnf(rng, 12, 8, 4);
  ExecutionBudget tiny({0.0, 3});
  DnfCompiler compiler;
  auto result = compiler.Compile(d, &tiny);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.trip_site(), kSiteCompilerExpand);
}

TEST(BudgetedCompilerTest, CancellationUnwindsCleanly) {
  Rng rng(7);
  const Dnf d = RandomDnf(rng, 12, 8, 4);
  CancelToken cancel;
  cancel.RequestCancel();
  ExecutionBudget budget({0.0, 0}, &cancel);
  DnfCompiler compiler;
  auto result = compiler.Compile(d, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---- Budgeted Shapley engines ----

TEST(BudgetedShapleyTest, UnlimitedMatchesInfallibleExact) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const Dnf d = RandomDnf(rng, 2 + rng.NextBounded(8),
                            1 + rng.NextBounded(5), 3);
    const auto plain = ComputeShapleyExactUnlimited(d);
    ExecutionBudget unlimited = ExecutionBudget::Unlimited();
    auto budgeted = ComputeShapleyExact(d, &unlimited);
    ASSERT_TRUE(budgeted.ok());
    ASSERT_EQ(budgeted->size(), plain.size());
    for (const auto& [f, v] : plain) {
      EXPECT_DOUBLE_EQ(budgeted->at(f), v);
    }
  }
}

TEST(BudgetedShapleyTest, ExactRespectsNodeBudget) {
  Rng rng(9);
  const Dnf d = RandomDnf(rng, 14, 9, 4);
  ExecutionBudget tiny({0.0, 2});
  auto result = ComputeShapleyExact(d, &tiny);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetedShapleyTest, FaultAtCountingSiteTripsExact) {
  Rng rng(10);
  const Dnf d = RandomDnf(rng, 6, 3, 3);
  FaultInjector fault;
  fault.FailAt(kSiteShapleyCount, 0);
  ExecutionBudget budget({0.0, 0}, nullptr, &fault);
  auto result = ComputeShapleyExact(d, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.trip_site(), kSiteShapleyCount);
}

TEST(BudgetedShapleyTest, MonteCarloSampleBudget) {
  Rng data_rng(11);
  const Dnf d = RandomDnf(data_rng, 8, 4, 3);
  Rng mc_rng(12);
  ExecutionBudget budget({0.0, 500});  // 1 unit per sample
  auto result = ComputeShapleyMonteCarlo(d, 1000, mc_rng, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.trip_site(), kSiteShapleyMcSample);
}

TEST(BudgetedShapleyTest, MonteCarloWithinBudgetMatchesInfallible) {
  Rng data_rng(13);
  const Dnf d = RandomDnf(data_rng, 8, 4, 3);
  Rng rng_a(14);
  const auto plain = ComputeShapleyMonteCarlo(d, 400, rng_a).value();
  Rng rng_b(14);
  ExecutionBudget budget({0.0, 400});
  auto budgeted = ComputeShapleyMonteCarlo(d, 400, rng_b, &budget);
  ASSERT_TRUE(budgeted.ok());
  for (const auto& [f, v] : plain) {
    EXPECT_DOUBLE_EQ(budgeted->at(f), v);
  }
}

TEST(BudgetedShapleyTest, CnfProxyFaultSite) {
  Rng rng(15);
  const Dnf d = RandomDnf(rng, 6, 3, 3);
  FaultInjector fault;
  fault.FailAt(kSiteCnfProxy, 0);
  ExecutionBudget budget({0.0, 0}, nullptr, &fault);
  auto result = ComputeCnfProxy(d, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// ---- MC fallback quality: the degraded rung must preserve the ranking ----

// Kendall-style pairwise concordance restricted to pairs the exact values
// order strictly. Symmetric facts have *exactly* equal exact Shapley values,
// and sampling noise breaks such ties arbitrarily; penalizing that (as the
// tie-aware KendallTauDistance does) would measure the metric, not the
// sampler. Returns the fraction of strictly-ordered exact pairs whose order
// the MC estimate preserves (1.0 when every pair is tied).
double RankingAgreement(const ShapleyValues& exact, const ShapleyValues& mc,
                        const std::vector<FactId>& lineage) {
  size_t strict = 0;
  size_t concordant = 0;
  for (size_t i = 0; i < lineage.size(); ++i) {
    for (size_t j = i + 1; j < lineage.size(); ++j) {
      const double de = exact.at(lineage[i]) - exact.at(lineage[j]);
      if (de == 0.0) continue;
      ++strict;
      const double dm = mc.at(lineage[i]) - mc.at(lineage[j]);
      if (dm != 0.0 && (de > 0.0) == (dm > 0.0)) ++concordant;
    }
  }
  if (strict == 0) return 1.0;
  return static_cast<double>(concordant) / static_cast<double>(strict);
}

TEST(BudgetedShapleyTest, MonteCarloRankingAgreesWithExactOnSmallLineages) {
  Rng data_rng(16);
  for (int trial = 0; trial < 10; ++trial) {
    const Dnf d = RandomDnf(data_rng, 6 + data_rng.NextBounded(6),
                            2 + data_rng.NextBounded(4), 3);
    const std::vector<FactId> lineage = d.Variables();
    const auto exact = ComputeShapleyExact(d).value();
    Rng mc_rng(100 + static_cast<uint64_t>(trial));
    const auto mc = ComputeShapleyMonteCarlo(d, 20000, mc_rng).value();
    EXPECT_GE(RankingAgreement(exact, mc, lineage), 0.9)
        << "trial " << trial << ": " << d.ToString();
  }
}

TEST(BudgetTest, RemainingSecondsWithoutDeadlineIsInfinite) {
  ExecutionBudget budget = ExecutionBudget::Unlimited();
  EXPECT_FALSE(budget.has_deadline());
  EXPECT_TRUE(std::isinf(budget.RemainingSeconds()));
  EXPECT_GT(budget.RemainingSeconds(), 0.0);
}

TEST(BudgetTest, RemainingSecondsTracksTheDeadline) {
  ExecutionBudget::Limits limits;
  limits.deadline_seconds = 60.0;
  ExecutionBudget budget(limits);
  EXPECT_TRUE(budget.has_deadline());
  const double remaining = budget.RemainingSeconds();
  EXPECT_GT(remaining, 0.0);
  EXPECT_LE(remaining, 60.0);

  // A deadline in the past reads negative — the stage-boundary signal the
  // serving ladder uses to skip infeasible rungs without tripping first.
  ExecutionBudget::Limits expired;
  expired.deadline_seconds = 1e-9;
  ExecutionBudget late(expired);
  while (late.RemainingSeconds() > 0.0) {
  }
  EXPECT_LT(late.RemainingSeconds(), 0.0);
}

}  // namespace
}  // namespace lshap
