// Parameterized property tests: invariants that must hold across sweeps of
// random instances — Shapley axioms, metric bounds, matching optimality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "metrics/ranking_metrics.h"
#include "provenance/bool_expr.h"
#include "shapley/shapley.h"
#include "similarity/hungarian.h"
#include "similarity/kendall.h"

namespace lshap {
namespace {

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

// ---- Shapley axioms across a seed sweep ----

class ShapleyAxiomsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapleyAxiomsTest, ExactMatchesBruteForce) {
  Rng rng(GetParam());
  const size_t num_vars = 2 + rng.NextBounded(10);
  const Dnf d = RandomDnf(rng, num_vars, 1 + rng.NextBounded(5), 4);
  const auto exact = ComputeShapleyExact(d).value();
  const auto brute = ComputeShapleyBrute(d).value();
  ASSERT_EQ(exact.size(), brute.size());
  for (const auto& [f, v] : brute) {
    EXPECT_NEAR(exact.at(f), v, 1e-9) << d.ToString();
  }
}

TEST_P(ShapleyAxiomsTest, EfficiencyValuesAndBounds) {
  Rng rng(GetParam() * 31 + 7);
  const Dnf d = RandomDnf(rng, 3 + rng.NextBounded(12),
                          1 + rng.NextBounded(6), 4);
  const auto v = ComputeShapleyExact(d).value();
  double sum = 0.0;
  for (const auto& [f, val] : v) {
    EXPECT_GE(val, -1e-12);
    EXPECT_LE(val, 1.0 + 1e-12);
    sum += val;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ShapleyAxiomsTest, MonotoneUnderClauseAddition) {
  // Adding an extra derivation that contains fact f cannot decrease the
  // aggregate value of the facts in that clause... (not true pointwise in
  // general), but a *dummy* variable never in any clause stays at 0, and
  // the efficiency total stays 1.
  Rng rng(GetParam() * 131 + 3);
  Dnf d = RandomDnf(rng, 8, 3, 3);
  const auto before = ComputeShapleyExact(d).value();
  d.AddClause({100, 101});
  const auto after = ComputeShapleyExact(d).value();
  double sum = 0.0;
  for (const auto& [f, val] : after) sum += val;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_TRUE(after.count(100));
  EXPECT_GT(after.at(100), 0.0);
  (void)before;
}

TEST_P(ShapleyAxiomsTest, CnfProxyAgreesOnTopFactOfReadOnce) {
  // On read-once (hub) provenance the CNF proxy must at least find the same
  // top fact as the exact engine.
  Rng rng(GetParam() * 17 + 29);
  std::vector<Clause> clauses;
  FactId next = 10;
  const size_t groups = 2 + rng.NextBounded(3);
  for (FactId g = 0; g < groups; ++g) {
    const size_t members = 1 + rng.NextBounded(3);
    for (size_t m = 0; m < members; ++m) {
      clauses.push_back({0, g + 1, next++});
    }
  }
  const Dnf d(clauses);
  const auto exact = ComputeShapleyExact(d).value();
  const auto proxy = ComputeCnfProxy(d).value();
  EXPECT_EQ(RankByScore(exact)[0], RankByScore(proxy)[0]) << d.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapleyAxiomsTest,
                         ::testing::Range<uint64_t>(1, 26));

// ---- Kendall tau distance properties across universe sizes ----

class KendallPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KendallPropertyTest, BoundsSymmetryIdentity) {
  const size_t n = GetParam();
  Rng rng(n * 7 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.NextDouble();
      b[i] = rng.NextBool(0.3) ? a[i] : rng.NextDouble();  // inject ties
    }
    const double d_ab = KendallTauDistance(a, b);
    EXPECT_GE(d_ab, 0.0);
    EXPECT_LE(d_ab, 1.0);
    EXPECT_DOUBLE_EQ(d_ab, KendallTauDistance(b, a));
    EXPECT_DOUBLE_EQ(KendallTauDistance(a, a), 0.0);
  }
}

TEST_P(KendallPropertyTest, ReversalIsMaximalForDistinctScores) {
  const size_t n = GetParam();
  if (n < 2) return;
  std::vector<double> up(n);
  std::vector<double> down(n);
  for (size_t i = 0; i < n; ++i) {
    up[i] = static_cast<double>(i);
    down[i] = static_cast<double>(n - i);
  }
  EXPECT_DOUBLE_EQ(KendallTauDistance(up, down), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KendallPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 40));

// ---- Hungarian optimality across sizes (vs exhaustive search) ----

class HungarianPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HungarianPropertyTest, MatchesExhaustiveOptimum) {
  const size_t n = GetParam();
  Rng rng(n * 13 + 5);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::vector<double>> w(n, std::vector<double>(n));
    for (auto& row : w) {
      for (auto& v : row) v = rng.NextDouble();
    }
    const auto match = MaxWeightMatching(w);
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    double best = 0.0;
    do {
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) total += w[i][perm[i]];
      best = std::max(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(MatchingWeight(w, match), best, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HungarianPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7));

// ---- Ranking metrics across lineage sizes ----

class RankingMetricsPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RankingMetricsPropertyTest, GoldRankingIsOptimal) {
  const size_t n = GetParam();
  Rng rng(n * 3 + 11);
  for (int trial = 0; trial < 10; ++trial) {
    ShapleyValues gold;
    for (size_t i = 0; i < n; ++i) {
      gold[static_cast<FactId>(i)] = rng.NextDouble();
    }
    const auto ideal = RankByScore(gold);
    EXPECT_DOUBLE_EQ(NdcgAtK(ideal, gold, 10), 1.0);
    EXPECT_DOUBLE_EQ(PrecisionAtK(ideal, gold, 1), 1.0);
    EXPECT_DOUBLE_EQ(PrecisionAtK(ideal, gold, 5), 1.0);

    // Any permutation scores within [0, 1] and no higher than the ideal.
    std::vector<FactId> shuffled = ideal;
    rng.Shuffle(shuffled);
    const double ndcg = NdcgAtK(shuffled, gold, 10);
    EXPECT_GE(ndcg, 0.0);
    EXPECT_LE(ndcg, 1.0 + 1e-12);
    for (size_t k : {1u, 3u, 5u}) {
      const double p = PrecisionAtK(shuffled, gold, k);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RankingMetricsPropertyTest,
                         ::testing::Values(1, 2, 4, 8, 16, 40, 100));

}  // namespace
}  // namespace lshap
