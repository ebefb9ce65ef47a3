#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "provenance/bool_expr.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

// Brute-force Banzhaf: fraction of coalitions E ⊆ vars∖{f} where f is
// pivotal.
ShapleyValues BruteBanzhaf(const Dnf& d) {
  ShapleyValues out;
  const auto vars = d.Variables();
  const size_t n = vars.size();
  for (size_t i = 0; i < n; ++i) {
    long double pivotal = 0.0L;
    const size_t bit = size_t{1} << i;
    for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
      if (mask & bit) continue;
      std::vector<FactId> without;
      std::vector<FactId> with;
      for (size_t j = 0; j < n; ++j) {
        if (mask & (size_t{1} << j)) {
          without.push_back(vars[j]);
          with.push_back(vars[j]);
        }
      }
      with.push_back(vars[i]);
      std::sort(with.begin(), with.end());
      if (d.Evaluate(with) && !d.Evaluate(without)) pivotal += 1.0L;
    }
    out[vars[i]] = static_cast<double>(
        pivotal / std::pow(2.0L, static_cast<long double>(n - 1)));
  }
  return out;
}

TEST(BanzhafTest, SingleFact) {
  const Dnf d(std::vector<Clause>{{5}});
  const auto v = ComputeBanzhafExact(d).value();
  EXPECT_DOUBLE_EQ(v.at(5), 1.0);
}

TEST(BanzhafTest, ConjunctionAndDisjunction) {
  // x1 ∧ x2: each pivotal iff the other is present → 1/2.
  const auto conj = ComputeBanzhafExact(Dnf(std::vector<Clause>{{1, 2}})).value();
  EXPECT_DOUBLE_EQ(conj.at(1), 0.5);
  EXPECT_DOUBLE_EQ(conj.at(2), 0.5);
  // x1 ∨ x2: each pivotal iff the other is absent → 1/2.
  const auto disj = ComputeBanzhafExact(Dnf(std::vector<Clause>{{1}, {2}})).value();
  EXPECT_DOUBLE_EQ(disj.at(1), 0.5);
  EXPECT_DOUBLE_EQ(disj.at(2), 0.5);
}

TEST(BanzhafTest, UnlikeShapleyDoesNotSumToOne) {
  // 3-way disjunction: Banzhaf(x) = P(other two absent) = 1/4 each; the
  // total 3/4 ≠ 1 (Banzhaf is not efficient), while Shapley sums to 1.
  const Dnf d(std::vector<Clause>{{1}, {2}, {3}});
  const auto banzhaf = ComputeBanzhafExact(d).value();
  EXPECT_DOUBLE_EQ(banzhaf.at(1), 0.25);
  const auto shapley = ComputeShapleyExact(d).value();
  double sum_s = 0.0;
  for (const auto& [f, v] : shapley) sum_s += v;
  EXPECT_NEAR(sum_s, 1.0, 1e-12);
}

TEST(BanzhafTest, MatchesBruteForceOnRandomDnfs) {
  Rng rng(3030);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_vars = 2 + rng.NextBounded(9);
    std::vector<Clause> clauses;
    const size_t num_clauses = 1 + rng.NextBounded(5);
    for (size_t c = 0; c < num_clauses; ++c) {
      Clause clause;
      const size_t len = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < len; ++i) {
        clause.push_back(static_cast<FactId>(rng.NextBounded(num_vars)));
      }
      clauses.push_back(clause);
    }
    const Dnf d(std::move(clauses));
    const auto exact = ComputeBanzhafExact(d).value();
    const auto brute = BruteBanzhaf(d);
    ASSERT_EQ(exact.size(), brute.size());
    for (const auto& [f, v] : brute) {
      EXPECT_NEAR(exact.at(f), v, 1e-9) << "var " << f << " in "
                                        << d.ToString();
    }
  }
}

TEST(BanzhafTest, RankingUsuallyAgreesWithShapley) {
  // On hub-structured provenance the two indices share the top fact.
  const Dnf d(std::vector<Clause>{{0, 1, 10}, {0, 1, 11}, {0, 2, 12}});
  const auto shapley = ComputeShapleyExact(d).value();
  const auto banzhaf = ComputeBanzhafExact(d).value();
  EXPECT_EQ(RankByScore(shapley)[0], RankByScore(banzhaf)[0]);
}

}  // namespace
}  // namespace lshap
