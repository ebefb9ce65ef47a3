#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "provenance/bool_expr.h"
#include "provenance/circuit.h"
#include "provenance/compiler.h"
#include "provenance/tseytin.h"

namespace lshap {
namespace {

Dnf MakeDnf(std::vector<Clause> clauses) { return Dnf(std::move(clauses)); }

TEST(DnfTest, NormalizesClauses) {
  Dnf d({{3, 1, 2}, {2, 1, 3}});
  EXPECT_EQ(d.num_clauses(), 1u);  // duplicate after sorting
  EXPECT_EQ(d.clauses()[0], (Clause{1, 2, 3}));
}

TEST(DnfTest, VariablesSortedUnique) {
  Dnf d({{5, 2}, {2, 9}});
  EXPECT_EQ(d.Variables(), (std::vector<FactId>{2, 5, 9}));
}

TEST(DnfTest, Evaluate) {
  Dnf d({{1, 2}, {3}});
  EXPECT_TRUE(d.Evaluate({1, 2}));
  EXPECT_TRUE(d.Evaluate({3}));
  EXPECT_TRUE(d.Evaluate({1, 2, 3}));
  EXPECT_FALSE(d.Evaluate({1}));
  EXPECT_FALSE(d.Evaluate({}));
  EXPECT_FALSE(Dnf().Evaluate({1, 2, 3}));
}

TEST(DnfTest, RestrictTrueRemovesVar) {
  Dnf d({{1, 2}, {2, 3}});
  Dnf r = d.Restrict(2, true);
  EXPECT_EQ(r.num_clauses(), 2u);
  EXPECT_EQ(r.clauses()[0], (Clause{1}));
  EXPECT_EQ(r.clauses()[1], (Clause{3}));
}

TEST(DnfTest, RestrictFalseDropsClauses) {
  Dnf d({{1, 2}, {2, 3}, {4}});
  Dnf r = d.Restrict(2, false);
  EXPECT_EQ(r.num_clauses(), 1u);
  EXPECT_EQ(r.clauses()[0], (Clause{4}));
}

TEST(DnfTest, AbsorbRemovesSupersets) {
  Dnf d({{1}, {1, 2}, {3, 4}, {1, 3, 4}});
  d.Absorb();
  EXPECT_EQ(d.num_clauses(), 2u);
  EXPECT_EQ(d.clauses()[0], (Clause{1}));
  EXPECT_EQ(d.clauses()[1], (Clause{3, 4}));
}

TEST(DnfTest, ClauseComponentsSplitDisjointVars) {
  Dnf d({{1, 2}, {2, 3}, {7, 8}, {9}});
  const auto comps = ClauseComponents(d);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<size_t>{2}));
  EXPECT_EQ(comps[2], (std::vector<size_t>{3}));
}

// --- Circuit compilation: model counting must match brute-force. ---

// Total model count by brute force over the DNF's variables.
std::vector<long double> BruteCountsBySize(const Dnf& d) {
  const auto vars = d.Variables();
  const size_t n = vars.size();
  std::vector<long double> counts(n + 1, 0.0L);
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<FactId> present;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) present.push_back(vars[i]);
    }
    if (d.Evaluate(present)) {
      counts[static_cast<size_t>(__builtin_popcountll(mask))] += 1.0L;
    }
  }
  return counts;
}

void ExpectCountsMatch(const Dnf& d) {
  DnfCompiler compiler;
  auto circuit = compiler.Compile(d).value();
  const auto vars = d.Variables();
  CountVec got = ExtendCounts(circuit->CountsBySize(circuit->root()),
                              vars.size());
  const auto want = BruteCountsBySize(d);
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_NEAR(static_cast<double>(got[k]), static_cast<double>(want[k]),
                1e-6)
        << "size " << k << " of " << d.ToString();
  }
}

TEST(CompilerTest, SingleClause) { ExpectCountsMatch(MakeDnf({{1, 2, 3}})); }

TEST(CompilerTest, DisjointClauses) {
  ExpectCountsMatch(MakeDnf({{1, 2}, {3, 4}}));
}

TEST(CompilerTest, SharedVariableClauses) {
  ExpectCountsMatch(MakeDnf({{1, 2}, {1, 3}, {2, 3}}));
}

TEST(CompilerTest, PaperExampleProvenance) {
  // Example 2.1: (a1 m1 c1 r1) ∨ (a1 m2 c1 r2) ∨ (a1 m3 c2 r3) with the
  // variables renamed 0..8.
  ExpectCountsMatch(MakeDnf({{0, 1, 2, 3}, {0, 4, 2, 5}, {0, 6, 7, 8}}));
}

TEST(CompilerTest, RandomMonotoneDnfs) {
  Rng rng(404);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_vars = 2 + rng.NextBounded(9);   // ≤ 10 vars
    const size_t num_clauses = 1 + rng.NextBounded(6);
    std::vector<Clause> clauses;
    for (size_t c = 0; c < num_clauses; ++c) {
      Clause clause;
      const size_t len = 1 + rng.NextBounded(std::min<size_t>(4, num_vars));
      for (size_t i = 0; i < len; ++i) {
        clause.push_back(static_cast<FactId>(rng.NextBounded(num_vars)));
      }
      clauses.push_back(clause);
    }
    ExpectCountsMatch(MakeDnf(clauses));
  }
}

TEST(CompilerTest, ForcedVariableCounts) {
  // Counts with x forced must equal brute-force counts of the restriction.
  const Dnf d = MakeDnf({{1, 2}, {2, 3}, {4}});
  DnfCompiler compiler;
  auto circuit = compiler.Compile(d).value();
  const auto vars = d.Variables();  // {1,2,3,4}
  for (FactId forced : vars) {
    for (bool value : {false, true}) {
      CountVec got = ExtendCounts(
          circuit->CountsBySize(circuit->root(), forced, value),
          vars.size() - 1);
      // Brute force over remaining vars.
      std::vector<FactId> rest;
      for (FactId v : vars) {
        if (v != forced) rest.push_back(v);
      }
      std::vector<long double> want(rest.size() + 1, 0.0L);
      for (size_t mask = 0; mask < (size_t{1} << rest.size()); ++mask) {
        std::vector<FactId> present;
        for (size_t i = 0; i < rest.size(); ++i) {
          if (mask & (size_t{1} << i)) present.push_back(rest[i]);
        }
        if (value) {
          present.insert(
              std::lower_bound(present.begin(), present.end(), forced),
              forced);
        }
        if (d.Evaluate(present)) {
          want[static_cast<size_t>(__builtin_popcountll(mask))] += 1.0L;
        }
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_NEAR(static_cast<double>(got[k]), static_cast<double>(want[k]),
                    1e-6);
      }
    }
  }
}

TEST(CircuitTest, BinomialRow) {
  const CountVec& row = BinomialRow(5);
  ASSERT_EQ(row.size(), 6u);
  EXPECT_DOUBLE_EQ(static_cast<double>(row[0]), 1.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(row[2]), 10.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(row[5]), 1.0);
}

TEST(CircuitTest, ExtendCountsAddsFreeVariables) {
  // One satisfied assignment of zero true vars, extended by 3 free vars.
  CountVec c{1.0L};
  CountVec e = ExtendCounts(c, 3);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_DOUBLE_EQ(static_cast<double>(e[0]), 1.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(e[1]), 3.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(e[2]), 3.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(e[3]), 1.0);
}

// --- Tseytin ---

TEST(TseytinTest, EquisatisfiableUnderFunctionalExtension) {
  const Dnf d = MakeDnf({{0, 1}, {1, 2}});
  const CnfFormula cnf = TseytinFromDnf(d);
  EXPECT_EQ(cnf.num_original, 3u);
  EXPECT_EQ(cnf.num_variables, 5u);  // 3 originals + 2 clause auxiliaries
  // For every assignment of the originals, setting each auxiliary to its
  // defining clause's truth value must make CNF == DNF.
  const auto vars = d.Variables();
  for (size_t mask = 0; mask < 8; ++mask) {
    std::vector<bool> assignment(cnf.num_variables, false);
    std::vector<FactId> present;
    for (size_t i = 0; i < 3; ++i) {
      const bool on = (mask >> i) & 1;
      assignment[i] = on;
      if (on) present.push_back(vars[i]);
    }
    for (size_t c = 0; c < d.num_clauses(); ++c) {
      bool sat = true;
      for (FactId f : d.clauses()[c]) {
        if (!std::binary_search(present.begin(), present.end(), f)) {
          sat = false;
          break;
        }
      }
      assignment[cnf.num_original + c] = sat;
    }
    EXPECT_EQ(cnf.Evaluate(assignment), d.Evaluate(present));
  }
}

}  // namespace
}  // namespace lshap
