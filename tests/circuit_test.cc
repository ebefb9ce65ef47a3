// Direct tests of the counting-circuit machinery: node construction,
// disjoint-OR counting, the CountingSession fast path, the compiler's
// component decomposition (including its ablation switch), and the
// per-thread binomial rows, which tools/check.sh also runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "provenance/bool_expr.h"
#include "provenance/circuit.h"
#include "provenance/compiler.h"

namespace lshap {
namespace {

NodeId Leaf(Circuit& c, FactId v) {
  return c.AddDecision(v, c.TrueNode(), c.FalseNode());
}

TEST(CircuitTest, SingleVariableCounts) {
  Circuit c;
  const NodeId x = Leaf(c, 7);
  const CountVec counts = c.CountsBySize(x);
  // Over {7}: size-0 assignments satisfying = 0, size-1 = 1.
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[0]), 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[1]), 1.0);
}

TEST(CircuitTest, AndCountsConvolve) {
  Circuit c;
  const NodeId both = c.AddAnd({Leaf(c, 1), Leaf(c, 2)});
  const CountVec counts = c.CountsBySize(both);
  // Only {1,2} satisfies: one assignment of size 2.
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[0]), 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[1]), 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[2]), 1.0);
}

TEST(CircuitTest, DisjointOrCountsViaComplement) {
  Circuit c;
  const NodeId either = c.AddOr({Leaf(c, 1), Leaf(c, 2)});
  const CountVec counts = c.CountsBySize(either);
  // x1 ∨ x2 over {1,2}: sizes 0,1,2 → 0, 2, 1 satisfying assignments.
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[0]), 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[1]), 2.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(counts[2]), 1.0);
}

TEST(CircuitTest, ForcedVariableOnOrNode) {
  Circuit c;
  const NodeId either = c.AddOr({Leaf(c, 1), Leaf(c, 2)});
  // Force x1 = true: remaining domain {2}, everything satisfies.
  CountVec forced_true = c.CountsBySize(either, 1, true);
  ASSERT_EQ(forced_true.size(), 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(forced_true[0]), 1.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(forced_true[1]), 1.0);
  // Force x1 = false: only {2} itself satisfies.
  CountVec forced_false = c.CountsBySize(either, 1, false);
  EXPECT_DOUBLE_EQ(static_cast<double>(forced_false[0]), 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(forced_false[1]), 1.0);
}

TEST(CountingSessionTest, SharedUnforcedCountsMatchFreshTraversal) {
  // Random structured DNF; session-based forced counts must equal the
  // from-scratch per-call counts for every variable.
  const Dnf d(std::vector<Clause>{{1, 2}, {2, 3}, {4, 5}, {6}});
  DnfCompiler compiler;
  auto circuit = compiler.Compile(d).value();
  CountingSession session(circuit.get());
  for (FactId f : d.Variables()) {
    for (bool value : {false, true}) {
      const CountVec via_session =
          session.Forced(circuit->root(), f, value);
      const CountVec fresh = circuit->CountsBySize(circuit->root(), f, value);
      ASSERT_EQ(via_session.size(), fresh.size());
      for (size_t k = 0; k < fresh.size(); ++k) {
        EXPECT_DOUBLE_EQ(static_cast<double>(via_session[k]),
                         static_cast<double>(fresh[k]));
      }
    }
  }
}

TEST(CompilerTest, ComponentDecompositionProducesSmallCircuits) {
  // Hub-structured provenance: one shared "actor" variable over 30
  // derivations grouped under 6 shared "company" variables. With
  // decomposition the circuit stays linear; without it Shannon expansion
  // blows up combinatorially.
  std::vector<Clause> clauses;
  FactId next = 100;
  for (FactId company = 0; company < 6; ++company) {
    for (int i = 0; i < 5; ++i) {
      clauses.push_back({99, company, next++, next++});
    }
  }
  const Dnf d(clauses);

  DnfCompiler with;
  auto c1 = with.Compile(d).value();
  CompilerOptions off;
  off.component_decomposition = false;
  DnfCompiler without(off);
  auto c2 = without.Compile(d).value();
  EXPECT_LT(with.last_num_nodes(), 300u);
  EXPECT_GT(without.last_num_nodes(), 5 * with.last_num_nodes());

  // Both must count identically.
  const auto vars = d.Variables();
  const CountVec a = ExtendCounts(c1->CountsBySize(c1->root()), vars.size());
  const CountVec b = ExtendCounts(c2->CountsBySize(c2->root()), vars.size());
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(static_cast<double>(a[k] / (b[k] == 0.0L ? 1.0L : b[k])),
                b[k] == 0.0L ? 0.0 : 1.0, 1e-10);
  }
}

TEST(CompilerTest, CacheHitsOnRepeatedSubformulas) {
  // Two identical independent components share the cached compilation.
  const Dnf d(std::vector<Clause>{{1, 2}, {1, 3}, {10, 20}, {10, 30}});
  DnfCompiler compiler;
  auto circuit = compiler.Compile(d).value();
  (void)circuit;
  EXPECT_GE(compiler.last_cache_hits(), 0u);  // smoke: stats exposed
}

// The bytes that hold a long double's value: x86's 80-bit format is padded
// to 16 bytes, and the padding is not part of the number.
constexpr size_t kLongDoubleBytes =
    std::numeric_limits<long double>::digits == 64 ? 10 : sizeof(long double);

bool SameBits(const CountVec& a, const CountVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], kLongDoubleBytes) != 0) return false;
  }
  return true;
}

// BinomialRow keeps one cache per thread. Four threads ask for rows in
// different orders, and every row must carry the bits of the recurrence run
// serially. A row held across a request for a much larger one must stay
// where it was, with its bits.
TEST(CircuitTest, BinomialRowIsTheSameOnEveryThread) {
  constexpr size_t kMax = 150;
  std::vector<CountVec> want(kMax + 1);
  for (size_t m = 0; m <= kMax; ++m) {
    want[m].assign(m + 1, 0.0L);
    want[m][0] = 1.0L;
    for (size_t k = 1; k <= m; ++k) {
      want[m][k] = want[m][k - 1] * static_cast<long double>(m - k + 1) /
                   static_cast<long double>(k);
    }
  }

  constexpr size_t kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<char> held_intact(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<size_t> order(kMax + 1);
      for (size_t i = 0; i <= kMax; ++i) order[i] = i;
      if (t == 1) std::reverse(order.begin(), order.end());
      if (t == 2) {
        for (size_t i = 0; i <= kMax; ++i) order[i] = i * 37 % (kMax + 1);
      }
      if (t == 3) {
        Rng rng(77);
        rng.Shuffle(order);
      }
      const CountVec& held = BinomialRow(order[0]);
      for (size_t m : order) {
        if (!SameBits(BinomialRow(m), want[m])) ++mismatches[t];
      }
      BinomialRow(8 * kMax);
      held_intact[t] = &held == &BinomialRow(order[0]) &&
                       SameBits(held, want[order[0]]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_TRUE(held_intact[t]) << "thread " << t;
  }
  for (size_t m = 0; m <= kMax; ++m) {
    EXPECT_TRUE(SameBits(BinomialRow(m), want[m])) << "m=" << m;
  }
}

TEST(CircuitTest, BinomialRowLargeValuesFinite) {
  const CountVec& row = BinomialRow(200);
  EXPECT_GT(static_cast<double>(row[100]), 1e50);
  EXPECT_TRUE(std::isfinite(static_cast<double>(row[100])));
  // Symmetry of the row.
  EXPECT_NEAR(static_cast<double>(row[40] / row[160]), 1.0, 1e-12);
}

}  // namespace
}  // namespace lshap
