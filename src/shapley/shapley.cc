#include "shapley/shapley.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <utility>

#include "common/strings.h"
#include "provenance/circuit.h"
#include "provenance/compiler.h"
#include "provenance/tseytin.h"

namespace lshap {

namespace {

// Shapley coalition weight for coalition size k out of n players:
// k!(n-k-1)!/n! = 1 / (n * C(n-1, k)).
long double ShapleyWeight(size_t n, size_t k) {
  const CountVec& row = BinomialRow(n - 1);
  return 1.0L / (static_cast<long double>(n) * row[k]);
}

// Charges `units` against `budget` at `site`, or only polls it when `units`
// is 0. No budget, or an unlimited one, never trips and is left untouched.
Status Spend(ExecutionBudget* budget, uint64_t units, const char* site) {
  if (budget == nullptr || budget->unlimited()) return Status::Ok();
  return units == 0 ? budget->Check(site) : budget->Charge(units, site);
}

// Compiles `provenance` and counts, for each fact f of its `lineage`, the
// subsets E of lineage∖{f} of each size that satisfy Φ with f forced true
// (c1) and false (c0); f's value is `fold(c1, c0)`. Exact Shapley and exact
// Banzhaf differ only in that fold. Polls `budget` at `site` once per fact.
template <typename Fold>
Result<ShapleyValues> CountPerFact(const Dnf& provenance,
                                   const std::vector<FactId>& lineage,
                                   ExecutionBudget* budget, const char* site,
                                   Fold fold) {
  ShapleyValues out;
  const size_t n = lineage.size();
  if (n == 0) return out;

  DnfCompiler compiler;
  Result<std::unique_ptr<Circuit>> circuit =
      compiler.Compile(provenance, budget);
  if (!circuit.ok()) return circuit.status();
  const NodeId root = (*circuit)->root();
  CountingSession session(circuit->get());

  for (FactId f : lineage) {
    // Each per-fact pass re-traverses at most the whole circuit, which is
    // within the node budget already charged — so a poll per fact bounds
    // the counting phase at circuit-size granularity.
    Status status = Spend(budget, 0, site);
    if (!status.ok()) return status;
    // The circuit support may be smaller than the lineage (absorbed-clause
    // variables are null players); extension adds the missing variables as
    // free.
    const CountVec c1 = ExtendCounts(session.Forced(root, f, true), n - 1);
    const CountVec c0 = ExtendCounts(session.Forced(root, f, false), n - 1);
    out[f] = fold(c1, c0);
  }
  return out;
}

// Draws `walks` random orders of `lineage` and, in each, adds facts one by
// one until Φ holds, calling `on_pivot(f)` for the fact that made it hold.
// Charges one unit per walk at `site`.
template <typename OnPivot>
Status PermutationWalks(const Dnf& provenance,
                        const std::vector<FactId>& lineage, size_t walks,
                        Rng& rng, ExecutionBudget* budget, const char* site,
                        OnPivot on_pivot) {
  std::vector<FactId> order = lineage;
  std::vector<FactId> present;
  present.reserve(lineage.size());
  for (size_t s = 0; s < walks; ++s) {
    Status status = Spend(budget, 1, site);
    if (!status.ok()) return status;
    rng.Shuffle(order);
    present.clear();
    // An empty clause satisfies Φ before any fact arrives: no pivot.
    if (provenance.Evaluate(present)) continue;
    for (FactId f : order) {
      present.insert(std::upper_bound(present.begin(), present.end(), f), f);
      // Monotone: once satisfied, later players are never pivotal in this
      // permutation.
      if (provenance.Evaluate(present)) {
        on_pivot(f);
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ShapleyValues> ComputeShapleyExact(const Dnf& provenance,
                                          ExecutionBudget* budget) {
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  const auto shapley = [n](const CountVec& c1, const CountVec& c0) {
    long double value = 0.0L;
    for (size_t k = 0; k < n; ++k) {
      const long double pivotal = c1[k] - c0[k];
      if (pivotal != 0.0L) value += ShapleyWeight(n, k) * pivotal;
    }
    return static_cast<double>(value);
  };
  return CountPerFact(provenance, lineage, budget, kSiteShapleyCount, shapley);
}

Result<ShapleyValues> ComputeBanzhafExact(const Dnf& provenance,
                                          ExecutionBudget* budget) {
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  // Banzhaf(f) = (#E with Φ[f=1] − #E with Φ[f=0]) / 2^(n-1): total model
  // counts, uniformly weighted over coalition sizes.
  const long double denom =
      std::pow(2.0L, static_cast<long double>(n) - 1.0L);
  const auto banzhaf = [n, denom](const CountVec& c1, const CountVec& c0) {
    long double pivotal = 0.0L;
    for (size_t k = 0; k < n; ++k) pivotal += c1[k] - c0[k];
    return static_cast<double>(pivotal / denom);
  };
  return CountPerFact(provenance, lineage, budget, kSiteBanzhafCount, banzhaf);
}

Result<ShapleyValues> ComputeShapleyBrute(const Dnf& provenance) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  if (n == 0) return out;
  if (n > 25) {
    return Status::InvalidArgument(
        StrFormat("brute-force Shapley refused: %zu variables (max 25)", n));
  }

  // Evaluate Φ for every subset mask once.
  const size_t num_masks = size_t{1} << n;
  std::vector<bool> sat(num_masks);
  std::vector<FactId> present;
  present.reserve(n);
  for (size_t mask = 0; mask < num_masks; ++mask) {
    present.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) present.push_back(lineage[i]);
    }
    sat[mask] = provenance.Evaluate(present);
  }

  for (size_t i = 0; i < n; ++i) {
    const size_t bit = size_t{1} << i;
    long double value = 0.0L;
    for (size_t mask = 0; mask < num_masks; ++mask) {
      if (mask & bit) continue;  // E must exclude f
      const int delta = static_cast<int>(sat[mask | bit]) -
                        static_cast<int>(sat[mask]);
      if (delta == 0) continue;
      const size_t k = static_cast<size_t>(__builtin_popcountll(mask));
      value += ShapleyWeight(n, k) * delta;
    }
    out[lineage[i]] = static_cast<double>(value);
  }
  return out;
}

Result<ShapleyValues> ComputeShapleyMonteCarlo(const Dnf& provenance,
                                               size_t num_samples, Rng& rng,
                                               ExecutionBudget* budget) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  if (lineage.empty()) return out;
  for (FactId f : lineage) out[f] = 0.0;
  Status status = PermutationWalks(provenance, lineage, num_samples, rng,
                                   budget, kSiteShapleyMcSample,
                                   [&out](FactId f) { out[f] += 1.0; });
  if (!status.ok()) return status;
  for (auto& [f, v] : out) v /= static_cast<double>(num_samples);
  return out;
}

Result<ShapleyValues> ComputeShapleyStratified(
    const Dnf& provenance, const std::vector<uint32_t>& strata,
    size_t num_samples, Rng& rng, const StratifiedMcOptions& options,
    ExecutionBudget* budget) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  const size_t n = lineage.size();
  if (strata.size() != n) {
    return Status::InvalidArgument(
        StrFormat("stratified Shapley: %zu strata for %zu lineage facts",
                  strata.size(), n));
  }
  if (n == 0) return out;
  if (num_samples == 0) {
    return Status::InvalidArgument(
        "stratified Shapley requires num_samples >= 1");
  }
  for (FactId f : lineage) out[f] = 0.0;

  // Group lineage positions by stratum, iterated in ascending stratum id so
  // the allocation (and therefore every subsequent rng draw) is
  // deterministic regardless of how the caller discovered the strata.
  std::map<uint32_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) groups[strata[i]].push_back(i);

  // Pilot pass: plain permutation walks whose per-fact pivot counts feed the
  // per-stratum variance proxy. Used for allocation only — pilot pivots are
  // not folded into the estimate, keeping it a pure position-stratified
  // marginal-sample average.
  size_t pilot = options.pilot_permutations;
  if (groups.size() < 2 || num_samples < 2 * pilot) pilot = 0;
  std::vector<double> pivot_rate;
  if (pilot > 0) {
    std::vector<size_t> pivots(n, 0);
    Status status = PermutationWalks(
        provenance, lineage, pilot, rng, budget, kSiteShapleyStratPilot,
        [&](FactId f) {
          ++pivots[static_cast<size_t>(
              std::lower_bound(lineage.begin(), lineage.end(), f) -
              lineage.begin())];
        });
    if (!status.ok()) return status;
    // Smoothed pivot-rate estimate: strata that never pivoted in the pilot
    // keep a small floor so they are never starved to the 1-sample minimum
    // on pilot noise alone.
    pivot_rate.resize(n);
    for (size_t i = 0; i < n; ++i) {
      pivot_rate[i] = (static_cast<double>(pivots[i]) + 0.5) /
                      (static_cast<double>(pilot) + 1.0);
    }
  }

  // Per-fact sample allocation. The pool is n * num_samples marginal
  // samples; every fact is guaranteed one, and the surplus is split across
  // strata by Neyman weight w_r = sqrt(N_r * V_r) (proportional-to-size
  // when the pilot was skipped) with deterministic largest-remainder
  // rounding, then spread evenly inside each stratum (remainder to the
  // earliest lineage positions). Sums to the pool exactly.
  std::vector<size_t> alloc(n, num_samples);
  if (pilot > 0) {
    const size_t surplus = n * num_samples - n;
    std::vector<double> weight;
    double total_weight = 0.0;
    weight.reserve(groups.size());
    for (const auto& [sid, members] : groups) {
      double variance = 0.0;
      for (size_t i : members) {
        variance += pivot_rate[i] * (1.0 - pivot_rate[i]);
      }
      const double w =
          std::sqrt(static_cast<double>(members.size()) * variance);
      weight.push_back(w);
      total_weight += w;
    }
    size_t g = 0;
    size_t assigned = 0;
    std::vector<std::pair<double, size_t>> remainders;  // (frac, group idx)
    std::vector<size_t> group_share(groups.size(), 0);
    for (const auto& [sid, members] : groups) {
      const double share = total_weight > 0.0
                               ? static_cast<double>(surplus) * weight[g] /
                                     total_weight
                               : static_cast<double>(surplus) *
                                     static_cast<double>(members.size()) /
                                     static_cast<double>(n);
      const size_t whole = static_cast<size_t>(share);
      group_share[g] = whole;
      assigned += whole;
      remainders.emplace_back(share - static_cast<double>(whole), g);
      ++g;
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (size_t leftover = surplus - assigned, r = 0; leftover > 0;
         --leftover, ++r) {
      ++group_share[remainders[r % remainders.size()].second];
    }
    g = 0;
    for (const auto& [sid, members] : groups) {
      const size_t base = group_share[g] / members.size();
      const size_t extra = group_share[g] % members.size();
      for (size_t j = 0; j < members.size(); ++j) {
        alloc[members[j]] = 1 + base + (j < extra ? 1 : 0);
      }
      ++g;
    }
  }

  // Main pass: per-fact marginal samples, coalition sizes stratified over
  // contiguous position bins (with m_f >= n every size is hit; below n the
  // bins tile [0, n) so the size axis is still covered systematically).
  std::vector<FactId> others(n > 0 ? n - 1 : 0);
  std::vector<FactId> coalition;
  coalition.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    others.clear();
    for (size_t j = 0; j < n; ++j) {
      if (j != i) others.push_back(lineage[j]);
    }
    const size_t mi = alloc[i];
    const size_t bins = std::min(n, mi);
    const size_t per_bin = mi / bins;
    const size_t extra = mi % bins;
    long double phi = 0.0L;
    for (size_t b = 0; b < bins; ++b) {
      const size_t lo = b * n / bins;
      const size_t hi = (b + 1) * n / bins;
      const size_t width = hi - lo;
      const size_t mb = per_bin + (b < extra ? 1 : 0);
      size_t hits = 0;
      for (size_t t = 0; t < mb; ++t) {
        Status status = Spend(budget, 1, kSiteShapleyStratSample);
        if (!status.ok()) return status;
        const size_t k =
            lo + (width > 1 ? rng.NextBounded(width) : 0);
        // Uniform k-subset of lineage \ {f} by partial Fisher-Yates; the
        // scratch stays permuted across samples, which preserves
        // uniformity.
        for (size_t j = 0; j < k; ++j) {
          const size_t swap_with =
              j + static_cast<size_t>(rng.NextBounded(others.size() - j));
          std::swap(others[j], others[swap_with]);
        }
        coalition.assign(others.begin(),
                         others.begin() + static_cast<ptrdiff_t>(k));
        std::sort(coalition.begin(), coalition.end());
        if (!provenance.Evaluate(coalition)) {
          coalition.insert(std::upper_bound(coalition.begin(),
                                            coalition.end(), lineage[i]),
                           lineage[i]);
          // Monotone, so Δ ∈ {0, 1} and Φ(S) true implies Φ(S∪{f}) true —
          // the second evaluation only matters when the first failed.
          if (provenance.Evaluate(coalition)) ++hits;
        }
      }
      phi += (static_cast<long double>(width) / static_cast<long double>(n)) *
             (static_cast<long double>(hits) / static_cast<long double>(mb));
    }
    out[lineage[i]] = static_cast<double>(phi);
  }
  return out;
}

Result<ShapleyValues> ComputeCnfProxy(const Dnf& provenance,
                                      ExecutionBudget* budget) {
  ShapleyValues out;
  const std::vector<FactId> lineage = provenance.Variables();
  if (lineage.empty()) return out;
  for (FactId f : lineage) out[f] = 0.0;

  const CnfFormula cnf = TseytinFromDnf(provenance);
  const size_t n = cnf.num_variables;

  // Shapley value, in the single-clause OR-game over universe size n, of a
  // positive/negative literal. For a clause with p positive and q negative
  // literals:
  //   positive lit x: pivotal coalitions E (excluding x) contain all q
  //     negated vars, none of the other p-1 positive vars; with m free vars
  //     the count at size k is C(m, k - q).
  //   negative lit x: pivotal (negatively) E contain the other q-1 negated
  //     vars, none of the p positive vars; contribution is negative.
  std::vector<double> scores(n, 0.0);
  for (const auto& clause : cnf.clauses) {
    Status status = Spend(budget, 0, kSiteCnfProxy);
    if (!status.ok()) return status;
    size_t p = 0;
    size_t q = 0;
    for (const auto& lit : clause) {
      if (lit.positive) {
        ++p;
      } else {
        ++q;
      }
    }
    const size_t m = n - p - q;  // vars not mentioned by the clause
    for (const auto& lit : clause) {
      const CountVec& free_row = BinomialRow(m);
      long double value = 0.0L;
      if (lit.positive) {
        // E = (all q negated) ∪ (j of m free), size k = q + j.
        for (size_t j = 0; j <= m; ++j) {
          const size_t k = q + j;
          value += ShapleyWeight(n, k) * free_row[j];
        }
        scores[lit.var] += static_cast<double>(value);
      } else {
        // E = (other q-1 negated) ∪ (j of m free), size k = q - 1 + j,
        // and adding x destroys satisfaction: negative contribution.
        for (size_t j = 0; j <= m; ++j) {
          const size_t k = q - 1 + j;
          value += ShapleyWeight(n, k) * free_row[j];
        }
        scores[lit.var] -= static_cast<double>(value);
      }
    }
  }
  for (size_t i = 0; i < cnf.num_original; ++i) {
    out[cnf.original_facts[i]] = scores[i];
  }
  return out;
}

std::vector<FactId> RankByScore(const ShapleyValues& scores) {
  std::vector<std::pair<FactId, double>> items(scores.begin(), scores.end());
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<FactId> out;
  out.reserve(items.size());
  for (const auto& [f, v] : items) out.push_back(f);
  return out;
}

}  // namespace lshap
