#include "provenance/compiler.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace lshap {

struct DnfCompiler::Ctx {
  std::unordered_map<std::string, NodeId> cache;
  size_t cache_hits = 0;
  ExecutionBudget* budget = nullptr;
  Status error;
};

Result<std::unique_ptr<Circuit>> DnfCompiler::Compile(
    const Dnf& dnf, ExecutionBudget* budget) {
  auto circuit = std::make_unique<Circuit>();
  Ctx ctx;
  // An unlimited budget can never trip: skip its polls.
  if (budget != nullptr && !budget->unlimited()) ctx.budget = budget;
  Dnf normalized = dnf;
  normalized.Absorb();
  const NodeId root = CompileRec(normalized, *circuit, ctx);
  last_num_nodes_ = circuit->num_nodes();
  last_cache_hits_ = ctx.cache_hits;
  if (!ctx.error.ok()) return ctx.error;
  circuit->set_root(root);
  return circuit;
}

NodeId DnfCompiler::CompileRec(const Dnf& dnf, Circuit& circuit, Ctx& ctx) {
  // Budget poll at every expansion step; once tripped, the recursion
  // unwinds level by level returning kInvalidNode (the sticky error is
  // surfaced by Compile).
  if (ctx.budget != nullptr) {
    Status s = ctx.budget->Check(kSiteCompilerExpand);
    if (!s.ok()) {
      ctx.error = std::move(s);
      return kInvalidNode;
    }
  }

  // Terminal cases: empty DNF is false; an empty clause makes it true
  // (after absorption an empty clause implies it is the only clause).
  if (dnf.empty()) return circuit.FalseNode();
  if (dnf.clauses()[0].empty()) return circuit.TrueNode();

  const std::string key = dnf.CacheKey();
  auto it = ctx.cache.find(key);
  if (it != ctx.cache.end()) {
    ++ctx.cache_hits;
    return it->second;
  }

  NodeId result = kInvalidNode;

  // Charges one work unit per circuit node about to be created; a false
  // return means the budget tripped and the caller must unwind.
  auto charge_nodes = [&](uint64_t nodes) {
    if (ctx.budget == nullptr) return true;
    Status s = ctx.budget->Charge(nodes, kSiteCompilerExpand);
    if (!s.ok()) {
      ctx.error = std::move(s);
      return false;
    }
    return true;
  };

  // A DNF with one clause is a pure conjunction: an AND of single-variable
  // decisions.
  const auto& clauses = dnf.clauses();
  if (clauses.size() == 1) {
    if (!charge_nodes(clauses[0].size() + 1)) return kInvalidNode;
    std::vector<NodeId> children;
    children.reserve(clauses[0].size());
    for (FactId v : clauses[0]) {
      children.push_back(
          circuit.AddDecision(v, circuit.TrueNode(), circuit.FalseNode()));
    }
    result = circuit.AddAnd(std::move(children));
    ctx.cache.emplace(key, result);
    return result;
  }

  // Decomposition: if the clauses split into variable-disjoint components,
  // the formula is a disjoint OR of the per-component DNFs. This is the
  // step that keeps SPJU provenance (hierarchically structured in practice)
  // polynomial — without it Shannon expansion re-derives each combination
  // of component states.
  const std::vector<std::vector<size_t>> components =
      options_.component_decomposition ? ClauseComponents(dnf)
                                       : std::vector<std::vector<size_t>>{};
  if (components.size() > 1) {
    std::vector<NodeId> children;
    children.reserve(components.size());
    for (const auto& member_idxs : components) {
      std::vector<Clause> member_clauses;
      member_clauses.reserve(member_idxs.size());
      for (size_t i : member_idxs) member_clauses.push_back(clauses[i]);
      const NodeId child =
          CompileRec(Dnf(std::move(member_clauses)), circuit, ctx);
      if (!ctx.error.ok()) return kInvalidNode;
      children.push_back(child);
    }
    if (!charge_nodes(1)) return kInvalidNode;
    result = circuit.AddOr(std::move(children));
    ctx.cache.emplace(key, result);
    return result;
  }

  // Shannon expansion on the most frequent variable (heuristic: maximizes
  // simplification in both branches).
  std::unordered_map<FactId, size_t> freq;
  for (const auto& c : clauses) {
    for (FactId v : c) ++freq[v];
  }
  FactId best = clauses[0][0];
  size_t best_freq = 0;
  for (const auto& c : clauses) {
    for (FactId v : c) {
      const size_t f = freq[v];
      if (f > best_freq || (f == best_freq && v < best)) {
        best_freq = f;
        best = v;
      }
    }
  }

  Dnf hi = dnf.Restrict(best, true);
  hi.Absorb();
  Dnf lo = dnf.Restrict(best, false);
  lo.Absorb();
  const NodeId hi_node = CompileRec(hi, circuit, ctx);
  if (!ctx.error.ok()) return kInvalidNode;
  const NodeId lo_node = CompileRec(lo, circuit, ctx);
  if (!ctx.error.ok()) return kInvalidNode;
  if (!charge_nodes(1)) return kInvalidNode;
  result = circuit.AddDecision(best, hi_node, lo_node);
  ctx.cache.emplace(key, result);
  return result;
}

}  // namespace lshap
