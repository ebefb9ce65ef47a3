#include "provenance/bool_expr.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/strings.h"

namespace lshap {

Dnf::Dnf(std::vector<Clause> clauses) : clauses_(std::move(clauses)) {
  for (auto& c : clauses_) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  Normalize();
}

void Dnf::AddClause(Clause clause) {
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  clauses_.push_back(std::move(clause));
  Normalize();
}

void Dnf::Normalize() {
  std::sort(clauses_.begin(), clauses_.end());
  clauses_.erase(std::unique(clauses_.begin(), clauses_.end()),
                 clauses_.end());
}

void Dnf::Absorb() {
  // A clause is absorbed if some other clause is a subset of it.
  std::vector<Clause> kept;
  // Process shorter clauses first so subsets are kept before supersets.
  std::vector<const Clause*> by_len;
  by_len.reserve(clauses_.size());
  for (const auto& c : clauses_) by_len.push_back(&c);
  std::stable_sort(by_len.begin(), by_len.end(),
                   [](const Clause* a, const Clause* b) {
                     return a->size() < b->size();
                   });
  for (const Clause* c : by_len) {
    bool absorbed = false;
    for (const Clause& k : kept) {
      if (std::includes(c->begin(), c->end(), k.begin(), k.end())) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) kept.push_back(*c);
  }
  clauses_ = std::move(kept);
  Normalize();
}

std::vector<FactId> Dnf::Variables() const {
  std::set<FactId> vars;
  for (const auto& c : clauses_) vars.insert(c.begin(), c.end());
  return std::vector<FactId>(vars.begin(), vars.end());
}

bool Dnf::Evaluate(const std::vector<FactId>& present) const {
  for (const auto& c : clauses_) {
    if (std::includes(present.begin(), present.end(), c.begin(), c.end())) {
      return true;
    }
  }
  return false;
}

Dnf Dnf::Restrict(FactId var, bool value) const {
  std::vector<Clause> out;
  out.reserve(clauses_.size());
  for (const auto& c : clauses_) {
    auto it = std::lower_bound(c.begin(), c.end(), var);
    const bool contains = it != c.end() && *it == var;
    if (!contains) {
      out.push_back(c);
    } else if (value) {
      Clause reduced;
      reduced.reserve(c.size() - 1);
      reduced.insert(reduced.end(), c.begin(), it);
      reduced.insert(reduced.end(), it + 1, c.end());
      out.push_back(std::move(reduced));
    }
    // contains && !value: clause is falsified, drop it.
  }
  return Dnf(std::move(out));
}

std::string Dnf::CacheKey() const {
  std::string key;
  for (const auto& c : clauses_) {
    for (FactId f : c) {
      key += std::to_string(f);
      key += ',';
    }
    key += ';';
  }
  return key;
}

std::string Dnf::ToString() const {
  std::vector<std::string> clause_strs;
  clause_strs.reserve(clauses_.size());
  for (const auto& c : clauses_) {
    std::vector<std::string> vars;
    vars.reserve(c.size());
    for (FactId f : c) {
      vars.push_back(std::string("x").append(std::to_string(f)));
    }
    clause_strs.push_back(
        std::string("(").append(Join(vars, " & ")).append(")"));
  }
  return clause_strs.empty() ? "false" : Join(clause_strs, " | ");
}

std::vector<std::vector<size_t>> ClauseComponents(const Dnf& dnf) {
  const auto& clauses = dnf.clauses();
  const size_t n = clauses.size();
  // Union-find over clauses; clauses sharing a variable are merged.
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::unordered_map<FactId, size_t> var_first_clause;
  for (size_t i = 0; i < n; ++i) {
    for (FactId v : clauses[i]) {
      auto [it, inserted] = var_first_clause.emplace(v, i);
      if (!inserted) {
        parent[find(i)] = find(it->second);
      }
    }
  }
  std::unordered_map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) groups[find(i)].push_back(i);
  std::vector<std::vector<size_t>> out;
  out.reserve(groups.size());
  for (auto& [root, members] : groups) out.push_back(std::move(members));
  // Deterministic order: by smallest clause index.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return out;
}

}  // namespace lshap
