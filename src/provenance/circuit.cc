#include "provenance/circuit.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace lshap {

namespace {

// Merges sorted variable vectors.
std::vector<FactId> MergeVars(const std::vector<FactId>& a,
                              const std::vector<FactId>& b) {
  std::vector<FactId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool ContainsVar(const std::vector<FactId>& vars, FactId v) {
  return std::binary_search(vars.begin(), vars.end(), v);
}

}  // namespace

Circuit::Circuit() {
  nodes_.push_back({CircuitNode::Kind::kTrue, kInvalidFactId, kInvalidNode,
                    kInvalidNode, {}, {}});
  nodes_.push_back({CircuitNode::Kind::kFalse, kInvalidFactId, kInvalidNode,
                    kInvalidNode, {}, {}});
}

NodeId Circuit::AddDecision(FactId var, NodeId hi, NodeId lo) {
  CircuitNode n;
  n.kind = CircuitNode::Kind::kDecision;
  n.var = var;
  n.hi = hi;
  n.lo = lo;
  n.vars = MergeVars(nodes_[hi].vars, nodes_[lo].vars);
  LSHAP_CHECK(!ContainsVar(n.vars, var));
  n.vars.insert(std::lower_bound(n.vars.begin(), n.vars.end(), var), var);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Circuit::AddAnd(std::vector<NodeId> children) {
  LSHAP_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  CircuitNode n;
  n.kind = CircuitNode::Kind::kAnd;
  for (NodeId c : children) {
    std::vector<FactId> merged = MergeVars(n.vars, nodes_[c].vars);
    // Decomposability: children must have disjoint supports.
    LSHAP_CHECK_EQ(merged.size(), n.vars.size() + nodes_[c].vars.size());
    n.vars = std::move(merged);
  }
  n.children = std::move(children);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Circuit::AddOr(std::vector<NodeId> children) {
  LSHAP_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  CircuitNode n;
  n.kind = CircuitNode::Kind::kOr;
  for (NodeId c : children) {
    std::vector<FactId> merged = MergeVars(n.vars, nodes_[c].vars);
    // Disjoint OR: children must have disjoint supports.
    LSHAP_CHECK_EQ(merged.size(), n.vars.size() + nodes_[c].vars.size());
    n.vars = std::move(merged);
  }
  n.children = std::move(children);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

const CountVec& BinomialRow(size_t m) {
  // One cache per thread, indexed by m, so concurrent callers share no lock.
  // A deque keeps its elements in place as it grows, so a row stays valid
  // while its caller asks for a larger one.
  thread_local std::deque<CountVec> rows;
  if (m >= rows.size()) rows.resize(m + 1);
  CountVec& row = rows[m];
  if (row.empty()) {
    row.resize(m + 1);
    row[0] = 1.0L;
    for (size_t k = 1; k <= m; ++k) {
      row[k] = row[k - 1] * static_cast<long double>(m - k + 1) /
               static_cast<long double>(k);
    }
  }
  return row;
}

CountVec ExtendCounts(const CountVec& c, size_t to) {
  const size_t from = c.size() - 1;
  LSHAP_CHECK_LE(from, to);
  if (from == to) return c;
  const size_t extra = to - from;
  const CountVec& binom = BinomialRow(extra);
  CountVec out(to + 1, 0.0L);
  for (size_t j = 0; j < c.size(); ++j) {
    if (c[j] == 0.0L) continue;
    for (size_t e = 0; e <= extra; ++e) {
      out[j + e] += c[j] * binom[e];
    }
  }
  return out;
}

CountVec Circuit::CountsBySize(NodeId id, FactId forced,
                               bool forced_value) const {
  CountingSession session(this);
  return session.Forced(id, forced, forced_value);
}

CountVec Circuit::CountsBySize(NodeId id) const {
  CountingSession session(this);
  return session.Unforced(id);
}

CountingSession::CountingSession(const Circuit* circuit)
    : circuit_(circuit) {
  LSHAP_CHECK(circuit != nullptr);
}

const CountVec& CountingSession::Unforced(NodeId id) {
  return UnforcedImpl(id);
}

CountVec CountingSession::Forced(NodeId id, FactId forced,
                                 bool forced_value) {
  if (forced == kInvalidFactId) return UnforcedImpl(id);
  ForcedCtx ctx{forced, forced_value, {}};
  return ForcedImpl(id, ctx);
}

namespace {

// result ⊗= child, summing sizes.
void ConvolveInto(CountVec& result, const CountVec& child) {
  CountVec conv(result.size() + child.size() - 1, 0.0L);
  for (size_t i = 0; i < result.size(); ++i) {
    if (result[i] == 0.0L) continue;
    for (size_t j = 0; j < child.size(); ++j) {
      conv[i + j] += result[i] * child[j];
    }
  }
  result = std::move(conv);
}

// Complement over a domain of size (|c|-1): C(domain,k) − c[k].
CountVec ComplementCounts(const CountVec& sat) {
  const size_t domain = sat.size() - 1;
  const CountVec& totals = BinomialRow(domain);
  CountVec unsat(domain + 1);
  for (size_t k = 0; k <= domain; ++k) unsat[k] = totals[k] - sat[k];
  return unsat;
}

}  // namespace

const CountVec& CountingSession::UnforcedImpl(NodeId id) {
  auto memo_it = base_.find(id);
  if (memo_it != base_.end()) return memo_it->second;

  const CircuitNode& n = circuit_->node(id);
  const size_t domain = n.vars.size();
  CountVec result;
  switch (n.kind) {
    case CircuitNode::Kind::kTrue:
      result = CountVec{1.0L};
      break;
    case CircuitNode::Kind::kFalse:
      result = CountVec{0.0L};
      break;
    case CircuitNode::Kind::kDecision: {
      CountVec hi = ExtendCounts(UnforcedImpl(n.hi), domain - 1);
      CountVec lo = ExtendCounts(UnforcedImpl(n.lo), domain - 1);
      result.assign(domain + 1, 0.0L);
      for (size_t k = 0; k < hi.size(); ++k) result[k + 1] += hi[k];
      for (size_t k = 0; k < lo.size(); ++k) result[k] += lo[k];
      break;
    }
    case CircuitNode::Kind::kAnd: {
      result = CountVec{1.0L};
      for (NodeId c : n.children) ConvolveInto(result, UnforcedImpl(c));
      LSHAP_CHECK_EQ(result.size(), domain + 1);
      break;
    }
    case CircuitNode::Kind::kOr: {
      // Disjoint-support OR via complements: the assignments violating the
      // OR are exactly those violating every child, and children touch
      // disjoint variables, so the "unsatisfied" count vectors convolve.
      CountVec unsat{1.0L};
      for (NodeId c : n.children) {
        ConvolveInto(unsat, ComplementCounts(UnforcedImpl(c)));
      }
      LSHAP_CHECK_EQ(unsat.size(), domain + 1);
      result = ComplementCounts(unsat);
      break;
    }
  }
  return base_.emplace(id, std::move(result)).first->second;
}

CountVec CountingSession::ForcedImpl(NodeId id, ForcedCtx& ctx) {
  const CircuitNode& n = circuit_->node(id);
  // Subtrees not containing the forced variable count identically for every
  // fact: reuse the shared unforced memo. This is what makes the per-fact
  // Shapley loop cheap — only the spine of nodes containing the fact is
  // re-traversed.
  if (!std::binary_search(n.vars.begin(), n.vars.end(), ctx.forced)) {
    return UnforcedImpl(id);
  }
  auto memo_it = ctx.memo.find(id);
  if (memo_it != ctx.memo.end()) return memo_it->second;

  const size_t domain = n.vars.size() - 1;  // forced excluded
  CountVec result;
  switch (n.kind) {
    case CircuitNode::Kind::kTrue:
    case CircuitNode::Kind::kFalse:
      LSHAP_CHECK(false);  // leaves have empty supports
      break;
    case CircuitNode::Kind::kDecision: {
      if (n.var == ctx.forced) {
        const NodeId taken = ctx.forced_value ? n.hi : n.lo;
        result = ExtendCounts(ForcedImpl(taken, ctx), domain);
      } else {
        CountVec hi = ExtendCounts(ForcedImpl(n.hi, ctx), domain - 1);
        CountVec lo = ExtendCounts(ForcedImpl(n.lo, ctx), domain - 1);
        result.assign(domain + 1, 0.0L);
        for (size_t k = 0; k < hi.size(); ++k) result[k + 1] += hi[k];
        for (size_t k = 0; k < lo.size(); ++k) result[k] += lo[k];
      }
      break;
    }
    case CircuitNode::Kind::kAnd: {
      result = CountVec{1.0L};
      for (NodeId c : n.children) ConvolveInto(result, ForcedImpl(c, ctx));
      LSHAP_CHECK_EQ(result.size(), domain + 1);
      break;
    }
    case CircuitNode::Kind::kOr: {
      CountVec unsat{1.0L};
      for (NodeId c : n.children) {
        ConvolveInto(unsat, ComplementCounts(ForcedImpl(c, ctx)));
      }
      LSHAP_CHECK_EQ(unsat.size(), domain + 1);
      result = ComplementCounts(unsat);
      break;
    }
  }
  return ctx.memo.emplace(id, std::move(result)).first->second;
}

}  // namespace lshap
