#include "eval/evaluator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "eval/join_index.h"

namespace lshap {

namespace {

// One partial join result: per joined table, the row index (position in the
// block's table order) and the accumulated derivation facts.
struct PartialRow {
  std::vector<uint32_t> row_indices;  // parallel to joined table order
  std::vector<FactId> facts;          // sorted
};

// The evaluator's metric handles, resolved once per Evaluate call (registry
// lookups take a mutex — never in a hot loop). Default-constructed = all
// no-op, the metrics-off path. Counts are per-scan / per-join-step /
// per-block, never per row, and are identical at every thread count because
// they are computed from the same deterministic sizes the merge discipline
// pins down.
struct EvalMetricSet {
  Counter queries, blocks, rows_scanned, sel_rank_path, sel_text_fallback,
      morsels, index_builds, cross_products, rows_probed, probe_batches,
      join_output_rows, output_tuples;
  Histogram query_seconds, index_occupancy;

  EvalMetricSet() = default;
  explicit EvalMetricSet(MetricsRegistry* r)
      : queries(CounterFor(r, "eval.queries")),
        blocks(CounterFor(r, "eval.blocks")),
        rows_scanned(CounterFor(r, "eval.rows_scanned")),
        sel_rank_path(CounterFor(r, "eval.sel_rank_path")),
        sel_text_fallback(CounterFor(r, "eval.sel_text_fallback")),
        morsels(CounterFor(r, "eval.morsels")),
        index_builds(CounterFor(r, "eval.join.index_builds")),
        cross_products(CounterFor(r, "eval.join.cross_products")),
        rows_probed(CounterFor(r, "eval.join.rows_probed")),
        probe_batches(CounterFor(r, "eval.join.probe_batches")),
        join_output_rows(CounterFor(r, "eval.join.output_rows")),
        output_tuples(CounterFor(r, "eval.output_tuples")),
        query_seconds(HistogramFor(r, "eval.query_seconds",
                                   ExponentialBuckets(1e-5, 4.0, 12))),
        index_occupancy(HistogramFor(
            r, "eval.join.index_occupancy",
            {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0})) {}
};

// How the scan/probe/project phases split their input rows into morsels.
// Each phase plans against its own input size, runs one body per contiguous
// row range, and merges per-morsel outputs in morsel order — which is the
// whole determinism story: concatenating range results in range order is
// exactly what one serial pass over the input produces, so the parallel
// result is byte-identical to the serial one at any thread count.
struct EvalContext {
  ThreadPool* pool = nullptr;
  size_t morsel_rows = 4096;
  size_t min_parallel_rows = 4096;
  bool use_string_ranks = true;
  MetricsRegistry* registry = nullptr;  // span parent for phase timers
  EvalMetricSet metrics;

  struct Plan {
    size_t count = 1;  // number of morsels
    size_t grain = 0;  // rows per morsel
  };

  Plan PlanMorsels(size_t n) const {
    const size_t grain = std::max<size_t>(1, morsel_rows);
    if (pool == nullptr || n < min_parallel_rows || n <= grain) {
      return {1, n};
    }
    return {(n + grain - 1) / grain, grain};
  }

  // Runs body(morsel, begin, end) over ranges covering [0, n): inline for a
  // single morsel, dispatched on the pool otherwise.
  void Run(size_t n, const Plan& plan,
           const std::function<void(size_t, size_t, size_t)>& body) const {
    metrics.morsels.Inc(plan.count);
    if (plan.count == 1) {
      body(0, 0, n);
      return;
    }
    ParallelForRanges(*pool, n, plan.grain, body);
  }
};

// a * b, saturating at size_t max instead of wrapping.
size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<size_t>::max() / b) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

// Cap on speculative vector reservations (rows). Estimates above this —
// e.g. the cross-product of an adversarial disconnected query, whose exact
// size can overflow size_t — fall back to geometric growth past the cap
// instead of attempting one huge up-front allocation.
constexpr size_t kMaxReserveRows = size_t{1} << 20;

struct BoundTable {
  std::string name;
  const Table* table = nullptr;
  std::vector<uint32_t> surviving_rows;  // rows passing local selections
};

// A selection compiled once per (block, table) against the columnar
// storage. The literal is resolved up front: numeric literals to a double,
// string-equality literals to their interned id (a literal absent from the
// pool can match no cell — or every cell, under kNe), and ordered/prefix
// string literals to a lexicographic rank interval when the pool's order
// sidecar is fresh (binary search once at compile time, integer compares
// per cell at scan time).
struct CompiledSel {
  enum class Kind {
    kNever,         // type mismatch / null literal / empty rank interval
    kAlways,        // kNe on an absent string / full rank interval
    kNumeric,       // double comparison (ints promote)
    kStringId,      // kEq/kNe by interned id
    kStringRank,    // kLt/kLe/kGt/kGe/kStartsWith as a rank interval
    kStringOrder,   // kLt/kLe/kGt/kGe by text (stale-sidecar fallback)
    kStringPrefix,  // kStartsWith by text (stale-sidecar fallback)
  };
  Kind kind = Kind::kNever;
  const ColumnData* col = nullptr;
  CompareOp op = CompareOp::kEq;
  double num = 0.0;                    // kNumeric
  StringId id = kInvalidStringId;      // kStringId
  const std::string* text = nullptr;   // kStringOrder / kStringPrefix
  const uint32_t* ranks = nullptr;     // kStringRank: id -> lex rank
  uint32_t rank_lo = 0;                // kStringRank: interval [lo, hi)
  uint32_t rank_hi = 0;
};

// Resolves an ordered/prefix string predicate to the half-open rank
// interval its matches occupy in the pool's lexicographic order. Matching
// rows are exactly those whose cell rank lands in [lo, hi).
std::pair<uint32_t, uint32_t> RankInterval(const StringPool& pool,
                                           CompareOp op,
                                           const std::string& text) {
  const uint32_t n = static_cast<uint32_t>(pool.size());
  switch (op) {
    case CompareOp::kLt:
      return {0, pool.RankLowerBound(text)};
    case CompareOp::kLe:
      return {0, pool.RankUpperBound(text)};
    case CompareOp::kGt:
      return {pool.RankUpperBound(text), n};
    case CompareOp::kGe:
      return {pool.RankLowerBound(text), n};
    case CompareOp::kStartsWith:
      return pool.PrefixRankRange(text);
    default:
      LSHAP_CHECK(false);
      return {0, 0};
  }
}

CompiledSel CompileSel(const Selection& sel, const ColumnData& col,
                       const StringPool& pool, bool use_ranks) {
  CompiledSel c;
  c.col = &col;
  c.op = sel.op;
  const Value& lit = sel.literal;
  // A NULL literal compares unknown to every cell (even another NULL), and
  // only true survives a selection — so the whole scan compiles to kNever.
  if (lit.is_null()) return c;
  const bool col_is_string = col.type() == ColumnType::kString;
  // Ordered and prefix predicates on a fresh pool compile to one rank
  // interval; degenerate intervals collapse to kNever/kAlways so the scan
  // loop never runs for them.
  const auto compile_rank = [&](CompiledSel& out) {
    const auto [lo, hi] = RankInterval(pool, sel.op, lit.AsString());
    if (lo >= hi) {
      out.kind = CompiledSel::Kind::kNever;
    } else if (lo == 0 && hi == pool.size()) {
      out.kind = CompiledSel::Kind::kAlways;
    } else {
      out.kind = CompiledSel::Kind::kStringRank;
      out.ranks = pool.ranks().data();
      out.rank_lo = lo;
      out.rank_hi = hi;
    }
  };
  const bool ranks_usable = use_ranks && pool.OrderIndexFresh();
  if (sel.op == CompareOp::kStartsWith) {
    if (!col_is_string || !lit.is_string()) return c;
    if (ranks_usable) {
      compile_rank(c);
    } else {
      c.kind = CompiledSel::Kind::kStringPrefix;
      c.text = &lit.AsString();
    }
    return c;
  }
  if (col_is_string != lit.is_string()) return c;  // mixed types never match
  if (!col_is_string) {
    c.kind = CompiledSel::Kind::kNumeric;
    c.num = lit.AsDouble();
    return c;
  }
  if (sel.op == CompareOp::kEq || sel.op == CompareOp::kNe) {
    c.id = pool.Find(lit.AsString());
    if (c.id == kInvalidStringId) {
      // The literal names a string no fact contains.
      c.kind = sel.op == CompareOp::kEq ? CompiledSel::Kind::kNever
                                        : CompiledSel::Kind::kAlways;
    } else {
      c.kind = CompiledSel::Kind::kStringId;
    }
    return c;
  }
  if (ranks_usable) {
    compile_rank(c);
    return c;
  }
  c.kind = CompiledSel::Kind::kStringOrder;
  c.text = &lit.AsString();
  return c;
}

bool CompareMatches(int cmp, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    case CompareOp::kStartsWith:
      return false;
  }
  return false;
}

// Runs `pred(row)` column-at-a-time: over all `n` rows when `rows` is empty
// and this is the first selection, otherwise compacting the survivor list.
// Large inputs scan in parallel morsels; per-morsel survivor lists are
// concatenated in morsel order, matching the serial scan's output exactly.
template <typename Pred>
void ScanRows(const EvalContext& ctx, size_t n, bool first,
              std::vector<uint32_t>& rows, Pred pred) {
  const size_t domain = first ? n : rows.size();
  ctx.metrics.rows_scanned.Inc(domain);
  const EvalContext::Plan plan = ctx.PlanMorsels(domain);
  if (plan.count == 1) {
    if (first) {
      rows.reserve(n);
      for (uint32_t r = 0; r < n; ++r) {
        if (pred(r)) rows.push_back(r);
      }
      return;
    }
    size_t kept = 0;
    for (uint32_t r : rows) {
      if (pred(r)) rows[kept++] = r;
    }
    rows.resize(kept);
    return;
  }
  std::vector<std::vector<uint32_t>> parts(plan.count);
  ctx.Run(domain, plan, [&](size_t m, size_t lo, size_t hi) {
    std::vector<uint32_t>& out = parts[m];
    if (first) {
      for (size_t r = lo; r < hi; ++r) {
        if (pred(static_cast<uint32_t>(r))) {
          out.push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      for (size_t i = lo; i < hi; ++i) {
        if (pred(rows[i])) out.push_back(rows[i]);
      }
    }
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> merged;
  merged.reserve(total);
  for (const auto& p : parts) merged.insert(merged.end(), p.begin(), p.end());
  rows = std::move(merged);
}

// ScanRows with three-valued null handling: a predicate on a NULL cell is
// unknown, and only true survives, so null rows never pass. The all-valid
// case (the overwhelmingly common one) dispatches to the exact pre-null flat
// loop — the has_nulls() test is once per scan, not per row. The validity
// test short-circuits BEFORE `pred` runs, which is load-bearing: predicates
// like the rank-interval scan dereference per-cell payloads (ranks[ids[r]])
// that are placeholder garbage on null rows.
template <typename Pred>
void ScanRowsNullable(const EvalContext& ctx, const ColumnData& col, size_t n,
                      bool first, std::vector<uint32_t>& rows, Pred pred) {
  if (!col.has_nulls()) {
    ScanRows(ctx, n, first, rows, pred);
    return;
  }
  ScanRows(ctx, n, first, rows,
           [&](uint32_t r) { return col.valid(r) && pred(r); });
}

template <typename T>
void NumericScan(const EvalContext& ctx, const ColumnData& col,
                 const std::vector<T>& data, CompareOp op, double lit,
                 bool first, std::vector<uint32_t>& rows) {
  switch (op) {
    case CompareOp::kEq:
      ScanRowsNullable(ctx, col, data.size(), first, rows,
               [&](uint32_t r) { return static_cast<double>(data[r]) == lit; });
      break;
    case CompareOp::kNe:
      ScanRowsNullable(ctx, col, data.size(), first, rows,
               [&](uint32_t r) { return static_cast<double>(data[r]) != lit; });
      break;
    case CompareOp::kLt:
      ScanRowsNullable(ctx, col, data.size(), first, rows,
               [&](uint32_t r) { return static_cast<double>(data[r]) < lit; });
      break;
    case CompareOp::kLe:
      ScanRowsNullable(ctx, col, data.size(), first, rows,
               [&](uint32_t r) { return static_cast<double>(data[r]) <= lit; });
      break;
    case CompareOp::kGt:
      ScanRowsNullable(ctx, col, data.size(), first, rows,
               [&](uint32_t r) { return static_cast<double>(data[r]) > lit; });
      break;
    case CompareOp::kGe:
      ScanRowsNullable(ctx, col, data.size(), first, rows,
               [&](uint32_t r) { return static_cast<double>(data[r]) >= lit; });
      break;
    case CompareOp::kStartsWith:
      rows.clear();
      break;
  }
}

// Applies one compiled selection; `first` means no selection has run yet
// (rows is still empty and implicitly "all").
void ApplySel(const EvalContext& ctx, const CompiledSel& sel,
              const StringPool& pool, bool first,
              std::vector<uint32_t>& rows) {
  const ColumnData& col = *sel.col;
  const size_t n = col.size();
  switch (sel.kind) {
    case CompiledSel::Kind::kNever:
      rows.clear();
      if (first) rows.shrink_to_fit();
      break;
    case CompiledSel::Kind::kAlways:
      // "Always" means "true for every possible cell VALUE" (kNe against an
      // absent string, a full rank interval) — a NULL cell still compares
      // unknown, so null rows must be filtered even here.
      if (col.has_nulls()) {
        ScanRows(ctx, n, first, rows,
                 [&](uint32_t r) { return col.valid(r); });
      } else if (first) {
        rows.resize(n);
        for (uint32_t r = 0; r < n; ++r) rows[r] = r;
      }
      break;
    case CompiledSel::Kind::kNumeric:
      if (col.type() == ColumnType::kInt) {
        NumericScan(ctx, col, col.ints(), sel.op, sel.num, first, rows);
      } else {
        NumericScan(ctx, col, col.doubles(), sel.op, sel.num, first, rows);
      }
      break;
    case CompiledSel::Kind::kStringId: {
      const auto& ids = col.string_ids();
      if (sel.op == CompareOp::kEq) {
        ScanRowsNullable(ctx, col, n, first, rows,
                 [&](uint32_t r) { return ids[r] == sel.id; });
      } else {
        ScanRowsNullable(ctx, col, n, first, rows,
                 [&](uint32_t r) { return ids[r] != sel.id; });
      }
      break;
    }
    case CompiledSel::Kind::kStringRank: {
      // One load + one unsigned compare per cell: rank in [lo, hi) iff
      // (rank - lo) < (hi - lo) with wraparound doing the lower-bound test.
      // Null rows must short-circuit before the ranks[ids[r]] load — the
      // placeholder id does not name a pooled string (ScanRowsNullable
      // guarantees the ordering).
      ctx.metrics.sel_rank_path.Inc();
      const auto& ids = col.string_ids();
      const uint32_t* ranks = sel.ranks;
      const uint32_t lo = sel.rank_lo;
      const uint32_t width = sel.rank_hi - sel.rank_lo;
      ScanRowsNullable(ctx, col, n, first, rows, [&](uint32_t r) {
        return static_cast<uint32_t>(ranks[ids[r]] - lo) < width;
      });
      break;
    }
    case CompiledSel::Kind::kStringOrder: {
      ctx.metrics.sel_text_fallback.Inc();
      const auto& ids = col.string_ids();
      ScanRowsNullable(ctx, col, n, first, rows, [&](uint32_t r) {
        return CompareMatches(pool.Get(ids[r]).compare(*sel.text), sel.op);
      });
      break;
    }
    case CompiledSel::Kind::kStringPrefix: {
      ctx.metrics.sel_text_fallback.Inc();
      const auto& ids = col.string_ids();
      ScanRowsNullable(ctx, col, n, first, rows, [&](uint32_t r) {
        return StartsWith(pool.Get(ids[r]), *sel.text);
      });
      break;
    }
  }
}

// Copies `pr` extended with new-table row `r` (and, when `table` is
// non-null, with the row's fact id spliced into the sorted fact set). The
// exact-size single-pass copies replace copy-then-push_back + sorted insert,
// which reallocated and shifted on the join hot path.
PartialRow ExtendRow(const PartialRow& pr, uint32_t r, const Table* table) {
  PartialRow np;
  np.row_indices.reserve(pr.row_indices.size() + 1);
  np.row_indices.insert(np.row_indices.end(), pr.row_indices.begin(),
                        pr.row_indices.end());
  np.row_indices.push_back(r);
  if (table != nullptr) {
    const FactId f = table->fact_id(r);
    const auto pos = std::upper_bound(pr.facts.begin(), pr.facts.end(), f);
    np.facts.reserve(pr.facts.size() + 1);
    np.facts.insert(np.facts.end(), pr.facts.begin(), pos);
    np.facts.push_back(f);
    np.facts.insert(np.facts.end(), pos, pr.facts.end());
  }
  return np;
}

// Moves per-morsel join outputs into `next` in morsel order — the
// concatenation equals one serial pass over the probe input.
void MergeJoinParts(std::vector<std::vector<PartialRow>>& parts,
                    std::vector<PartialRow>& next) {
  if (parts.size() == 1) {
    next = std::move(parts[0]);
    return;
  }
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  next.clear();
  next.reserve(total);
  for (auto& p : parts) {
    for (auto& pr : p) next.push_back(std::move(pr));
  }
}

}  // namespace

TriBool MatchesPredicate3(const Value& value, CompareOp op,
                          const Value& literal) {
  // SQL comparison semantics: NULL on either side makes the comparison
  // unknown, for every operator — notably kNe (NULL != x is NOT true).
  if (value.is_null() || literal.is_null()) return TriBool::kUnknown;
  if (op == CompareOp::kStartsWith) {
    if (!value.is_string() || !literal.is_string()) return TriBool::kFalse;
    return StartsWith(value.AsString(), literal.AsString()) ? TriBool::kTrue
                                                            : TriBool::kFalse;
  }
  int cmp;
  if (value.is_string() && literal.is_string()) {
    cmp = value.AsString().compare(literal.AsString());
  } else if (!value.is_string() && !literal.is_string()) {
    const double a = value.AsDouble();
    const double b = literal.AsDouble();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else {
    // A definite type mismatch between two non-null cells is definitely
    // false, not unknown — there is no missing information.
    return TriBool::kFalse;
  }
  return CompareMatches(cmp, op) ? TriBool::kTrue : TriBool::kFalse;
}

namespace {

Status EvaluateBlock(const Database& db, const SpjBlock& block,
                     ProvenanceCapture capture, const EvalContext& ctx,
                     EvalResult& result,
                     std::vector<std::vector<Clause>>& pending_clauses) {
  ctx.metrics.blocks.Inc();
  if (block.tables.empty()) {
    return Status::InvalidArgument("SPJ block with empty FROM clause");
  }
  {
    std::set<std::string> unique(block.tables.begin(), block.tables.end());
    if (unique.size() != block.tables.size()) {
      return Status::InvalidArgument(
          "repeated table in FROM clause (self-joins unsupported)");
    }
  }
  const StringPool& pool = db.string_pool();

  // Bind tables.
  std::vector<BoundTable> bound(block.tables.size());
  std::unordered_map<std::string, size_t> table_pos;
  for (size_t i = 0; i < block.tables.size(); ++i) {
    bound[i].name = block.tables[i];
    auto t = db.FindTable(block.tables[i]);
    if (!t.ok()) return t.status();
    bound[i].table = *t;
    table_pos[block.tables[i]] = i;
  }

  // Validate join and selection column references; compile selections per
  // table against their columns (interning lookups happen once, here).
  std::vector<std::vector<CompiledSel>> local_sels(block.tables.size());
  for (const auto& sel : block.selections) {
    auto pos = table_pos.find(sel.column.table);
    if (pos == table_pos.end()) {
      return Status::InvalidArgument("selection on unjoined table '" +
                                     sel.column.table + "'");
    }
    const Table& t = *bound[pos->second].table;
    auto col = t.schema().ColumnIndex(sel.column.column);
    if (!col.ok()) return col.status();
    local_sels[pos->second].push_back(
        CompileSel(sel, t.column(*col), pool, ctx.use_string_ranks));
  }
  for (const auto& join : block.joins) {
    for (const ColumnRef* ref : {&join.left, &join.right}) {
      auto pos = table_pos.find(ref->table);
      if (pos == table_pos.end()) {
        return Status::InvalidArgument("join on unjoined table '" +
                                       ref->table + "'");
      }
      auto col = bound[pos->second].table->schema().ColumnIndex(ref->column);
      if (!col.ok()) return col.status();
    }
  }
  for (const auto& proj : block.projections) {
    auto pos = table_pos.find(proj.table);
    if (pos == table_pos.end()) {
      return Status::InvalidArgument("projection on unjoined table '" +
                                     proj.table + "'");
    }
    auto col = bound[pos->second].table->schema().ColumnIndex(proj.column);
    if (!col.ok()) return col.status();
  }

  // Local selections, column-at-a-time.
  {
    ScopedSpan scan_span(ctx.registry, "eval.scan");
    for (size_t i = 0; i < bound.size(); ++i) {
      const Table* t = bound[i].table;
      std::vector<uint32_t>& rows = bound[i].surviving_rows;
      if (local_sels[i].empty()) {
        rows.resize(t->num_rows());
        for (uint32_t r = 0; r < t->num_rows(); ++r) rows[r] = r;
      } else {
        for (size_t s = 0; s < local_sels[i].size(); ++s) {
          ApplySel(ctx, local_sels[i][s], pool, /*first=*/s == 0, rows);
          if (rows.empty()) break;
        }
      }
      if (rows.empty()) return Status::Ok();  // empty result
    }
  }

  // Greedy join order: start from the block's first table, repeatedly add a
  // table connected to the current set (falling back to a cross product).
  std::vector<size_t> order;
  std::vector<bool> placed(bound.size(), false);
  order.push_back(0);
  placed[0] = true;
  auto connected = [&](size_t cand) {
    for (const auto& join : block.joins) {
      const size_t l = table_pos.at(join.left.table);
      const size_t r = table_pos.at(join.right.table);
      if ((l == cand && placed[r]) || (r == cand && placed[l])) return true;
    }
    return false;
  };
  while (order.size() < bound.size()) {
    size_t pick = bound.size();
    for (size_t i = 0; i < bound.size(); ++i) {
      if (!placed[i] && connected(i)) {
        pick = i;
        break;
      }
    }
    if (pick == bound.size()) {
      for (size_t i = 0; i < bound.size(); ++i) {
        if (!placed[i]) {
          pick = i;
          break;
        }
      }
    }
    placed[pick] = true;
    order.push_back(pick);
  }

  // Position of each table in the join order (for row_indices layout).
  std::vector<size_t> order_pos(bound.size());
  for (size_t i = 0; i < order.size(); ++i) order_pos[order[i]] = i;

  // Seed with the first table's surviving rows.
  const bool track_facts = capture != ProvenanceCapture::kNone;
  std::vector<PartialRow> current;
  {
    const BoundTable& bt = bound[order[0]];
    current.reserve(bt.surviving_rows.size());
    for (uint32_t r : bt.surviving_rows) {
      PartialRow pr;
      pr.row_indices = {r};
      if (track_facts) pr.facts = {bt.table->fact_id(r)};
      current.push_back(std::move(pr));
    }
  }

  // Join in the remaining tables one by one. The join span covers only this
  // loop, so eval.project below is its sibling rather than its child.
  {
    ScopedSpan join_span(ctx.registry, "eval.join");
    for (size_t step = 1; step < order.size(); ++step) {
      const size_t ti = order[step];
      const BoundTable& bt = bound[ti];

      // Join predicates between the new table and already-placed tables,
      // resolved to column slices. Columns of different types can never be
      // equal as Values, so one mismatched key part empties the whole block.
      // `*_nullable` caches MayHaveJoinNulls per side: false means no cell of
      // that column can be join-null (NULL, or NaN in a double column), so the
      // hot loops skip the per-row null tests entirely — the all-valid
      // int/string paths are byte-for-byte the pre-null loops.
      struct JoinKeyPart {
        size_t placed_order_pos;       // which earlier table
        const ColumnData* placed_col;  // its column slice
        const ColumnData* new_col;     // new table's column slice
        bool placed_nullable;          // placed_col->MayHaveJoinNulls()
        bool new_nullable;             // new_col->MayHaveJoinNulls()
      };
      std::vector<JoinKeyPart> key_parts;
      bool type_mismatch = false;
      for (const auto& join : block.joins) {
        const size_t l = table_pos.at(join.left.table);
        const size_t r = table_pos.at(join.right.table);
        size_t other;
        const ColumnRef* new_ref;
        const ColumnRef* old_ref;
        if (l == ti && order_pos[r] < step) {
          other = r;
          new_ref = &join.left;
          old_ref = &join.right;
        } else if (r == ti && order_pos[l] < step) {
          other = l;
          new_ref = &join.right;
          old_ref = &join.left;
        } else {
          continue;
        }
        const ColumnData& placed_col = bound[other].table->column(
            bound[other].table->schema().ColumnIndex(old_ref->column).value());
        const ColumnData& new_col = bt.table->column(
            bt.table->schema().ColumnIndex(new_ref->column).value());
        if (placed_col.type() != new_col.type()) {
          type_mismatch = true;
          break;
        }
        key_parts.push_back({order_pos[other], &placed_col, &new_col,
                             placed_col.MayHaveJoinNulls(),
                             new_col.MayHaveJoinNulls()});
      }
      if (type_mismatch) return Status::Ok();  // no pair can match

      std::vector<PartialRow> next;
      const Table* fact_table = track_facts ? bt.table : nullptr;
      const EvalContext::Plan plan = ctx.PlanMorsels(current.size());
      std::vector<std::vector<PartialRow>> parts(plan.count);
      ctx.metrics.rows_probed.Inc(current.size());
      if (key_parts.empty()) {
        ctx.metrics.cross_products.Inc();
        // Cross product (rare; disconnected query). The exact output size
        // current * surviving can overflow size_t, so reservations saturate
        // and cap; past the cap the vectors grow geometrically.
        ctx.Run(current.size(), plan, [&](size_t m, size_t lo, size_t hi) {
          std::vector<PartialRow>& out = parts[m];
          out.reserve(std::min(
              SaturatingMul(hi - lo, bt.surviving_rows.size()),
              kMaxReserveRows));
          for (size_t i = lo; i < hi; ++i) {
            for (uint32_t r : bt.surviving_rows) {
              out.push_back(ExtendRow(current[i], r, fact_table));
            }
          }
        });
      } else {
        // Index the new table on the first key part's column words in a flat
        // open-addressing table; verify the remaining parts by word equality.
        // Key words ARE the values (within one type), so probe hits need no
        // re-check against the first part. The probe loop runs per morsel of
        // `current`, in batches: gather the probe-side key words through the
        // batch accessor, prefetch every batch's bucket heads, then walk the
        // payload slices — by which point the buckets are in cache.
        constexpr size_t kProbeBatch = 64;
        // SQL join semantics: a join-null key cell (NULL, or NaN in a double
        // column — NaN != NaN under double equality, but identical NaN bit
        // patterns would compare equal as key words) matches nothing, not even
        // another null. Rows whose key is join-null in ANY part are dropped
        // from the build side before indexing; all-valid int/string builds
        // take the unfiltered pre-null path.
        const std::vector<uint32_t>* build_rows = &bt.surviving_rows;
        std::vector<uint32_t> nonnull_build;
        bool new_side_nullable = false;
        for (const auto& part : key_parts) {
          new_side_nullable = new_side_nullable || part.new_nullable;
        }
        if (new_side_nullable) {
          nonnull_build.reserve(bt.surviving_rows.size());
          for (uint32_t r : bt.surviving_rows) {
            bool join_null = false;
            for (const auto& part : key_parts) {
              if (part.new_nullable && part.new_col->JoinKeyIsNull(r)) {
                join_null = true;
                break;
              }
            }
            if (!join_null) nonnull_build.push_back(r);
          }
          build_rows = &nonnull_build;
        }
        FlatJoinIndex index;
        index.Build(*key_parts[0].new_col, *build_rows);
        ctx.metrics.index_builds.Inc();
        if (ctx.metrics.index_occupancy.enabled() && index.num_buckets() > 0) {
          ctx.metrics.index_occupancy.Observe(
              static_cast<double>(index.num_keys()) /
              static_cast<double>(index.num_buckets()));
        }
        // Probe batches are a deterministic function of the morsel plan:
        // each morsel walks its range in kProbeBatch-row gathers.
        {
          uint64_t batches = 0;
          for (size_t m = 0; m < plan.count; ++m) {
            const size_t lo = m * plan.grain;
            const size_t hi = std::min(current.size(), lo + plan.grain);
            batches += (hi - lo + kProbeBatch - 1) / kProbeBatch;
          }
          ctx.metrics.probe_batches.Inc(batches);
        }
        const ColumnData& probe_col = *key_parts[0].placed_col;
        const size_t probe_pos = key_parts[0].placed_order_pos;
        const bool probe_nullable = key_parts[0].placed_nullable;
        ctx.Run(current.size(), plan, [&](size_t m, size_t lo, size_t hi) {
          std::vector<PartialRow>& out = parts[m];
          uint32_t probe_rows[kProbeBatch];
          uint64_t keys[kProbeBatch];
          size_t start[kProbeBatch];
          for (size_t base = lo; base < hi; base += kProbeBatch) {
            const size_t bn = std::min(kProbeBatch, hi - base);
            for (size_t j = 0; j < bn; ++j) {
              probe_rows[j] = current[base + j].row_indices[probe_pos];
            }
            probe_col.KeyWords(probe_rows, bn, keys);
            for (size_t j = 0; j < bn; ++j) {
              start[j] = index.StartBucket(keys[j]);
              index.Prefetch(start[j]);
            }
            for (size_t j = 0; j < bn; ++j) {
              // A join-null probe key matches nothing: its gathered key word
              // is a placeholder (NULL) or a raw NaN pattern, either of which
              // could spuriously hit a real build key by word equality.
              if (probe_nullable && probe_col.JoinKeyIsNull(probe_rows[j])) {
                continue;
              }
              const FlatJoinIndex::Range range =
                  index.ProbeFrom(start[j], keys[j]);
              if (range.begin == range.end) continue;
              const PartialRow& pr = current[base + j];
              for (const uint32_t* p = range.begin; p != range.end; ++p) {
                const uint32_t r = *p;
                bool all_match = true;
                for (size_t kp = 1; kp < key_parts.size(); ++kp) {
                  const auto& part = key_parts[kp];
                  const uint32_t placed_row =
                      pr.row_indices[part.placed_order_pos];
                  // Secondary key parts verify by word equality, so the same
                  // join-null exclusion applies on the placed side (the build
                  // side was pre-filtered for every part).
                  if (part.placed_nullable &&
                      part.placed_col->JoinKeyIsNull(placed_row)) {
                    all_match = false;
                    break;
                  }
                  if (part.new_col->KeyWord(r) !=
                      part.placed_col->KeyWord(placed_row)) {
                    all_match = false;
                    break;
                  }
                }
                if (all_match) out.push_back(ExtendRow(pr, r, fact_table));
              }
            }
          }
        });
      }
      MergeJoinParts(parts, next);
      current = std::move(next);
      ctx.metrics.join_output_rows.Inc(current.size());
      if (current.empty()) return Status::Ok();
    }
  }

  // Resolve the projected column slices. The DISTINCT dedup key is the
  // fixed-width encoded tuple (one word per projected cell).
  struct ProjCol {
    size_t order_pos;
    const ColumnData* col;
  };
  std::vector<ProjCol> proj_cols;
  proj_cols.reserve(block.projections.size());
  for (const auto& proj : block.projections) {
    const size_t ti = table_pos.at(proj.table);
    proj_cols.push_back(
        {order_pos[ti],
         &bound[ti].table->column(
             bound[ti].table->schema().ColumnIndex(proj.column).value())});
  }

  // Project with DISTINCT in morsels over `current`. Each morsel dedups
  // its own row range into a morsel-local distinct state (encoded keys in
  // first-seen order, per-slot provenance); Values are NOT materialized
  // here — only once per block-distinct tuple, at merge time.
  //
  // When a projected column holds NULLs, a null cell's key word is its
  // placeholder (0 / 0.0 / id 0), which would collide with real zero cells
  // under DISTINCT. One extra null-mask word per encoded tuple (bit c set =
  // projected cell c is NULL) disambiguates; all-valid projections keep the
  // exact pre-null encoding. DISTINCT deliberately treats NULL as equal to
  // NULL (SQL's "not distinct" rule), which the mask preserves — two rows
  // null in the same cells encode identically.
  bool proj_has_nulls = false;
  for (const auto& pc : proj_cols) {
    proj_has_nulls = proj_has_nulls || pc.col->has_nulls();
  }
  if (proj_has_nulls) LSHAP_CHECK_LE(proj_cols.size(), size_t{64});
  const size_t enc_width = proj_cols.size() + (proj_has_nulls ? 1 : 0);
  struct ProjLocal {
    std::unordered_map<EncodedTuple, size_t, EncodedTupleHash> index;
    std::vector<EncodedTuple> keys;  // slot -> encoded tuple, first-seen order
    std::vector<size_t> first_row;   // slot -> first deriving row in current
    std::vector<std::vector<Clause>> clauses;    // kFull only
    std::vector<std::vector<FactId>> lineages;   // kLineageOnly only
  };
  ScopedSpan project_span(ctx.registry, "eval.project");
  const EvalContext::Plan proj_plan = ctx.PlanMorsels(current.size());
  std::vector<ProjLocal> proj_parts(proj_plan.count);
  ctx.Run(current.size(), proj_plan, [&](size_t m, size_t lo, size_t hi) {
    ProjLocal& loc = proj_parts[m];
    EncodedTuple scratch(enc_width);
    for (size_t i = lo; i < hi; ++i) {
      const PartialRow& pr = current[i];
      for (size_t c = 0; c < proj_cols.size(); ++c) {
        scratch[c] =
            proj_cols[c].col->KeyWord(pr.row_indices[proj_cols[c].order_pos]);
      }
      if (proj_has_nulls) {
        uint64_t null_mask = 0;
        for (size_t c = 0; c < proj_cols.size(); ++c) {
          if (!proj_cols[c].col->valid(
                  pr.row_indices[proj_cols[c].order_pos])) {
            null_mask |= uint64_t{1} << c;
          }
        }
        scratch[proj_cols.size()] = null_mask;
      }
      auto [it, inserted] = loc.index.emplace(scratch, loc.keys.size());
      const size_t slot = it->second;
      if (inserted) {
        loc.keys.push_back(scratch);
        loc.first_row.push_back(i);
        if (capture == ProvenanceCapture::kFull) loc.clauses.emplace_back();
        if (capture == ProvenanceCapture::kLineageOnly) {
          loc.lineages.emplace_back();
        }
      }
      switch (capture) {
        case ProvenanceCapture::kNone:
          break;
        case ProvenanceCapture::kLineageOnly: {
          // Merge the derivation's facts into the lineage set (kept sorted).
          std::vector<FactId>& lineage = loc.lineages[slot];
          std::vector<FactId> merged;
          merged.reserve(lineage.size() + pr.facts.size());
          std::set_union(lineage.begin(), lineage.end(), pr.facts.begin(),
                         pr.facts.end(), std::back_inserter(merged));
          lineage = std::move(merged);
          break;
        }
        case ProvenanceCapture::kFull:
          loc.clauses[slot].push_back(pr.facts);
          break;
      }
    }
  });

  // Merge the morsel-local distinct states into the per-block distinct
  // index in morsel order: first-seen tuple order and clause order are
  // therefore those of one serial pass over `current`. Lineage sets merge
  // by sorted set-union, which is partition-independent. The query-global
  // result (which dedups across union blocks by Value) takes over below,
  // once per block-distinct tuple.
  std::unordered_map<EncodedTuple, size_t, EncodedTupleHash> local_index;
  std::vector<OutputTuple> local_tuples;
  std::vector<std::vector<Clause>> local_clauses;
  std::vector<std::vector<FactId>> local_lineages;
  for (ProjLocal& loc : proj_parts) {
    for (size_t s = 0; s < loc.keys.size(); ++s) {
      auto [it, inserted] = local_index.emplace(std::move(loc.keys[s]),
                                                local_tuples.size());
      const size_t slot = it->second;
      if (inserted) {
        const PartialRow& pr = current[loc.first_row[s]];
        OutputTuple tuple;
        tuple.reserve(proj_cols.size());
        for (const auto& pc : proj_cols) {
          tuple.push_back(pc.col->GetValue(pr.row_indices[pc.order_pos],
                                           pool));
        }
        local_tuples.push_back(std::move(tuple));
        local_clauses.emplace_back();
        local_lineages.emplace_back();
      }
      switch (capture) {
        case ProvenanceCapture::kNone:
          break;
        case ProvenanceCapture::kLineageOnly: {
          std::vector<FactId>& lineage = local_lineages[slot];
          if (lineage.empty()) {
            lineage = std::move(loc.lineages[s]);
          } else {
            std::vector<FactId> merged;
            merged.reserve(lineage.size() + loc.lineages[s].size());
            std::set_union(lineage.begin(), lineage.end(),
                           loc.lineages[s].begin(), loc.lineages[s].end(),
                           std::back_inserter(merged));
            lineage = std::move(merged);
          }
          break;
        }
        case ProvenanceCapture::kFull: {
          std::vector<Clause>& clauses = local_clauses[slot];
          if (clauses.empty()) {
            clauses = std::move(loc.clauses[s]);
          } else {
            clauses.insert(clauses.end(),
                           std::make_move_iterator(loc.clauses[s].begin()),
                           std::make_move_iterator(loc.clauses[s].end()));
          }
          break;
        }
      }
    }
  }

  // Merge the block's distinct tuples into the query-global result.
  for (size_t i = 0; i < local_tuples.size(); ++i) {
    auto [it, inserted] =
        result.index.emplace(local_tuples[i], result.tuples.size());
    const size_t gslot = it->second;
    if (inserted) {
      result.tuples.push_back(std::move(local_tuples[i]));
      pending_clauses.emplace_back();
      if (capture == ProvenanceCapture::kLineageOnly) {
        result.lineages.emplace_back();
      }
    }
    switch (capture) {
      case ProvenanceCapture::kNone:
        break;
      case ProvenanceCapture::kLineageOnly: {
        std::vector<FactId>& lineage = result.lineages[gslot];
        if (lineage.empty()) {
          lineage = std::move(local_lineages[i]);
        } else {
          std::vector<FactId> merged;
          merged.reserve(lineage.size() + local_lineages[i].size());
          std::set_union(lineage.begin(), lineage.end(),
                         local_lineages[i].begin(), local_lineages[i].end(),
                         std::back_inserter(merged));
          lineage = std::move(merged);
        }
        break;
      }
      case ProvenanceCapture::kFull: {
        std::vector<Clause>& clauses = pending_clauses[gslot];
        if (clauses.empty()) {
          clauses = std::move(local_clauses[i]);
        } else {
          clauses.insert(clauses.end(),
                         std::make_move_iterator(local_clauses[i].begin()),
                         std::make_move_iterator(local_clauses[i].end()));
        }
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<EvalResult> Evaluate(const Database& db, const Query& q,
                            const EvalOptions& options) {
  EvalResult result;
  if (q.blocks.empty()) {
    return Status::InvalidArgument("query with no SPJ blocks");
  }
  EvalContext ctx;
  ctx.pool = options.pool;
  ctx.morsel_rows = options.morsel_rows;
  ctx.min_parallel_rows = options.min_parallel_rows;
  ctx.use_string_ranks = options.use_string_ranks;
  ctx.registry = options.metrics;
  ctx.metrics = EvalMetricSet(options.metrics);
  ScopedSpan query_span(ctx.registry, "eval.query");
  const auto query_start = std::chrono::steady_clock::now();
  ctx.metrics.queries.Inc();
  std::vector<std::vector<Clause>> pending_clauses;
  for (const auto& block : q.blocks) {
    Status s = EvaluateBlock(db, block, options.capture, ctx, result,
                             pending_clauses);
    if (!s.ok()) return s;
  }
  const ProvenanceCapture capture = options.capture;
  if (capture == ProvenanceCapture::kFull) {
    result.provenance.reserve(pending_clauses.size());
    result.lineages.reserve(pending_clauses.size());
    for (auto& clauses : pending_clauses) {
      result.provenance.emplace_back(std::move(clauses));
      result.lineages.push_back(result.provenance.back().Variables());
    }
  }
  ctx.metrics.output_tuples.Inc(result.tuples.size());
  if (ctx.metrics.query_seconds.enabled()) {
    ctx.metrics.query_seconds.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      query_start)
            .count());
  }
  return result;
}

Result<EvalResult> Evaluate(const Database& db, const Query& q,
                            ProvenanceCapture capture) {
  EvalOptions options;
  options.capture = capture;
  return Evaluate(db, q, options);
}

}  // namespace lshap
