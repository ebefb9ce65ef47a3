#ifndef LSHAP_EVAL_EVALUATOR_H_
#define LSHAP_EVAL_EVALUATOR_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "provenance/bool_expr.h"
#include "query/ast.h"
#include "relational/database.h"
#include "relational/tuple.h"

namespace lshap {

// What the evaluator records per output tuple. Lineage-only capture stores
// just the contributing fact set (what LearnShapley needs at inference);
// full provenance additionally keeps the derivation structure (what exact
// Shapley computation needs). kNone answers the query and nothing else —
// the baseline for measuring capture overhead (`bench_ablation_capture`).
enum class ProvenanceCapture { kNone, kLineageOnly, kFull };

// The result of evaluating an SPJU query: the distinct output tuples and,
// depending on the capture mode, per-tuple provenance (monotone DNF whose
// clauses are the derivations) or just the lineage set.
struct EvalResult {
  std::vector<OutputTuple> tuples;
  std::vector<Dnf> provenance;                // kFull only
  std::vector<std::vector<FactId>> lineages;  // kFull and kLineageOnly
  std::unordered_map<OutputTuple, size_t, OutputTupleHash> index;

  // Requires kFull capture.
  const Dnf& ProvenanceOf(size_t tuple_idx) const {
    return provenance[tuple_idx];
  }
  // Works under kFull or kLineageOnly capture. Lineages are materialized
  // once at evaluation time, so repeated lookups (ranking inference walks
  // one lineage per candidate fact) return the cached vector by reference
  // instead of re-deriving and copying it per call.
  const std::vector<FactId>& LineageOf(size_t tuple_idx) const {
    return lineages[tuple_idx];
  }
};

// How one evaluation runs. The default is the serial path; setting `pool`
// turns on morsel-driven parallelism: the scan, probe, and project phases
// partition their input into contiguous row-range morsels dispatched on the
// pool, and per-morsel partial outputs are merged in morsel order — so the
// result (tuples, tuple order, clause order, lineages) is byte-identical to
// the serial path at every thread count (eval_property_test enforces this).
//
// The pool must not be a pool one of whose workers is the calling thread:
// the morsel dispatch blocks on ParallelFor, which deadlocks under such
// nesting (BuildCorpus parallelizes across tuples and therefore evaluates
// each query serially).
//
// Follows the repo's options-builder convention (DESIGN.md §9.4): a
// default-constructed EvalOptions reproduces historical behavior exactly,
// and every knob has a chainable With* setter.
struct EvalOptions {
  ProvenanceCapture capture = ProvenanceCapture::kFull;
  ThreadPool* pool = nullptr;  // nullptr => serial evaluation
  // Rows per morsel. Smaller morsels load-balance better and larger ones
  // amortize dispatch; tests shrink this to force multi-morsel merges on
  // tiny inputs.
  size_t morsel_rows = 4096;
  // Inputs smaller than this stay serial even when a pool is set — the
  // dispatch overhead would exceed the work.
  size_t min_parallel_rows = 4096;
  // Compile ordered/prefix string selections to rank-interval tests over
  // the pool's order sidecar when it is fresh (see StringPool). Disabling
  // this forces the string-materializing path even on a frozen pool — the
  // differential oracle the property tests (eval_property_test) compare
  // against. Both paths must agree exactly; the flag only selects which one
  // runs.
  bool use_string_ranks = true;
  // Observability opt-in: when set, the evaluator records eval.* counters,
  // histograms, and spans into the registry (see DESIGN.md §9). Null means
  // no-op handles everywhere — zero instrumentation cost, and results are
  // byte-identical either way.
  MetricsRegistry* metrics = nullptr;

  EvalOptions& WithCapture(ProvenanceCapture c) { capture = c; return *this; }
  EvalOptions& WithPool(ThreadPool* p) { pool = p; return *this; }
  EvalOptions& WithMorselRows(size_t n) { morsel_rows = n; return *this; }
  EvalOptions& WithMinParallelRows(size_t n) {
    min_parallel_rows = n;
    return *this;
  }
  EvalOptions& WithStringRanks(bool on) { use_string_ranks = on; return *this; }
  EvalOptions& WithMetrics(MetricsRegistry* m) { metrics = m; return *this; }
};

// Evaluates `q` over `db`. Selections are compiled against the columnar
// storage (string equality predicates compare interned StringIds) and
// applied column-at-a-time; joins are executed with flat open-addressing
// hash indexes (FlatJoinIndex) built directly over fixed-width column key
// words and probed in prefetched batches, in the order the block lists
// its tables (greedily reordered so every step is connected when possible).
// Errors on unknown tables/columns or repeated table references (self-joins
// are outside the SPJU fragment this engine targets).
Result<EvalResult> Evaluate(const Database& db, const Query& q,
                            const EvalOptions& options);

// Serial evaluation with default tuning — the historical signature.
Result<EvalResult> Evaluate(const Database& db, const Query& q,
                            ProvenanceCapture capture = ProvenanceCapture::kFull);

// SQL three-valued truth value. Ordered so that kTrue > kUnknown > kFalse,
// matching the standard's AND/OR min/max formulation should combinators ever
// be needed; predicates only ever *pass* on kTrue (DESIGN.md §14).
enum class TriBool { kFalse = 0, kUnknown = 1, kTrue = 2 };

// Three-valued predicate evaluation: the truth value of `value op literal`.
// A NULL on either side yields kUnknown for every CompareOp — including kNe
// (NULL != x is unknown, not true) — per SQL comparison semantics. Non-null
// operands compare exactly as before (numeric comparisons promote ints to
// doubles; kStartsWith applies to strings only; a type mismatch between
// non-null operands is kFalse, never unknown). Boundary helper over Values —
// the evaluator itself compiles predicates against columnar storage and
// filters null cells via validity bits; the row-at-a-time reference
// evaluator in the test tree uses this directly.
TriBool MatchesPredicate3(const Value& value, CompareOp op,
                          const Value& literal);

// Two-valued wrapper: true iff the predicate is *definitely* true. This is
// exactly the "only true survives a selection" rule, so the reference
// evaluator keeps its boolean shape and stays line-for-line comparable with
// the compiled path.
inline bool MatchesPredicate(const Value& value, CompareOp op,
                             const Value& literal) {
  return MatchesPredicate3(value, op, literal) == TriBool::kTrue;
}

}  // namespace lshap

#endif  // LSHAP_EVAL_EVALUATOR_H_
