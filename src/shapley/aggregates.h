#ifndef LSHAP_SHAPLEY_AGGREGATES_H_
#define LSHAP_SHAPLEY_AGGREGATES_H_

#include "common/status.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "query/ast.h"
#include "shapley/shapley.h"

namespace lshap {

// Shapley attribution for aggregate queries — the fragment the paper notes
// has been studied in theory but has no available implementation.
//
// For an aggregate of the form  v(E) = Σ_t w_t · 1[t ∈ q(E)]  over the
// distinct output tuples of an SPJU query (w_t = 1 for COUNT, w_t = the
// tuple's value of a numeric column for SUM, and 0 where that cell is NULL,
// since SQL's SUM skips NULLs), linearity of the Shapley value gives
// Shapley_f(v) = Σ_t w_t · Shapley_f(q_t),  so each term is computable
// exactly with the per-tuple circuit machinery.
//
// Note the set semantics: aggregates are over DISTINCT projected tuples,
// matching the engine's SPJU evaluation.
struct AggregateAttribution {
  // The aggregate value over the full database (= Σ_f values[f], by the
  // efficiency axiom, since v(∅) = 0 for monotone queries).
  double total = 0.0;
  // Shapley contribution of every fact in the union of all lineages.
  ShapleyValues values;
};

// Attribution for COUNT(DISTINCT *) of the query's output.
Result<AggregateAttribution> ComputeShapleyForCount(const Database& db,
                                                    const Query& q,
                                                    ThreadPool& pool);

// Attribution for SUM(column) over the distinct output tuples. `column`
// must appear in every block's projection list and hold no strings; a
// tuple whose cell is NULL weighs 0, so its lineage facts gain nothing from
// it (a SUM over NULL cells only totals 0).
Result<AggregateAttribution> ComputeShapleyForSum(const Database& db,
                                                  const Query& q,
                                                  const ColumnRef& column,
                                                  ThreadPool& pool);

}  // namespace lshap

#endif  // LSHAP_SHAPLEY_AGGREGATES_H_
