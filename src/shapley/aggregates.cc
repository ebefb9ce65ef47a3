#include "shapley/aggregates.h"

#include <algorithm>

namespace lshap {

namespace {

// Shared implementation over an evaluated result: weight_fn(i) gives w_t
// for the i-th distinct output tuple.
template <typename WeightFn>
AggregateAttribution Attribute(const EvalResult& result, ThreadPool& pool,
                               const WeightFn& weight_fn) {
  AggregateAttribution out;
  std::vector<ShapleyValues> per_tuple(result.tuples.size());
  ParallelFor(pool, result.tuples.size(), [&](size_t i) {
    per_tuple[i] = ComputeShapleyExactUnlimited(result.provenance[i]);
  });
  for (size_t i = 0; i < result.tuples.size(); ++i) {
    const double w = weight_fn(i);
    out.total += w;
    for (const auto& [f, v] : per_tuple[i]) {
      out.values[f] += w * v;
    }
  }
  return out;
}

}  // namespace

Result<AggregateAttribution> ComputeShapleyForCount(const Database& db,
                                                    const Query& q,
                                                    ThreadPool& pool) {
  auto eval = Evaluate(db, q);
  if (!eval.ok()) return eval.status();
  return Attribute(*eval, pool, [](size_t) { return 1.0; });
}

Result<AggregateAttribution> ComputeShapleyForSum(const Database& db,
                                                  const Query& q,
                                                  const ColumnRef& column,
                                                  ThreadPool& pool) {
  if (q.blocks.empty()) {
    return Status::InvalidArgument("query with no blocks");
  }
  // The column's position must be consistent across union branches; SPJU
  // union requires identical projection arity, and we additionally require
  // the column itself at the same position.
  size_t position = static_cast<size_t>(-1);
  for (const auto& block : q.blocks) {
    auto it = std::find(block.projections.begin(), block.projections.end(),
                        column);
    if (it == block.projections.end()) {
      return Status::InvalidArgument("SUM column " + column.ToString() +
                                     " is not projected by every block");
    }
    const size_t pos =
        static_cast<size_t>(it - block.projections.begin());
    if (position == static_cast<size_t>(-1)) {
      position = pos;
    } else if (position != pos) {
      return Status::InvalidArgument(
          "SUM column position differs across UNION branches");
    }
  }

  auto eval = Evaluate(db, q);
  if (!eval.ok()) return eval.status();
  for (const auto& t : eval->tuples) {
    if (t[position].is_string()) {
      return Status::InvalidArgument("SUM column " + column.ToString() +
                                     " is not numeric");
    }
  }
  const EvalResult& result = *eval;
  // SQL's SUM skips NULLs: a tuple whose SUM cell is NULL weighs 0.
  return Attribute(result, pool, [&](size_t i) {
    const Value& cell = result.tuples[i][position];
    return cell.is_null() ? 0.0 : cell.AsDouble();
  });
}

}  // namespace lshap
