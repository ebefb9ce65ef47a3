#include "query/ast.h"

#include <algorithm>

#include "common/strings.h"

namespace lshap {

const char* CompareOpSql(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kStartsWith:
      return "LIKE";
  }
  return "?";
}

std::string Selection::ToSql() const {
  if (op == CompareOp::kStartsWith) {
    return column.ToString() + " LIKE " +
           Value(literal.ToString() + "%").ToSqlLiteral();
  }
  return column.ToString() + " " + CompareOpSql(op) + " " +
         literal.ToSqlLiteral();
}

void JoinPred::Normalize() {
  if (right < left) std::swap(left, right);
}

std::string JoinPred::ToSql() const {
  return left.ToString() + " = " + right.ToString();
}

std::string SpjBlock::ToSql() const {
  std::vector<std::string> select_items;
  select_items.reserve(projections.size());
  for (const auto& p : projections) select_items.push_back(p.ToString());

  std::vector<std::string> conds;
  conds.reserve(joins.size() + selections.size());
  for (const auto& j : joins) conds.push_back(j.ToSql());
  for (const auto& s : selections) conds.push_back(s.ToSql());

  std::string sql = "SELECT DISTINCT " + Join(select_items, ", ") + " FROM " +
                    Join(tables, ", ");
  if (!conds.empty()) sql += " WHERE " + Join(conds, " AND ");
  return sql;
}

std::string Query::ToSql() const {
  std::vector<std::string> parts;
  parts.reserve(blocks.size());
  for (const auto& b : blocks) parts.push_back(b.ToSql());
  return Join(parts, " UNION ");
}

size_t Query::NumTables() const {
  std::set<std::string> tables;
  for (const auto& b : blocks) {
    tables.insert(b.tables.begin(), b.tables.end());
  }
  return tables.size();
}

std::set<std::string> Operations(const Query& q) {
  std::set<std::string> ops;
  for (const auto& b : q.blocks) {
    for (const auto& p : b.projections) {
      ops.insert("PROJ " + p.ToString());
    }
    for (const auto& s : b.selections) {
      ops.insert("SEL " + s.column.ToString() + " " + CompareOpSql(s.op) +
                 " " + s.literal.ToString());
    }
    for (JoinPred j : b.joins) {
      j.Normalize();
      ops.insert("JOIN " + j.left.ToString() + "=" + j.right.ToString());
    }
  }
  return ops;
}

}  // namespace lshap
