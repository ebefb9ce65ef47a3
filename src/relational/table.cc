#include "relational/table.h"

#include "common/check.h"

namespace lshap {

Table::Table(Schema schema, const StringPool* pool)
    : schema_(std::move(schema)), pool_(pool) {
  columns_.reserve(schema_.num_columns());
  for (const Column& c : schema_.columns()) columns_.emplace_back(c.type);
}

std::vector<Value> Table::DecodeRow(size_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const ColumnData& col : columns_) {
    values.push_back(col.GetValue(row, *pool_));
  }
  return values;
}

RowBatch::RowBatch(const Schema& schema)
    : schema_(schema),
      columns_(schema.num_columns()),
      next_col_(schema.num_columns()) {}

RowBatch& RowBatch::Begin() {
  LSHAP_CHECK_EQ(next_col_, schema_.num_columns());  // previous row complete
  next_col_ = 0;
  return *this;
}

RowBatch& RowBatch::Int(int64_t v) {
  LSHAP_CHECK_LT(next_col_, schema_.num_columns());
  const ColumnType type = schema_.columns()[next_col_].type;
  LSHAP_CHECK(type != ColumnType::kString);
  ColumnBuffer& buf = columns_[next_col_];
  // Ints promote into kDouble columns, as Database::Insert accepts them.
  if (type == ColumnType::kDouble) {
    buf.reals.push_back(static_cast<double>(v));
  } else {
    buf.ints.push_back(v);
  }
  if (!buf.validity.empty()) buf.validity.push_back(1);
  ++next_col_;
  return *this;
}

RowBatch& RowBatch::Real(double v) {
  LSHAP_CHECK_LT(next_col_, schema_.num_columns());
  LSHAP_CHECK(schema_.columns()[next_col_].type == ColumnType::kDouble);
  ColumnBuffer& buf = columns_[next_col_];
  buf.reals.push_back(v);
  if (!buf.validity.empty()) buf.validity.push_back(1);
  ++next_col_;
  return *this;
}

RowBatch& RowBatch::Str(std::string_view s) {
  LSHAP_CHECK_LT(next_col_, schema_.num_columns());
  LSHAP_CHECK(schema_.columns()[next_col_].type == ColumnType::kString);
  ColumnBuffer& buf = columns_[next_col_];
  buf.strs.emplace_back(s);
  if (!buf.validity.empty()) buf.validity.push_back(1);
  ++next_col_;
  return *this;
}

RowBatch& RowBatch::Null() {
  LSHAP_CHECK_LT(next_col_, schema_.num_columns());
  ColumnBuffer& buf = columns_[next_col_];
  // Materialize validity on the column's first null, backfilling the cells
  // staged so far as valid; the null slot itself stages a placeholder so the
  // typed vector stays parallel to validity.
  if (buf.validity.empty()) buf.validity.assign(buf.cells(), 1);
  buf.validity.push_back(0);
  switch (schema_.columns()[next_col_].type) {
    case ColumnType::kInt:
      buf.ints.push_back(0);
      break;
    case ColumnType::kDouble:
      buf.reals.push_back(0.0);
      break;
    case ColumnType::kString:
      buf.strs.emplace_back();
      break;
  }
  ++next_col_;
  return *this;
}

RowBatch& RowBatch::End() {
  LSHAP_CHECK_EQ(next_col_, schema_.num_columns());
  ++num_rows_;
  return *this;
}

}  // namespace lshap
