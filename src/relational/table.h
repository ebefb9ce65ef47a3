#ifndef LSHAP_RELATIONAL_TABLE_H_
#define LSHAP_RELATIONAL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/column.h"
#include "relational/schema.h"
#include "relational/string_pool.h"
#include "relational/value.h"

namespace lshap {

class Database;

// Globally unique identifier of a database fact (the "annotation" of
// provenance semirings). FactIds double as the boolean variables of
// provenance expressions.
using FactId = uint32_t;
inline constexpr FactId kInvalidFactId = static_cast<FactId>(-1);

// A relation instance in column-major layout: one typed contiguous column
// per schema attribute plus the per-row fact annotations. Rows exist only
// implicitly (index i across all columns); Value materializes at the
// boundary via GetValue/DecodeRow.
class Table {
 public:
  Table(Schema schema, const StringPool* pool);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return fact_ids_.size(); }
  size_t num_columns() const { return columns_.size(); }

  const ColumnData& column(size_t c) const { return columns_[c]; }
  FactId fact_id(size_t i) const { return fact_ids_[i]; }
  const std::vector<FactId>& fact_ids() const { return fact_ids_; }

  // Boundary decode of one cell / one row.
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row, *pool_);
  }
  std::vector<Value> DecodeRow(size_t row) const;

 private:
  friend class Database;

  Schema schema_;
  const StringPool* pool_;
  std::vector<ColumnData> columns_;
  std::vector<FactId> fact_ids_;
};

// The one way rows enter a table: stage them here, in row order, with
// fluent cell calls, then commit the whole batch with Database::Append.
//
//   RowBatch batch = db.BatchFor("t");
//   batch.Begin().Int(1).Str("x").End();
//   batch.Begin().Null().Str("y").End();   // NULL is valid for any type
//   std::vector<FactId> ids = db.Append(batch);
//
// Int() promotes into kDouble columns. The batch is decoupled from the
// database while it fills, so dataset generators keep their per-row RNG
// call order while the database sees one bulk append per table. Staging
// misuse (a cell of the wrong type or past the last column, Begin/End on an
// unfinished row) is a programming error and CHECK-fails; so does
// committing a batch whose schema does not match its table, or whose last
// row is unfinished. The Result-returning boundary for outside input is
// Database::Insert.
class RowBatch {
 public:
  explicit RowBatch(const Schema& schema);

  RowBatch& Begin();  // starts a new row; previous row must be complete
  RowBatch& Int(int64_t v);
  RowBatch& Real(double v);
  RowBatch& Str(std::string_view s);
  RowBatch& Null();  // a NULL cell, valid for any column type
  RowBatch& End();  // finishes the row

  size_t num_rows() const { return num_rows_; }
  const Schema& schema() const { return schema_; }

 private:
  friend class Database;

  // One staging buffer per schema column; only the vector matching the
  // column's type is used. `validity` stays empty until the column stages
  // its first Null() (empty = all valid, so an all-valid column commits
  // without a validity bitmap); once materialized, it runs parallel to the
  // typed vector and null slots hold a placeholder cell.
  struct ColumnBuffer {
    std::vector<int64_t> ints;
    std::vector<double> reals;
    std::vector<std::string> strs;
    std::vector<uint8_t> validity;

    // Cells staged so far (the two unused vectors are empty).
    size_t cells() const { return ints.size() + reals.size() + strs.size(); }
  };

  Schema schema_;
  std::vector<ColumnBuffer> columns_;
  size_t num_rows_ = 0;
  size_t next_col_;
};

}  // namespace lshap

#endif  // LSHAP_RELATIONAL_TABLE_H_
