#ifndef LSHAP_RELATIONAL_DATABASE_H_
#define LSHAP_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "relational/table.h"
#include "relational/string_pool.h"
#include "relational/value.h"

namespace lshap {

// A database: a disjoint union of named relations, a fact registry that
// resolves FactIds back to (table, row), and the string dictionary shared by
// every string column.
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const StringPool& string_pool() const { return pool_; }

  // Builds the string pool's lexicographic rank sidecar over everything
  // interned so far — the "pool freeze" hook the dataset generators call
  // once after ingest, enabling id-space ordered/prefix predicates in the
  // evaluator. Inserting rows with new strings afterwards makes the sidecar
  // stale again (the evaluator then falls back to text comparisons until
  // the next call); freezing is a promise of stability, not an enforcement.
  void FreezeStringOrder() { pool_.RebuildOrderIndex(); }

  // True while the order sidecar covers every interned string — what a
  // serving snapshot asserts before publishing a database as immutable.
  bool string_order_fresh() const { return pool_.OrderIndexFresh(); }

  // Registers a new empty table; fails on duplicate names.
  Status AddTable(Schema schema);

  // Appends a row through the Value boundary; values must match the schema's
  // arity and column types (ints promote into kDouble columns; Value::Null()
  // is accepted for any column type and stores a NULL cell). The whole row
  // is checked before anything is written, so a rejected row leaves the
  // table unchanged; an accepted one is committed as a one-row RowBatch.
  // Returns the new fact's id.
  Result<FactId> Insert(const std::string& table_name,
                        std::vector<Value> values);

  // An empty RowBatch over `table_name`'s schema (CHECK-fails if unknown).
  RowBatch BatchFor(const std::string& table_name) const;

  // Commits `batch` to the table its schema names and returns the new fact
  // ids in row order — the one path by which rows enter a table. Columns
  // are flushed in schema order, each top to bottom (so strings are interned
  // column by column), and then one fact is registered per row. CHECK-fails
  // before writing anything if the table is unknown, the batch's column
  // types differ from the table's, or a column holds a cell count other
  // than num_rows() (an unfinished last row).
  std::vector<FactId> Append(const RowBatch& batch);

  size_t num_tables() const { return tables_.size(); }
  size_t num_facts() const { return fact_locations_.size(); }

  const Table& table(size_t i) const { return tables_[i]; }
  Result<const Table*> FindTable(const std::string& name) const;
  Result<uint32_t> TableIndex(const std::string& name) const;

  // Resolves a fact id to its table index and decoded row values.
  std::vector<Value> FactValues(FactId id) const;
  uint32_t FactTableIndex(FactId id) const;
  const std::string& FactTableName(FactId id) const;

  // Renders a fact as "table(v1, v2, ...)" — used for logging, examples and
  // as the model's fact serialization source.
  std::string FactToString(FactId id) const;

 private:
  struct FactLocation {
    uint32_t table_index;
    uint32_t row_index;
  };

  std::string name_;
  StringPool pool_;
  std::vector<Table> tables_;
  std::unordered_map<std::string, uint32_t> table_index_;
  std::vector<FactLocation> fact_locations_;
};

// FNV-1a fingerprint of the database's fact table: table names, schemas and
// every cell (string cells hash by content, not by interned id, so two
// independently built but identical databases fingerprint equal). Columns
// that hold NULLs additionally hash their validity bitmap words, so two
// databases differing only in which cells are NULL fingerprint differently;
// all-valid columns hash exactly as before nulls existed. Corpus files
// record it so a loader can prove the corpus was built over exactly this
// database, not merely one with the same name and fact count.
uint64_t FactTableFingerprint(const Database& db);

}  // namespace lshap

#endif  // LSHAP_RELATIONAL_DATABASE_H_
