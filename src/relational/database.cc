#include "relational/database.h"

#include "common/check.h"
#include "common/hash.h"
#include "common/strings.h"

namespace lshap {

Status Database::AddTable(Schema schema) {
  const std::string& name = schema.table_name();
  if (table_index_.count(name) > 0) {
    return Status::InvalidArgument("duplicate table '" + name + "'");
  }
  table_index_[name] = static_cast<uint32_t>(tables_.size());
  tables_.emplace_back(Table(std::move(schema), &pool_));
  return Status::Ok();
}

Result<FactId> Database::Insert(const std::string& table_name,
                                std::vector<Value> values) {
  auto idx = TableIndex(table_name);
  if (!idx.ok()) return idx.status();
  Table& table = tables_[*idx];
  const Schema& schema = table.schema();
  if (values.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into '%s': got %zu, want %zu",
                  table_name.c_str(), values.size(), schema.num_columns()));
  }
  // Validate the whole row against the column types before touching any
  // column, so a failed insert leaves the table unchanged. Value::Null()
  // matches any column type.
  for (size_t c = 0; c < values.size(); ++c) {
    const Value& v = values[c];
    const ColumnType want = schema.columns()[c].type;
    const bool ok = v.is_null() ||
                    (want == ColumnType::kInt && v.is_int()) ||
                    (want == ColumnType::kDouble && !v.is_string()) ||
                    (want == ColumnType::kString && v.is_string());
    if (!ok) {
      return Status::InvalidArgument(StrFormat(
          "type mismatch inserting into '%s' column '%s' (%s): got %s",
          table_name.c_str(), schema.columns()[c].name.c_str(),
          ColumnTypeName(want), v.ToString().c_str()));
    }
  }
  RowBatch batch(schema);
  batch.Begin();
  for (size_t c = 0; c < values.size(); ++c) {
    const Value& v = values[c];
    if (v.is_null()) {
      batch.Null();
      continue;
    }
    switch (schema.columns()[c].type) {
      case ColumnType::kInt:
        batch.Int(v.AsInt());
        break;
      case ColumnType::kDouble:
        batch.Real(v.AsDouble());
        break;
      case ColumnType::kString:
        batch.Str(v.AsString());
        break;
    }
  }
  batch.End();
  return Append(batch)[0];
}

RowBatch Database::BatchFor(const std::string& table_name) const {
  auto table = FindTable(table_name);
  LSHAP_CHECK(table.ok());
  return RowBatch((*table)->schema());
}

std::vector<FactId> Database::Append(const RowBatch& batch) {
  auto idx = TableIndex(batch.schema().table_name());
  LSHAP_CHECK(idx.ok());
  Table& table = tables_[*idx];
  const size_t num_columns = table.num_columns();
  const size_t num_rows = batch.num_rows();
  LSHAP_CHECK_EQ(batch.schema().num_columns(), num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    LSHAP_CHECK(batch.schema().columns()[c].type == table.columns_[c].type());
    LSHAP_CHECK_EQ(batch.columns_[c].cells(), num_rows);  // rectangular
  }
  for (size_t c = 0; c < num_columns; ++c) {
    const RowBatch::ColumnBuffer& buf = batch.columns_[c];
    ColumnData& col = table.columns_[c];
    for (size_t r = 0; r < num_rows; ++r) {
      if (!buf.validity.empty() && buf.validity[r] == 0) {
        col.AppendNull();
        continue;
      }
      switch (col.type()) {
        case ColumnType::kInt:
          col.AppendInt(buf.ints[r]);
          break;
        case ColumnType::kDouble:
          col.AppendDouble(buf.reals[r]);
          break;
        case ColumnType::kString:
          col.AppendString(pool_.Intern(buf.strs[r]));
          break;
      }
    }
  }
  std::vector<FactId> ids;
  ids.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const FactId id = static_cast<FactId>(fact_locations_.size());
    fact_locations_.push_back(
        {*idx, static_cast<uint32_t>(table.fact_ids_.size())});
    table.fact_ids_.push_back(id);
    ids.push_back(id);
  }
  return ids;
}

Result<const Table*> Database::FindTable(const std::string& name) const {
  auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table '" + name + "' in database '" + name_ +
                            "'");
  }
  return static_cast<const Table*>(&tables_[it->second]);
}

Result<uint32_t> Database::TableIndex(const std::string& name) const {
  auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table '" + name + "' in database '" + name_ +
                            "'");
  }
  return it->second;
}

std::vector<Value> Database::FactValues(FactId id) const {
  LSHAP_CHECK_LT(id, fact_locations_.size());
  const FactLocation& loc = fact_locations_[id];
  return tables_[loc.table_index].DecodeRow(loc.row_index);
}

uint32_t Database::FactTableIndex(FactId id) const {
  LSHAP_CHECK_LT(id, fact_locations_.size());
  return fact_locations_[id].table_index;
}

const std::string& Database::FactTableName(FactId id) const {
  return tables_[FactTableIndex(id)].schema().table_name();
}

std::string Database::FactToString(FactId id) const {
  const std::vector<Value> vals = FactValues(id);
  std::vector<std::string> parts;
  parts.reserve(vals.size());
  for (const auto& v : vals) parts.push_back(v.ToString());
  return FactTableName(id) + "(" + Join(parts, ", ") + ")";
}

namespace {

uint64_t FnvWord(uint64_t h, uint64_t w) {
  return FnvUpdate(h, &w, sizeof(w));
}

uint64_t FnvString(uint64_t h, std::string_view s) {
  h = FnvWord(h, s.size());
  return FnvUpdate(h, s.data(), s.size());
}

}  // namespace

uint64_t FactTableFingerprint(const Database& db) {
  uint64_t h = kFnvOffset;
  h = FnvString(h, db.name());
  h = FnvWord(h, db.num_tables());
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    h = FnvString(h, table.schema().table_name());
    h = FnvWord(h, table.num_rows());
    h = FnvWord(h, table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const ColumnData& col = table.column(c);
      h = FnvWord(h, static_cast<uint64_t>(col.type()));
      switch (col.type()) {
        case ColumnType::kInt:
          h = FnvUpdate(h, col.ints().data(),
                        col.ints().size() * sizeof(int64_t));
          break;
        case ColumnType::kDouble:
          h = FnvUpdate(h, col.doubles().data(),
                        col.doubles().size() * sizeof(double));
          break;
        case ColumnType::kString:
          // Hash string contents, not interned ids: two independently built
          // but identical databases must fingerprint equal even if their
          // pools interned in a different order. A NULL cell's placeholder
          // id must never be dereferenced (it does not name a pooled
          // string); hash a marker impossible for real cells instead —
          // FnvString prefixes the length, so length SIZE_MAX is
          // unreachable by any interned string.
          if (col.has_nulls()) {
            const auto& ids = col.string_ids();
            for (size_t r = 0; r < ids.size(); ++r) {
              if (col.valid(r)) {
                h = FnvString(h, db.string_pool().Get(ids[r]));
              } else {
                h = FnvWord(h, ~uint64_t{0});
              }
            }
          } else {
            for (StringId id : col.string_ids()) {
              h = FnvString(h, db.string_pool().Get(id));
            }
          }
          break;
      }
      // Validity words participate only when nulls exist, keeping all-valid
      // fingerprints identical to the pre-null scheme. Trailing bits of the
      // last word are canonically zero, so this is a stable byte image.
      if (col.has_nulls()) {
        h = FnvWord(h, col.null_count());
        h = FnvUpdate(h, col.validity_words().data(),
                      col.validity_words().size() * sizeof(uint64_t));
      }
    }
  }
  return h;
}

}  // namespace lshap
