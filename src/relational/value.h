#ifndef LSHAP_RELATIONAL_VALUE_H_
#define LSHAP_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace lshap {

// Column data types supported by the engine. SPJU workloads in DBShap use
// integers, floats and strings; any column of any type may additionally
// hold NULL cells (see ColumnData's validity bitmap, DESIGN.md §14).
enum class ColumnType { kInt, kDouble, kString };

const char* ColumnTypeName(ColumnType type);

// A dynamically typed cell value. Small, regular, hashable and ordered, so
// tuples can live in hash maps (join indexes, witness sets) and be sorted.
// NULL is a first-class storable cell: Value::Null() (or a
// default-constructed Value) ingests through Database::Insert like any
// other cell, as RowBatch::Null() does in a staged batch. Variant equality deliberately says
// Null() == Null() — that is what DISTINCT and witness-set comparison want;
// predicate and join comparison go through three-valued MatchesPredicate3
// and the join paths' null exclusion instead (SQL semantics: NULL compares
// unknown to everything, including NULL).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  // The NULL cell, spelled as a factory so call sites read as intent
  // (`batch.Begin().Int(1).Null()` stages one; `Value::Null()` is the
  // literal form) rather than as a leftover default construction.
  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const;
  double AsDouble() const;  // Promotes ints.
  const std::string& AsString() const;

  // Human-readable rendering ("Universal", "2007", "0.5").
  std::string ToString() const;
  // SQL literal rendering ("'Universal'", "'O''Brien'", "2007", "29.5",
  // "3.0"), which ParseQuery reads back as the same value.
  std::string ToSqlLiteral() const;

  size_t Hash() const;

  friend bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  // Total order: null < int/double (numeric order) < string.
  friend bool operator<(const Value& a, const Value& b);

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace lshap

#endif  // LSHAP_RELATIONAL_VALUE_H_
