#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "common/strings.h"

namespace lshap {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "INT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt() const {
  LSHAP_CHECK(is_int());
  return std::get<int64_t>(v_);
}

double Value::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
  LSHAP_CHECK(is_double());
  return std::get<double>(v_);
}

const std::string& Value::AsString() const {
  LSHAP_CHECK(is_string());
  return std::get<std::string>(v_);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<int64_t>(v_));
  if (is_double()) return StrFormat("%g", std::get<double>(v_));
  return std::get<std::string>(v_);
}

std::string Value::ToSqlLiteral() const {
  if (is_string()) {
    std::string out = "'";
    for (const char c : std::get<std::string>(v_)) {
      out += c;
      if (c == '\'') out += c;  // SQL escapes a quote by doubling it
    }
    return out + "'";
  }
  if (is_double()) {
    // The shortest text that reads back as the same double, with ".0"
    // added where it would otherwise read back as an INT.
    const double d = std::get<double>(v_);
    char buf[32] = {};
    const std::to_chars_result printed =
        std::to_chars(buf, buf + sizeof(buf), d);
    std::string out(buf, printed.ptr);
    if (std::isfinite(d) && out.find_first_of(".e") == std::string::npos) {
      out += ".0";
    }
    return out;
  }
  return ToString();
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b9u;
  if (is_int()) return std::hash<int64_t>{}(std::get<int64_t>(v_));
  if (is_double()) return std::hash<double>{}(std::get<double>(v_));
  return std::hash<std::string>{}(std::get<std::string>(v_));
}

bool operator<(const Value& a, const Value& b) {
  auto rank = [](const Value& v) -> int {
    if (v.is_null()) return 0;
    if (v.is_int() || v.is_double()) return 1;
    return 2;
  };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;
  if (ra == 1) return a.AsDouble() < b.AsDouble();
  return a.AsString() < b.AsString();
}

}  // namespace lshap
