#include "relational/tuple.h"

#include "common/strings.h"

namespace lshap {

std::string OutputTupleToString(const OutputTuple& t) {
  std::vector<std::string> parts;
  parts.reserve(t.size());
  for (const Value& v : t) parts.push_back(v.ToString());
  return std::string("(").append(Join(parts, ", ")).append(")");
}

}  // namespace lshap
