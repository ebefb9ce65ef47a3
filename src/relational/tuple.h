#ifndef LSHAP_RELATIONAL_TUPLE_H_
#define LSHAP_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "relational/value.h"

namespace lshap {

// An output tuple of a query (the paper's "tuple", as opposed to input
// "facts"). Output tuples are plain value vectors; identity is by value,
// which is what witness-based similarity compares. This is a boundary type:
// inside the evaluator, tuples live as EncodedTuples (below) and only
// distinct tuples are materialized as Values.
using OutputTuple = std::vector<Value>;

struct OutputTupleHash {
  size_t operator()(const OutputTuple& t) const {
    uint64_t h = 0x51ed270b;
    for (const Value& v : t) h = MixWord(h ^ v.Hash());
    return static_cast<size_t>(h);
  }
};

// A fixed-width encoding of an output tuple: one 64-bit word per cell
// (raw int64 bits, canonicalized double bits, or interned StringId — see
// ColumnData::KeyWord). Within one SPJ block the projected column types are
// fixed, so two derivations produce the same output tuple iff their encoded
// words match — which makes hashing and equality on the evaluator's
// DISTINCT path straight word operations, no variant dispatch and no string
// traversal.
using EncodedTuple = std::vector<uint64_t>;

struct EncodedTupleHash {
  size_t operator()(const EncodedTuple& t) const {
    uint64_t h = 0x51ed270b ^ t.size();
    for (uint64_t w : t) h = MixWord(h ^ w);
    return static_cast<size_t>(h);
  }
};

std::string OutputTupleToString(const OutputTuple& t);

}  // namespace lshap

#endif  // LSHAP_RELATIONAL_TUPLE_H_
