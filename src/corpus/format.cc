#include "corpus/format.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/fileio.h"
#include "common/strings.h"
#include "query/parser.h"

namespace lshap {

namespace {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// The manifest header and every shard footer carry one Shapley
// payload-encoding byte. Only f64 (0) exists; a reader rejects any other
// value as an unknown encoding.
inline constexpr uint8_t kShapleyPayloadF64 = 0;

// Value tags inside packed tuples.
enum ValueTag : uint8_t {
  kValNull = 0,
  kValInt = 1,
  kValDouble = 2,
  kValString = 3,
};

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void PutString(std::string& out, std::string_view s) {
  PutVarint(out, s.size());
  out.append(s.data(), s.size());
}

void PutDouble(std::string& out, double d) { PutFixed64(out, DoubleBits(d)); }

void EncodeValue(const Value& v, std::string& out) {
  if (v.is_null()) {
    out.push_back(static_cast<char>(kValNull));
  } else if (v.is_int()) {
    out.push_back(static_cast<char>(kValInt));
    PutZigzag(out, v.AsInt());
  } else if (v.is_double()) {
    out.push_back(static_cast<char>(kValDouble));
    PutDouble(out, v.AsDouble());
  } else {
    out.push_back(static_cast<char>(kValString));
    PutString(out, v.AsString());
  }
}

void EncodeTuple(const OutputTuple& t, std::string& out) {
  PutVarint(out, t.size());
  for (const Value& v : t) EncodeValue(v, out);
}

// Minimum encoded sizes, for bounding decoded counts by the bytes left
// (ByteReader::Backs): a budget trip is a site length and a count; a
// contribution is at least a tuple arity and a lineage size; a lineage
// fact is a delta varint plus its f64 value; a manifest ShardBuildStats is
// seven varints, the f64 wall time and the trip count.
inline constexpr size_t kMinTripBytes = 2;
inline constexpr size_t kMinContribBytes = 2;
inline constexpr size_t kMinLineageFactBytes = 1 + 8;
inline constexpr size_t kMinShardStatsBytes = 7 + 8 + 1;

// The error for a count that failed ByteReader::Backs: truncated if the
// read itself failed, otherwise more elements than the bytes left can hold.
Status BadCount(const char* what, uint64_t n, const ByteReader& r) {
  if (!r.ok()) return Status::InvalidArgument(StrFormat("truncated %s", what));
  return Status::InvalidArgument(
      StrFormat("bad %s %llu: only %zu bytes remain", what,
                static_cast<unsigned long long>(n), r.remaining()));
}

Result<Value> DecodeValue(ByteReader& r) {
  std::string_view tag = r.Bytes(1);
  if (!r.ok()) return Status::InvalidArgument("truncated value tag");
  switch (static_cast<uint8_t>(tag[0])) {
    case kValNull:
      return Value();
    case kValInt:
      return Value(r.Zigzag());
    case kValDouble:
      return Value(BitsToDouble(r.Fixed64()));
    case kValString: {
      uint64_t n = r.Varint();
      if (!r.Backs(n)) return BadCount("string value length", n, r);
      return Value(std::string(r.Bytes(static_cast<size_t>(n))));
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown value tag %u", static_cast<uint8_t>(tag[0])));
  }
}

Result<OutputTuple> DecodeTuple(ByteReader& r) {
  const uint64_t arity = r.Varint();
  if (!r.Backs(arity)) return BadCount("tuple arity", arity, r);
  OutputTuple t;
  t.reserve(static_cast<size_t>(arity));
  for (uint64_t i = 0; i < arity; ++i) {
    auto v = DecodeValue(r);
    if (!v.ok()) return v.status();
    t.push_back(std::move(*v));
  }
  if (!r.ok()) return Status::InvalidArgument("truncated tuple");
  return t;
}

void PutStatsMap(std::string& out,
                 const std::map<std::string, size_t>& trips) {
  PutVarint(out, trips.size());
  for (const auto& [site, count] : trips) {
    PutString(out, site);
    PutVarint(out, count);
  }
}

Result<std::map<std::string, size_t>> ReadStatsMap(ByteReader& r) {
  std::map<std::string, size_t> trips;
  const uint64_t n = r.Varint();
  if (!r.Backs(n, kMinTripBytes)) return BadCount("budget-trip count", n, r);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t len = r.Varint();
    if (!r.Backs(len)) return BadCount("budget-trip site length", len, r);
    std::string site(r.Bytes(static_cast<size_t>(len)));
    const uint64_t count = r.Varint();
    if (!r.ok()) return Status::InvalidArgument("truncated budget-trip count");
    trips[std::move(site)] = static_cast<size_t>(count);
  }
  return trips;
}

Result<std::vector<size_t>> ReadIndexVector(ByteReader& r,
                                            uint64_t num_entries) {
  const uint64_t n = r.Varint();
  if (!r.Backs(n)) return BadCount("split index count", n, r);
  std::vector<size_t> idx;
  idx.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = r.Varint();
    if (!r.ok()) return Status::InvalidArgument("truncated split index");
    if (v >= num_entries) {
      return Status::InvalidArgument("split index out of range");
    }
    idx.push_back(static_cast<size_t>(v));
  }
  return idx;
}

}  // namespace

void PutVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutZigzag(std::string& out, int64_t v) {
  PutVarint(out, (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63));
}

uint64_t ByteReader::Varint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!ok_ || pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    const uint8_t b = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  ok_ = false;  // > 10 continuation bytes: not a valid varint
  return 0;
}

int64_t ByteReader::Zigzag() {
  const uint64_t v = Varint();
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

uint64_t ByteReader::Fixed64() {
  if (!ok_ || size_ - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

std::string_view ByteReader::Bytes(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string_view out(data_ + pos_, n);
  pos_ += n;
  return out;
}

uint64_t FnvChecksum(const char* data, size_t n) {
  uint64_t h = kFnvOffset;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void EncodeCorpusEntry(const CorpusEntry& entry, std::string& out) {
  PutString(out, entry.query.id);
  PutString(out, entry.query.ToSql());
  PutVarint(out, entry.all_outputs.size());
  for (const OutputTuple& t : entry.all_outputs) EncodeTuple(t, out);
  PutVarint(out, entry.contributions.size());
  for (const TupleContribution& c : entry.contributions) {
    EncodeTuple(c.tuple, out);
    // Lineage fact ids sorted and delta-coded; Shapley values follow in
    // the same order, so the two arrays zip back together on decode.
    std::vector<FactId> facts;
    facts.reserve(c.shapley.size());
    for (const auto& [f, v] : c.shapley) facts.push_back(f);
    std::sort(facts.begin(), facts.end());
    PutVarint(out, facts.size());
    FactId prev = 0;
    for (size_t i = 0; i < facts.size(); ++i) {
      PutVarint(out, facts[i] - (i == 0 ? 0 : prev));
      prev = facts[i];
    }
    for (FactId f : facts) PutDouble(out, c.shapley.at(f));
  }
}

Result<RawRecord> DecodeRawRecord(ByteReader& r, size_t num_db_facts) {
  RawRecord rec;
  uint64_t len = r.Varint();
  if (!r.Backs(len)) return BadCount("query id length", len, r);
  rec.query_id = std::string(r.Bytes(static_cast<size_t>(len)));
  len = r.Varint();
  if (!r.Backs(len)) return BadCount("query sql length", len, r);
  rec.sql = std::string(r.Bytes(static_cast<size_t>(len)));

  const uint64_t num_outputs = r.Varint();
  if (!r.Backs(num_outputs)) return BadCount("output count", num_outputs, r);
  rec.all_outputs.reserve(static_cast<size_t>(num_outputs));
  for (uint64_t i = 0; i < num_outputs; ++i) {
    auto t = DecodeTuple(r);
    if (!t.ok()) return t.status();
    rec.all_outputs.push_back(std::move(*t));
  }

  const uint64_t num_contribs = r.Varint();
  if (!r.Backs(num_contribs, kMinContribBytes)) {
    return BadCount("contribution count", num_contribs, r);
  }
  rec.contributions.reserve(static_cast<size_t>(num_contribs));
  for (uint64_t i = 0; i < num_contribs; ++i) {
    TupleContribution contrib;
    auto t = DecodeTuple(r);
    if (!t.ok()) return t.status();
    contrib.tuple = std::move(*t);

    const uint64_t k = r.Varint();
    if (!r.Backs(k, kMinLineageFactBytes)) {
      return BadCount("lineage size", k, r);
    }
    std::vector<FactId> facts(static_cast<size_t>(k));
    uint64_t acc = 0;
    for (uint64_t j = 0; j < k; ++j) {
      const uint64_t delta = r.Varint();
      if (!r.ok()) return Status::InvalidArgument("truncated lineage");
      // The encoder writes distinct ids in ascending order, so every delta
      // after the first is nonzero; a repeated id would silently merge two
      // lineage facts.
      if (j > 0 && delta == 0) {
        return Status::InvalidArgument("repeated fact id in lineage");
      }
      if (delta >= num_db_facts - acc) {
        return Status::InvalidArgument("fact id out of range");
      }
      acc += delta;
      facts[static_cast<size_t>(j)] = static_cast<FactId>(acc);
    }
    contrib.shapley.reserve(static_cast<size_t>(k));
    for (uint64_t j = 0; j < k; ++j) {
      contrib.shapley[facts[static_cast<size_t>(j)]] =
          BitsToDouble(r.Fixed64());
    }
    if (!r.ok()) return Status::InvalidArgument("truncated shapley payload");
    rec.contributions.push_back(std::move(contrib));
  }
  return rec;
}

// --- ShardWriter ---

struct ShardWriter::Impl {
  std::string path;
  std::ofstream out;
  uint64_t db_fingerprint;
  uint32_t shard_index;
  uint64_t base_entry;
  uint64_t hash = kFnvOffset;  // running FNV over everything written
  std::string scratch;
  bool finished = false;
  bool failed = false;

  void WriteHashed(const char* data, size_t n) {
    out.write(data, static_cast<std::streamsize>(n));
    const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash ^= p[i];
      hash *= kFnvPrime;
    }
  }
};

ShardWriter::ShardWriter(std::string path, uint64_t db_fingerprint,
                         uint32_t shard_index, uint64_t base_entry)
    : impl_(new Impl) {
  impl_->path = std::move(path);
  impl_->db_fingerprint = db_fingerprint;
  impl_->shard_index = shard_index;
  impl_->base_entry = base_entry;
  // Stream into the sibling temp path; Finish renames it over `path`.
  impl_->out.open(TempWritePath(impl_->path),
                  std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    impl_->failed = true;
    return;
  }
  impl_->WriteHashed(kShardMagic, 8);
  bytes_ = 8;
}

ShardWriter::~ShardWriter() {
  // Abandoned (never Finished) writers leave no half-written file behind;
  // the final path was never touched, only the temp needs removing.
  if (!impl_->finished && !impl_->failed) {
    impl_->out.close();
    std::remove(TempWritePath(impl_->path).c_str());
  }
  delete impl_;
}

Status ShardWriter::Append(const CorpusEntry& entry) {
  if (impl_->failed) {
    return Status::Internal("cannot open '" + impl_->path + "' for write");
  }
  offsets_.push_back(bytes_);
  impl_->scratch.clear();
  EncodeCorpusEntry(entry, impl_->scratch);
  impl_->WriteHashed(impl_->scratch.data(), impl_->scratch.size());
  bytes_ += impl_->scratch.size();
  if (!impl_->out) {
    impl_->failed = true;
    return Status::Internal("write to '" + impl_->path + "' failed");
  }
  return Status::Ok();
}

Status ShardWriter::Finish(const ShardBuildStats* stats) {
  if (impl_->failed) {
    return Status::Internal("cannot open '" + impl_->path + "' for write");
  }
  const uint64_t footer_offset = bytes_;
  std::string footer;
  // The fingerprint sits first, at a fixed offset from the footer, so both
  // the loader and the corruption tests can locate it without parsing.
  PutFixed64(footer, impl_->db_fingerprint);
  PutVarint(footer, impl_->shard_index);
  PutVarint(footer, impl_->base_entry);
  footer.push_back(static_cast<char>(kShapleyPayloadF64));
  PutVarint(footer, offsets_.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < offsets_.size(); ++i) {
    PutVarint(footer, offsets_[i] - (i == 0 ? 0 : prev));
    prev = offsets_[i];
  }
  PutVarint(footer, stats ? stats->exact : 0);
  PutVarint(footer, stats ? stats->monte_carlo : 0);
  PutVarint(footer, stats ? stats->cnf_proxy : 0);
  PutVarint(footer, stats ? stats->skipped : 0);
  PutVarint(footer, stats ? stats->stratified : 0);
  // Checksum covers [0, footer_offset): the record region the offsets
  // point into. The footer guards itself with the trailer structure.
  PutFixed64(footer, impl_->hash);
  impl_->out.write(footer.data(),
                   static_cast<std::streamsize>(footer.size()));
  char trailer[16];
  std::memcpy(trailer, &footer_offset, 8);
  std::memcpy(trailer + 8, kShardTrailerMagic, 8);
  impl_->out.write(trailer, 16);
  bytes_ += footer.size() + 16;
  impl_->out.flush();
  if (!impl_->out) {
    impl_->failed = true;
    return Status::Internal("write to '" + impl_->path + "' failed");
  }
  impl_->out.close();
  // Only a complete, sealed shard ever reaches the final name.
  Status committed = CommitTempFile(impl_->path);
  if (!committed.ok()) {
    impl_->failed = true;
    return committed;
  }
  impl_->finished = true;
  return Status::Ok();
}

// --- ShardReader ---

Result<ShardReader> ShardReader::Open(const std::string& path,
                                      uint64_t expected_fingerprint,
                                      FaultInjector* fault) {
  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("corpus shard '" + path + "': " + what);
  };
  if (fault != nullptr) {
    Status injected = fault->OnSite(kSiteShardOpen);
    if (!injected.ok()) return injected;
  }
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();

  ShardReader reader;
  reader.buffer_ = std::move(*bytes);
  const std::string& buf = reader.buffer_;
  // Minimum viable file: magic + footer (>= fingerprint + checksum) +
  // trailer.
  if (buf.size() < 8 + 16 + 16) return bad("file too small");
  if (std::memcmp(buf.data(), kShardMagic, 8) != 0) {
    return bad("bad magic (not a packed corpus shard)");
  }
  if (std::memcmp(buf.data() + buf.size() - 8, kShardTrailerMagic, 8) != 0) {
    return bad("bad trailer magic (truncated or corrupted)");
  }
  uint64_t footer_offset;
  std::memcpy(&footer_offset, buf.data() + buf.size() - 16, 8);
  if (footer_offset < 8 || footer_offset > buf.size() - 16 - 16) {
    return bad("footer offset out of range");
  }
  reader.records_end_ = static_cast<size_t>(footer_offset);

  ByteReader r(buf.data() + footer_offset,
               buf.size() - 16 - static_cast<size_t>(footer_offset));
  ShardFooter& f = reader.footer_;
  f.db_fingerprint = r.Fixed64();
  f.shard_index = static_cast<uint32_t>(r.Varint());
  f.base_entry = r.Varint();
  std::string_view payload_byte = r.Bytes(1);
  if (!r.ok()) return bad("truncated footer");
  const uint8_t pb = static_cast<uint8_t>(payload_byte[0]);
  if (pb != kShapleyPayloadF64) {
    return bad(StrFormat("unknown shapley payload encoding %u", pb));
  }
  // No checksum covers the footer, so its record count is bounded by the
  // footer bytes left (one offset-delta varint per record).
  const uint64_t num_records = r.Varint();
  if (!r.Backs(num_records)) {
    return bad(BadCount("record count", num_records, r).message());
  }
  f.record_offsets.reserve(static_cast<size_t>(num_records));
  uint64_t acc = 0;
  for (uint64_t i = 0; i < num_records; ++i) {
    acc += r.Varint();
    if (!r.ok() || acc < 8 || acc >= footer_offset) {
      return bad("record offset out of range");
    }
    if (!f.record_offsets.empty() && acc <= f.record_offsets.back()) {
      return bad("record offsets not increasing");
    }
    f.record_offsets.push_back(acc);
  }
  f.exact = static_cast<size_t>(r.Varint());
  f.monte_carlo = static_cast<size_t>(r.Varint());
  f.cnf_proxy = static_cast<size_t>(r.Varint());
  f.skipped = static_cast<size_t>(r.Varint());
  f.stratified = static_cast<size_t>(r.Varint());
  f.checksum = r.Fixed64();
  if (!r.ok()) return bad("truncated footer");

  const uint64_t actual =
      FnvChecksum(buf.data(), static_cast<size_t>(footer_offset));
  if (actual != f.checksum) {
    return bad(StrFormat("checksum mismatch (stored %016llx, computed "
                         "%016llx) — file is corrupted",
                         static_cast<unsigned long long>(f.checksum),
                         static_cast<unsigned long long>(actual)));
  }
  if (expected_fingerprint != 0 &&
      f.db_fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "corpus shard '%s' was built over a database with fact-table "
        "fingerprint %016llx, but the given database fingerprints %016llx "
        "— same name/size is not enough, the fact tables differ",
        path.c_str(), static_cast<unsigned long long>(f.db_fingerprint),
        static_cast<unsigned long long>(expected_fingerprint)));
  }
  reader.fault_ = fault;
  return reader;
}

Result<RawRecord> ShardReader::ReadRawRecord(size_t i,
                                             size_t num_db_facts) const {
  if (fault_ != nullptr) {
    Status injected = fault_->OnSite(kSiteShardRecord);
    if (!injected.ok()) return injected;
  }
  if (i >= footer_.record_offsets.size()) {
    return Status::InvalidArgument(
        StrFormat("record %zu out of range (shard has %zu)", i,
                  footer_.record_offsets.size()));
  }
  const size_t begin = static_cast<size_t>(footer_.record_offsets[i]);
  const size_t end = i + 1 < footer_.record_offsets.size()
                         ? static_cast<size_t>(footer_.record_offsets[i + 1])
                         : records_end_;
  ByteReader r(buffer_.data() + begin, end - begin);
  auto rec = DecodeRawRecord(r, num_db_facts);
  if (rec.ok() && r.remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("record %zu has %zu trailing bytes", i, r.remaining()));
  }
  return rec;
}

Result<CorpusEntry> ShardReader::ReadRecord(size_t i,
                                            const Database& db) const {
  auto raw = ReadRawRecord(i, db.num_facts());
  if (!raw.ok()) return raw.status();
  auto query = ParseQuery(db, raw->sql, raw->query_id);
  if (!query.ok()) return query.status();
  CorpusEntry entry;
  entry.query = std::move(*query);
  entry.all_outputs = std::move(raw->all_outputs);
  entry.contributions = std::move(raw->contributions);
  return entry;
}

// --- Manifest ---

namespace {

void PutShardStats(std::string& out, const ShardBuildStats& s) {
  PutVarint(out, s.shard_index);
  PutVarint(out, s.entries);
  PutVarint(out, s.exact);
  PutVarint(out, s.monte_carlo);
  PutVarint(out, s.cnf_proxy);
  PutVarint(out, s.skipped);
  PutVarint(out, s.stratified);
  PutFixed64(out, DoubleBits(s.wall_seconds));
  PutStatsMap(out, s.budget_trips);
}

Result<ShardBuildStats> ReadShardStats(ByteReader& r) {
  ShardBuildStats s;
  s.shard_index = static_cast<uint32_t>(r.Varint());
  s.entries = static_cast<size_t>(r.Varint());
  s.exact = static_cast<size_t>(r.Varint());
  s.monte_carlo = static_cast<size_t>(r.Varint());
  s.cnf_proxy = static_cast<size_t>(r.Varint());
  s.skipped = static_cast<size_t>(r.Varint());
  s.stratified = static_cast<size_t>(r.Varint());
  s.wall_seconds = BitsToDouble(r.Fixed64());
  auto trips = ReadStatsMap(r);
  if (!trips.ok()) return trips.status();
  s.budget_trips = std::move(*trips);
  if (!r.ok()) return Status::InvalidArgument("truncated shard stats");
  return s;
}

}  // namespace

Status WriteManifest(const CorpusManifest& manifest,
                     const std::string& path) {
  std::string out;
  out.append(kManifestMagic, 8);
  // Fingerprint at fixed offset 8, same rationale as the shard footer.
  PutFixed64(out, manifest.db_fingerprint);
  PutString(out, manifest.db_name);
  PutVarint(out, manifest.db_facts);
  out.push_back(static_cast<char>(kShapleyPayloadF64));
  PutVarint(out, manifest.shard_entries.size());
  for (uint64_t e : manifest.shard_entries) PutVarint(out, e);
  // Split permutations are stored verbatim: their order is the shuffled
  // order the trainer iterates, not an artifact to canonicalise away.
  for (const std::vector<size_t>* idx :
       {&manifest.train_idx, &manifest.dev_idx, &manifest.test_idx}) {
    PutVarint(out, idx->size());
    for (size_t i : *idx) PutVarint(out, i);
  }
  const BuildStats& st = manifest.stats;
  PutVarint(out, st.exact);
  PutVarint(out, st.monte_carlo);
  PutVarint(out, st.cnf_proxy);
  PutVarint(out, st.skipped);
  PutVarint(out, st.stratified);
  PutFixed64(out, DoubleBits(st.wall_seconds));
  PutStatsMap(out, st.budget_trips);
  PutVarint(out, st.per_shard.size());
  for (const ShardBuildStats& s : st.per_shard) PutShardStats(out, s);
  PutFixed64(out, FnvChecksum(out.data(), out.size()));

  return WriteFileAtomic(path, out);
}

Result<CorpusManifest> ReadManifest(const std::string& path) {
  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("corpus manifest '" + path + "': " + what);
  };
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& buf = *bytes;
  if (buf.size() < 8 + 8 + 8) return bad("file too small");
  if (std::memcmp(buf.data(), kManifestMagic, 8) != 0) {
    return bad("bad magic (not a packed corpus manifest)");
  }
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, buf.data() + buf.size() - 8, 8);
  const uint64_t actual = FnvChecksum(buf.data(), buf.size() - 8);
  if (actual != stored_checksum) {
    return bad(StrFormat("checksum mismatch (stored %016llx, computed "
                         "%016llx) — file is corrupted",
                         static_cast<unsigned long long>(stored_checksum),
                         static_cast<unsigned long long>(actual)));
  }

  CorpusManifest m;
  ByteReader r(buf.data() + 8, buf.size() - 8 - 8);
  m.db_fingerprint = r.Fixed64();
  uint64_t len = r.Varint();
  if (!r.ok() || len > r.remaining()) return bad("truncated db name");
  m.db_name = std::string(r.Bytes(static_cast<size_t>(len)));
  m.db_facts = r.Varint();
  std::string_view payload_byte = r.Bytes(1);
  if (!r.ok()) return bad("truncated header");
  const uint8_t pb = static_cast<uint8_t>(payload_byte[0]);
  if (pb != kShapleyPayloadF64) {
    return bad(StrFormat("unknown shapley payload encoding %u", pb));
  }
  const uint64_t num_shards = r.Varint();
  if (!r.Backs(num_shards)) {
    return bad(BadCount("shard count", num_shards, r).message());
  }
  if (num_shards == 0) return bad("empty shard table");
  m.shard_entries.reserve(static_cast<size_t>(num_shards));
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_shards; ++i) {
    const uint64_t entries = r.Varint();
    if (entries > std::numeric_limits<uint64_t>::max() - total) {
      return bad("shard table entry counts overflow when summed");
    }
    total += entries;
    m.shard_entries.push_back(entries);
  }
  if (!r.ok()) return bad("truncated shard table");
  for (std::vector<size_t>* idx : {&m.train_idx, &m.dev_idx, &m.test_idx}) {
    auto v = ReadIndexVector(r, total);
    if (!v.ok()) return bad(v.status().message());
    *idx = std::move(*v);
  }
  BuildStats& st = m.stats;
  st.exact = static_cast<size_t>(r.Varint());
  st.monte_carlo = static_cast<size_t>(r.Varint());
  st.cnf_proxy = static_cast<size_t>(r.Varint());
  st.skipped = static_cast<size_t>(r.Varint());
  st.stratified = static_cast<size_t>(r.Varint());
  st.wall_seconds = BitsToDouble(r.Fixed64());
  auto trips = ReadStatsMap(r);
  if (!trips.ok()) return bad(trips.status().message());
  st.budget_trips = std::move(*trips);
  const uint64_t num_shard_stats = r.Varint();
  if (!r.Backs(num_shard_stats, kMinShardStatsBytes)) {
    return bad(BadCount("per-shard stats count", num_shard_stats, r).message());
  }
  st.per_shard.reserve(static_cast<size_t>(num_shard_stats));
  for (uint64_t i = 0; i < num_shard_stats; ++i) {
    auto s = ReadShardStats(r);
    if (!s.ok()) return bad(s.status().message());
    st.per_shard.push_back(std::move(*s));
  }
  if (!r.ok() || r.remaining() != 0) return bad("truncated or oversized");
  return m;
}

std::string ShardFileName(const std::string& base, size_t shard_index) {
  return base + StrFormat(".shard%03zu", shard_index);
}

// --- Loading against a database. ---

Result<uint64_t> CheckManifestDatabase(const CorpusManifest& manifest,
                                       const std::string& path,
                                       const Database& db) {
  if (manifest.db_name != db.name() || manifest.db_facts != db.num_facts()) {
    return Status::FailedPrecondition(
        StrFormat("corpus was built over database '%s' (%zu facts), got "
                  "'%s' (%zu facts)",
                  manifest.db_name.c_str(),
                  static_cast<size_t>(manifest.db_facts), db.name().c_str(),
                  db.num_facts()));
  }
  const uint64_t fingerprint = FactTableFingerprint(db);
  if (manifest.db_fingerprint != fingerprint) {
    return Status::InvalidArgument(StrFormat(
        "corpus manifest '%s' was built over a database with fact-table "
        "fingerprint %016llx, but the given database fingerprints %016llx "
        "— same name/size is not enough, the fact tables differ",
        path.c_str(),
        static_cast<unsigned long long>(manifest.db_fingerprint),
        static_cast<unsigned long long>(fingerprint)));
  }
  return fingerprint;
}

Result<std::vector<CorpusEntry>> ReadShardEntries(
    const Database& db, const CorpusManifest& manifest,
    const std::string& path, size_t s, uint64_t fingerprint,
    FaultInjector* fault) {
  const std::string shard_path = ShardFileName(path, s);
  auto reader = ShardReader::Open(shard_path, fingerprint, fault);
  if (!reader.ok()) return reader.status();
  const size_t expected = static_cast<size_t>(manifest.shard_entries[s]);
  if (reader->footer().shard_index != s || reader->num_records() != expected) {
    return Status::InvalidArgument(StrFormat(
        "corpus shard '%s' does not match its manifest (shard %u with %zu "
        "records, manifest expects shard %zu with %zu records)",
        shard_path.c_str(), reader->footer().shard_index,
        reader->num_records(), s, expected));
  }
  std::vector<CorpusEntry> entries;
  entries.reserve(reader->num_records());
  for (size_t i = 0; i < reader->num_records(); ++i) {
    auto entry = reader->ReadRecord(i, db);
    if (!entry.ok()) return entry.status();
    entries.push_back(std::move(*entry));
  }
  return entries;
}

}  // namespace lshap
