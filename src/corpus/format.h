#ifndef LSHAP_CORPUS_FORMAT_H_
#define LSHAP_CORPUS_FORMAT_H_

// Packed binary corpus shard format (DESIGN.md §10).
//
// A binary corpus is a manifest file plus K shard files:
//
//   <base>            manifest: db identity + fingerprint, shard table,
//                     train/dev/test split permutations, BuildStats
//   <base>.shard000   shard 0: packed records + footer index
//   <base>.shard001   ...
//
// Each shard file is
//
//   [magic 8B] [record 0] [record 1] ... [footer] [footer_offset 8B] [magic 8B]
//
// where a record is one CorpusEntry with varint-packed lengths, zigzag
// varint ints, delta-encoded sorted fact-id lists, and raw little-endian
// f64 Shapley payloads (a lossless round trip). The footer carries the
// database fact-table fingerprint, the record offset index, per-rung
// BuildStats counts for the shard, and an FNV-1a checksum of everything
// before the footer — so truncation, corruption and database mismatch are
// each detected with a precise error. Readers parse in place over one
// loaded buffer (no per-field copies beyond the decoded entry itself).
//
// This is the only corpus format (corpus/io.h saves and loads it). Every
// count a reader decodes is bounded by the bytes left to back it before
// anything is sized from it, so a corrupted or inflated length field fails
// with kInvalidArgument instead of a large allocation.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.h"
#include "common/hash.h"
#include "common/status.h"
#include "corpus/corpus.h"

namespace lshap {

// FaultInjector sites in the shard-read path. Armed in tests to prove
// that injected I/O and decode faults surface as clean Result<T> errors
// with no partial state (corpus_stream_test.cc).
inline constexpr char kSiteShardOpen[] = "corpus.shard_open";
inline constexpr char kSiteShardRecord[] = "corpus.shard_record";

// Format magics, 8 bytes each. The trailing version digits gate evolution:
// readers reject files whose magic they do not know. Version 02 appended
// the stratified-rung count to the footer/manifest stats blocks; version 01
// files fail on the magic check.
inline constexpr char kShardMagic[9] = "LSHPCS02";
inline constexpr char kShardTrailerMagic[9] = "LSHPSFTR";
inline constexpr char kManifestMagic[9] = "LSHPCM02";

// --- Varint primitives (LEB128, zigzag for signed), shared by the shard
// writer/reader and the manifest codec. ---

void PutVarint(std::string& out, uint64_t v);
void PutZigzag(std::string& out, int64_t v);

inline void PutFixed64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

// Bounds-checked cursor over a byte buffer. All getters are no-ops after
// the first failure; callers check ok() once per record (or per header)
// instead of after every field.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  uint64_t Varint();
  int64_t Zigzag();
  uint64_t Fixed64();
  // Returns a view into the underlying buffer (zero-copy); empty on error.
  std::string_view Bytes(size_t n);

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  // True if no read has failed and `n` elements of at least `min_bytes`
  // encoded bytes each fit in what remains. Every count read from a file
  // passes this before anything is sized from it.
  bool Backs(uint64_t n, size_t min_bytes = 1) const {
    return ok_ && n <= remaining() / min_bytes;
  }
  void Fail() { ok_ = false; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Record codec. ---

// Appends one packed record for `entry` to `out`.
void EncodeCorpusEntry(const CorpusEntry& entry, std::string& out);

// A record decoded without a database: the query stays as (id, sql) text.
// What tools/corpus_inspect prints, and the intermediate step of full
// decoding (CorpusEntry needs the database to re-parse the query).
struct RawRecord {
  std::string query_id;
  std::string sql;
  std::vector<OutputTuple> all_outputs;
  std::vector<TupleContribution> contributions;
};

// Decodes one record in place. Fact ids are validated against
// `num_db_facts`; any malformed field fails with kInvalidArgument.
Result<RawRecord> DecodeRawRecord(ByteReader& reader, size_t num_db_facts);

// --- Shard files. ---

// Everything a shard's footer records about its payload.
struct ShardFooter {
  uint64_t db_fingerprint = 0;
  uint32_t shard_index = 0;
  uint64_t base_entry = 0;  // global index of the shard's first entry
  std::vector<uint64_t> record_offsets;  // absolute, one per record
  // The shard's rung counts (zero when the shard was written by a plain
  // re-save that has no per-shard provenance).
  RungCounts rungs;
  uint64_t checksum = 0;  // FNV-1a of bytes [0, footer_offset)
};

// Streams packed records to `path`, then seals the file with the footer
// index and checksum. Records are written (and flushed to the OS) as they
// are appended, so the builder's memory never holds more than the entry
// being encoded. The stream actually targets TempWritePath(path); Finish
// renames it into place, so a writer killed mid-shard never leaves a
// partial file under the final name (common/fileio.h).
class ShardWriter {
 public:
  ShardWriter(std::string path, uint64_t db_fingerprint, uint32_t shard_index,
              uint64_t base_entry);
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  Status Append(const CorpusEntry& entry);

  // Writes the footer (embedding `rungs` when non-null) and closes the
  // file. Must be the last call.
  Status Finish(const RungCounts* rungs = nullptr);

  size_t num_records() const { return offsets_.size(); }
  uint64_t bytes_written() const { return bytes_; }

 private:
  struct Impl;
  Impl* impl_;
  std::vector<uint64_t> offsets_;
  uint64_t bytes_ = 0;
};

// Zero-copy reader over one loaded shard file: the whole file is read into
// a single buffer, the footer is parsed and checksum-verified, and records
// decode on demand straight out of the buffer.
class ShardReader {
 public:
  // Validates magic, trailer, footer and checksum; `expected_fingerprint`
  // (when non-zero) must match the footer's db fingerprint or the open
  // fails with kInvalidArgument — the provenance check that the corpus was
  // built over exactly this database. A non-null `fault` is polled at
  // kSiteShardOpen before the file is read and retained for per-record
  // polls at kSiteShardRecord.
  static Result<ShardReader> Open(const std::string& path,
                                  uint64_t expected_fingerprint = 0,
                                  FaultInjector* fault = nullptr);

  const ShardFooter& footer() const { return footer_; }
  size_t num_records() const { return footer_.record_offsets.size(); }
  uint64_t file_bytes() const { return buffer_.size(); }

  // Record i: ReadRawRecord checks it (a kSiteShardRecord poll, the index,
  // the record's bounds, no trailing bytes); ReadRecord then re-parses its
  // query against `db`.
  Result<CorpusEntry> ReadRecord(size_t i, const Database& db) const;
  Result<RawRecord> ReadRawRecord(size_t i, size_t num_db_facts) const;

 private:
  ShardReader() = default;

  std::string buffer_;
  ShardFooter footer_;
  size_t records_end_ = 0;  // == footer offset
  FaultInjector* fault_ = nullptr;  // not owned; may be null
};

// --- Manifest. ---

// The corpus-level index: database identity, shard table, split
// permutations and BuildStats (including per-shard breakdowns).
struct CorpusManifest {
  std::string db_name;
  uint64_t db_facts = 0;
  uint64_t db_fingerprint = 0;
  std::vector<uint64_t> shard_entries;  // entries per shard, shard order
  std::vector<size_t> train_idx;
  std::vector<size_t> dev_idx;
  std::vector<size_t> test_idx;
  BuildStats stats;

  size_t num_shards() const { return shard_entries.size(); }
  // ReadManifest rejects a shard table whose counts overflow this sum.
  uint64_t total_entries() const {
    uint64_t n = 0;
    for (uint64_t e : shard_entries) n += e;
    return n;
  }
};

Status WriteManifest(const CorpusManifest& manifest, const std::string& path);
Result<CorpusManifest> ReadManifest(const std::string& path);

// Canonical shard file name: "<base>.shard000", "<base>.shard001", ...
std::string ShardFileName(const std::string& base, size_t shard_index);

// --- Loading against a database (corpus/io.h and corpus/stream.h). ---

// Checks that `manifest`, read from `path`, was built over `db`: the same
// name and fact count (else kFailedPrecondition), then the same fact-table
// fingerprint (else kInvalidArgument). Returns db's fingerprint, which every
// shard footer must match.
Result<uint64_t> CheckManifestDatabase(const CorpusManifest& manifest,
                                       const std::string& path,
                                       const Database& db);

// Opens shard `s` of the corpus at `path` (ShardReader::Open checks its
// checksum and `fingerprint`), checks the footer's shard index and record
// count against `manifest`, and decodes every record against `db`. Fails
// without a partial result: a shard is the unit a quarantine load skips.
// `fault` is polled as ShardReader polls it (open, then each record).
Result<std::vector<CorpusEntry>> ReadShardEntries(
    const Database& db, const CorpusManifest& manifest,
    const std::string& path, size_t s, uint64_t fingerprint,
    FaultInjector* fault);

}  // namespace lshap

#endif  // LSHAP_CORPUS_FORMAT_H_
