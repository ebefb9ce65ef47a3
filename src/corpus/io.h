#ifndef LSHAP_CORPUS_IO_H_
#define LSHAP_CORPUS_IO_H_

#include <string>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "corpus/corpus.h"

namespace lshap {

// Corpus persistence. A corpus is stored in one format: the packed binary
// manifest plus shard files of corpus/format.h. tools/corpus_inspect dumps
// one for human reading.
//
// Fact ids are database-relative: loading requires the same deterministic
// database build (same generator config and seed), which the manifest and
// every shard footer record by database name, fact count and an FNV-1a
// fact-table fingerprint.

// Saves a corpus as a packed binary manifest at `path` plus
// `<path>.shardNNN` shard files (format.h). `num_shards` 0 means one
// shard; entries are partitioned contiguously. Shapley values are stored
// as lossless float64.
Status SaveCorpusShards(const Corpus& corpus, const std::string& path,
                        size_t num_shards = 0);

// Shard-load policy. The default (strict) fails the whole load on the
// first bad shard. Non-strict is quarantine mode: a shard that is missing,
// truncated, corrupted, or provenance-mismatched is skipped with per-shard
// accounting in ShardLoadReport, and the surviving entries (with their
// split indices remapped) still load — for salvaging a partially damaged
// corpus directory. Manifest errors and database identity/fingerprint
// mismatches are fatal in both modes: without a trusted manifest there is
// nothing sound to quarantine against.
struct ShardLoadOptions {
  bool strict = true;
  // Optional fault injector threaded into ShardReader::Open (polled at
  // kSiteShardOpen / kSiteShardRecord); tests use it to force read faults.
  FaultInjector* fault = nullptr;
};

// Per-shard accounting of a quarantined load.
struct ShardLoadReport {
  struct SkippedShard {
    size_t shard_index = 0;
    StatusCode code = StatusCode::kInternal;  // why the shard was skipped
    std::string reason;                      // the full error message
  };
  size_t loaded_shards = 0;
  std::vector<SkippedShard> skipped_shards;
  // Entries lost with the skipped shards (from the manifest shard table),
  // and train/dev/test split references that pointed into them.
  size_t dropped_entries = 0;
  size_t dropped_split_refs = 0;
};

// Loads a packed binary corpus written by SaveCorpusShards or
// BuildCorpusToShards. Queries are re-parsed from their SQL. `db` must be
// the database the corpus was built over: a different name or fact count
// fails with kFailedPrecondition, a different fact-table fingerprint with
// kInvalidArgument. Every shard is checked against that fingerprint and
// its own checksum, and nothing is sized from the manifest's shard table
// before the shard itself confirms its record count.
Result<Corpus> LoadCorpusShards(const Database* db, const std::string& path);

// As above with an explicit load policy; `report` (optional) receives the
// per-shard accounting. In strict mode a successful load reports all
// shards loaded and nothing skipped.
Result<Corpus> LoadCorpusShards(const Database* db, const std::string& path,
                                const ShardLoadOptions& options,
                                ShardLoadReport* report = nullptr);

}  // namespace lshap

#endif  // LSHAP_CORPUS_IO_H_
