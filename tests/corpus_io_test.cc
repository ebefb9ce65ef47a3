#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/rng.h"
#include "corpus/corpus.h"
#include "corpus/format.h"
#include "corpus/io.h"
#include "datasets/imdb.h"

namespace lshap {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class CorpusIoTest : public ::testing::Test {
 protected:
  CorpusIoTest() : data_(MakeImdbDatabase({})), pool_(2) {
    CorpusConfig cfg;
    cfg.seed = 8;
    cfg.num_base_queries = 8;
    cfg.max_outputs_per_query = 6;
    cfg.query_gen.max_tables = 3;
    corpus_ = BuildCorpus(*data_.db, data_.graph, cfg, pool_);
    path_ = ::testing::TempDir() + "/corpus_io_test.lshapc";
  }
  ~CorpusIoTest() override {
    for (size_t s = 0; s < 8; ++s) {
      std::remove(ShardFileName(path_, s).c_str());
    }
    std::remove(path_.c_str());
  }

  static void ExpectSameCorpus(const Corpus& a, const Corpus& b) {
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t e = 0; e < a.entries.size(); ++e) {
      EXPECT_EQ(a.entries[e].query.id, b.entries[e].query.id);
      EXPECT_EQ(a.entries[e].query.ToSql(), b.entries[e].query.ToSql());
      ASSERT_EQ(a.entries[e].all_outputs, b.entries[e].all_outputs);
      ASSERT_EQ(a.entries[e].contributions.size(),
                b.entries[e].contributions.size());
      for (size_t i = 0; i < a.entries[e].contributions.size(); ++i) {
        const auto& ca = a.entries[e].contributions[i];
        const auto& cb = b.entries[e].contributions[i];
        EXPECT_EQ(ca.tuple, cb.tuple);
        ASSERT_EQ(ca.shapley.size(), cb.shapley.size());
        for (const auto& [f, v] : ca.shapley) {
          ASSERT_TRUE(cb.shapley.count(f));
          // Bit-identical doubles: the f64 payload is lossless.
          EXPECT_EQ(cb.shapley.at(f), v);
        }
      }
    }
    EXPECT_EQ(a.train_idx, b.train_idx);
    EXPECT_EQ(a.dev_idx, b.dev_idx);
    EXPECT_EQ(a.test_idx, b.test_idx);
  }

  GeneratedDb data_;
  ThreadPool pool_;
  Corpus corpus_;
  std::string path_;
};

TEST_F(CorpusIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 1).ok());
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(corpus_, *loaded);
  EXPECT_EQ(loaded->stats.exact, corpus_.stats.exact);
  EXPECT_EQ(loaded->stats.budget_trips, corpus_.stats.budget_trips);
}

TEST_F(CorpusIoTest, MultiShardPartitionIsContiguous) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 3).ok());
  auto manifest = ReadManifest(path_);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->num_shards(), 3u);
  EXPECT_EQ(static_cast<size_t>(manifest->total_entries()),
            corpus_.entries.size());
  size_t base = 0;
  for (size_t s = 0; s < 3; ++s) {
    auto reader =
        ShardReader::Open(ShardFileName(path_, s), manifest->db_fingerprint);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->footer().shard_index, s);
    EXPECT_EQ(reader->footer().base_entry, base);
    base += reader->num_records();
  }
  EXPECT_EQ(base, corpus_.entries.size());
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_TRUE(loaded.ok());
  ExpectSameCorpus(corpus_, *loaded);
}

TEST_F(CorpusIoTest, RejectsWrongDatabase) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 2).ok());
  // Different fact count: caught by the name/size precondition.
  ImdbConfig small_cfg;
  small_cfg.num_movies = 30;
  GeneratedDb smaller = MakeImdbDatabase(small_cfg);
  auto loaded = LoadCorpusShards(smaller.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  // Same counts, different facts: only the fingerprint catches this.
  ImdbConfig other_cfg;
  other_cfg.seed = 99;
  GeneratedDb other = MakeImdbDatabase(other_cfg);
  loaded = LoadCorpusShards(other.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
}

TEST_F(CorpusIoTest, RejectsMissingFile) {
  auto loaded = LoadCorpusShards(data_.db.get(), path_ + ".nope");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusIoTest, RejectsCorruptHeader) {
  WriteFile(path_, "NOT_A_CORPUS manifest, only some text\n");
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(CorpusIoTest, RejectsTamperedShardFingerprint) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 1).ok());
  const std::string shard = ShardFileName(path_, 0);
  std::string content = ReadFile(shard);
  // The trailer's first 8 bytes locate the footer; the footer starts with
  // the fingerprint, which the shard checksum deliberately does not cover
  // (it spans the records only) — so this tamper exercises the fingerprint
  // check, not the checksum.
  uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, content.data() + content.size() - 16, 8);
  content[footer_offset] ^= 0x01;
  WriteFile(shard, content);
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
}

TEST_F(CorpusIoTest, RejectsCorruptedShardBody) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 1).ok());
  const std::string shard = ShardFileName(path_, 0);
  std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(64);  // somewhere inside the first record
  char b = 0;
  f.read(&b, 1);
  f.seekp(64);
  b ^= 0x40;
  f.write(&b, 1);
  f.close();
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(CorpusIoTest, RejectsTruncatedShard) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 1).ok());
  const std::string shard = ShardFileName(path_, 0);
  const std::string content = ReadFile(shard);
  WriteFile(shard, content.substr(0, content.size() / 2));
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CorpusIoTest, RejectsMissingShardFile) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 2).ok());
  std::remove(ShardFileName(path_, 1).c_str());
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CorpusIoTest, RejectsCorruptedManifest) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 1).ok());
  std::string content = ReadFile(path_);
  content[content.size() / 2] ^= 0x10;
  WriteFile(path_, content);
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// --- Counts the file's bytes cannot back. ---

TEST_F(CorpusIoTest, InflatedShardTableFailsBeforeSizingAnything) {
  // A one-shard manifest whose entry count is rewritten (and re-checksummed
  // by WriteManifest): the loader must not size the corpus from it.
  for (uint64_t inflated : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 1).ok());
    auto manifest = ReadManifest(path_);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    manifest->shard_entries[0] = inflated;
    ASSERT_TRUE(WriteManifest(*manifest, path_).ok());

    auto strict = LoadCorpusShards(data_.db.get(), path_);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);

    ShardLoadOptions opt;
    opt.strict = false;
    ShardLoadReport report;
    auto loaded = LoadCorpusShards(data_.db.get(), path_, opt, &report);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(report.skipped_shards.size(), 1u);
    EXPECT_EQ(report.skipped_shards[0].shard_index, 0u);
    EXPECT_EQ(report.skipped_shards[0].code, StatusCode::kInvalidArgument);
    EXPECT_EQ(report.loaded_shards, 0u);
    EXPECT_EQ(report.dropped_entries, inflated);
    EXPECT_TRUE(loaded->entries.empty());
    EXPECT_EQ(report.dropped_split_refs, corpus_.entries.size());
  }
}

TEST_F(CorpusIoTest, ShardTableWhoseCountsOverflowIsRejected) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 2).ok());
  auto manifest = ReadManifest(path_);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  manifest->shard_entries = {uint64_t{1} << 63, uint64_t{1} << 63};
  ASSERT_TRUE(WriteManifest(*manifest, path_).ok());
  auto reread = ReadManifest(path_);
  ASSERT_FALSE(reread.ok());
  EXPECT_EQ(reread.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reread.status().message().find("overflow"), std::string::npos);
}

// A record with no outputs and one contribution (an empty tuple) whose
// lineage claims `size` facts; `tail` holds the encoded lineage that follows.
std::string LineageRecord(uint64_t size, const std::string& tail) {
  std::string rec;
  PutVarint(rec, 2);
  rec += "q1";
  const std::string sql = "SELECT * FROM t";  // never parsed here
  PutVarint(rec, sql.size());
  rec += sql;
  PutVarint(rec, 0);  // outputs
  PutVarint(rec, 1);  // contributions
  PutVarint(rec, 0);  // tuple arity
  PutVarint(rec, size);
  return rec + tail;
}

TEST_F(CorpusIoTest, RecordLineagesAreCheckedBeforeUse) {
  // A 27-byte record claiming 2^26 lineage facts must fail on the count,
  // before a 2^26-element fact array exists.
  std::string one_delta;
  PutVarint(one_delta, 1);
  // Fact ids are delta-coded in ascending order: a zero delta after the
  // first would merge two facts into one Shapley entry.
  std::string repeated;
  PutVarint(repeated, 5);
  PutVarint(repeated, 0);
  PutFixed64(repeated, 0);
  PutFixed64(repeated, 0);
  const struct {
    std::string record;
    const char* want;
  } kCases[] = {
      {LineageRecord(uint64_t{1} << 26, one_delta), "lineage size 67108864"},
      {LineageRecord(2, repeated), "repeated fact id"},
  };
  ASSERT_EQ(kCases[0].record.size(), 27u);
  for (const auto& c : kCases) {
    ByteReader r(c.record.data(), c.record.size());
    auto decoded = DecodeRawRecord(r, data_.db->num_facts());
    ASSERT_FALSE(decoded.ok()) << c.want;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(c.want), std::string::npos)
        << decoded.status().message();
  }
}

// --- Seeded corruption sweep over the manifest and shard decoders. ---

// Recomputes a mutated file's checksum so decoding runs past the checksum
// check. A manifest's checksum is its last 8 bytes. A shard's is the last
// footer field, just before the 16-byte trailer, over [0, footer_offset).
void ResealManifest(std::string& m) {
  if (m.size() < 16) return;
  const uint64_t sum = FnvChecksum(m.data(), m.size() - 8);
  std::memcpy(m.data() + m.size() - 8, &sum, 8);
}

void ResealShard(std::string& s) {
  if (s.size() < 40) return;
  uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, s.data() + s.size() - 16, 8);
  if (footer_offset > s.size() - 24) return;
  const uint64_t sum = FnvChecksum(s.data(), footer_offset);
  std::memcpy(s.data() + s.size() - 24, &sum, 8);
}

// One seeded mutation: a bit flip, a truncation, a random 8-byte overwrite,
// or a splice of `in`'s prefix onto a suffix of one of `donors`.
std::string Mutate(const std::string& in,
                   const std::vector<std::string>& donors, Rng& rng) {
  std::string out = in;
  switch (rng.NextBounded(4)) {
    case 0: {
      out[rng.NextBounded(out.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      break;
    }
    case 1:
      out.resize(rng.NextBounded(out.size()));
      break;
    case 2: {
      const size_t pos = rng.NextBounded(out.size());
      const uint64_t word = rng.Next();
      std::memcpy(out.data() + pos, &word,
                  std::min<size_t>(8, out.size() - pos));
      break;
    }
    default: {
      const std::string& donor = donors[rng.NextBounded(donors.size())];
      out = in.substr(0, rng.NextBounded(in.size() + 1)) +
            donor.substr(rng.NextBounded(donor.size() + 1));
      break;
    }
  }
  return out;
}

TEST_F(CorpusIoTest, SeededCorruptionSweepFailsCleanly) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 2).ok());
  const std::vector<std::string> paths = {path_, ShardFileName(path_, 0),
                                          ShardFileName(path_, 1)};
  std::vector<std::string> originals;
  for (const std::string& p : paths) originals.push_back(ReadFile(p));

  Rng rng(20260917);
  constexpr int kMutations = 300;
  size_t clean_loads = 0;
  size_t failures_past_checksum = 0;
  for (int i = 0; i < kMutations; ++i) {
    const size_t target = rng.NextBounded(paths.size());
    std::string mutated = Mutate(originals[target], originals, rng);
    // Half the mutations carry a valid checksum, so decoding runs past it.
    if (i % 2 == 0) {
      if (target == 0) {
        ResealManifest(mutated);
      } else {
        ResealShard(mutated);
      }
    }
    for (size_t f = 0; f < paths.size(); ++f) {
      WriteFile(paths[f], f == target ? mutated : originals[f]);
    }

    const auto manifest = ReadManifest(path_);
    for (bool strict : {true, false}) {
      ShardLoadOptions opt;
      opt.strict = strict;
      ShardLoadReport report;
      auto loaded = LoadCorpusShards(data_.db.get(), path_, opt, &report);
      SCOPED_TRACE(testing::Message() << "mutation " << i << " of file "
                                      << target << (strict ? " strict" : ""));
      if (!loaded.ok()) {
        EXPECT_NE(loaded.status().code(), StatusCode::kOk);
        EXPECT_FALSE(loaded.status().message().empty());
        if (loaded.status().message().find("checksum") == std::string::npos) {
          ++failures_past_checksum;
        }
        continue;
      }
      ++clean_loads;
      // A load never gets past a manifest that does not read.
      ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
      EXPECT_LE(loaded->entries.size(), manifest->total_entries());
      for (const auto* split :
           {&loaded->train_idx, &loaded->dev_idx, &loaded->test_idx}) {
        for (size_t idx : *split) EXPECT_LT(idx, loaded->entries.size());
      }
    }
  }
  // The sweep reached both outcomes, and decoders behind the checksum.
  EXPECT_GT(clean_loads, 0u);
  EXPECT_GT(failures_past_checksum, 0u);
}

// --- Atomic persistence (temp + rename). ---

TEST_F(CorpusIoTest, ShardSaveLeavesNoTempFiles) {
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 2).ok());
  std::ifstream mtmp(TempWritePath(path_));
  EXPECT_FALSE(mtmp.good());
  for (size_t s = 0; s < 2; ++s) {
    std::ifstream stmp(TempWritePath(ShardFileName(path_, s)));
    EXPECT_FALSE(stmp.good()) << "stale temp for shard " << s;
  }
}

TEST_F(CorpusIoTest, ShardSaveRecoversFromKilledWriter) {
  // A prior writer died mid-shard: stale temps for the manifest and a
  // shard, but no committed files. The new save must overwrite both and
  // the load must see only the committed artifacts.
  WriteFile(TempWritePath(path_), "dead manifest");
  WriteFile(TempWritePath(ShardFileName(path_, 0)), "dead shard bytes");
  auto before = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_FALSE(before.ok());  // nothing committed yet
  EXPECT_EQ(before.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(SaveCorpusShards(corpus_, path_, 2).ok());
  auto loaded = LoadCorpusShards(data_.db.get(), path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(corpus_, *loaded);
  std::ifstream mtmp(TempWritePath(path_));
  EXPECT_FALSE(mtmp.good());
  std::ifstream stmp(TempWritePath(ShardFileName(path_, 0)));
  EXPECT_FALSE(stmp.good());
}

// --- Quarantine mode (non-strict shard loads). ---

class CorpusQuarantineTest : public CorpusIoTest {
 protected:
  // Saves 3 shards and returns per-shard entry counts.
  std::vector<size_t> SaveThreeShards() {
    EXPECT_TRUE(SaveCorpusShards(corpus_, path_, 3).ok());
    std::vector<size_t> counts;
    auto manifest = ReadManifest(path_);
    EXPECT_TRUE(manifest.ok());
    for (size_t s = 0; s < 3; ++s) {
      auto reader = ShardReader::Open(ShardFileName(path_, s),
                                      manifest->db_fingerprint);
      EXPECT_TRUE(reader.ok());
      counts.push_back(reader->num_records());
    }
    return counts;
  }

  static size_t TotalSplitRefs(const Corpus& c) {
    return c.train_idx.size() + c.dev_idx.size() + c.test_idx.size();
  }

  void CorruptShardBody(size_t s) {
    const std::string shard = ShardFileName(path_, s);
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char b = 0;
    f.read(&b, 1);
    f.seekp(64);
    b ^= 0x40;
    f.write(&b, 1);
  }

  void TruncateShard(size_t s) {
    const std::string shard = ShardFileName(path_, s);
    const std::string content = ReadFile(shard);
    WriteFile(shard, content.substr(0, content.size() / 2));
  }

  void TamperShardFingerprint(size_t s) {
    const std::string shard = ShardFileName(path_, s);
    std::string content = ReadFile(shard);
    uint64_t footer_offset = 0;
    std::memcpy(&footer_offset, content.data() + content.size() - 16, 8);
    content[footer_offset] ^= 0x01;
    WriteFile(shard, content);
  }

  // Loads in quarantine mode and checks the invariants every quarantined
  // load must satisfy after exactly `bad_shard` was damaged.
  void ExpectQuarantined(size_t bad_shard, StatusCode want_code,
                         const std::vector<size_t>& shard_counts) {
    // Strict (the default) refuses the whole load.
    auto strict = LoadCorpusShards(data_.db.get(), path_, ShardLoadOptions{});
    ASSERT_FALSE(strict.ok());

    ShardLoadOptions opt;
    opt.strict = false;
    ShardLoadReport report;
    auto loaded = LoadCorpusShards(data_.db.get(), path_, opt, &report);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(report.loaded_shards, 2u);
    ASSERT_EQ(report.skipped_shards.size(), 1u);
    EXPECT_EQ(report.skipped_shards[0].shard_index, bad_shard);
    EXPECT_EQ(report.skipped_shards[0].code, want_code);
    EXPECT_FALSE(report.skipped_shards[0].reason.empty());
    EXPECT_EQ(report.dropped_entries, shard_counts[bad_shard]);
    EXPECT_EQ(loaded->entries.size(),
              corpus_.entries.size() - report.dropped_entries);
    // Split indices survive remapping: every ref is in range, and refs
    // into the skipped shard are dropped and accounted, none silently.
    for (const auto* split :
         {&loaded->train_idx, &loaded->dev_idx, &loaded->test_idx}) {
      for (size_t idx : *split) EXPECT_LT(idx, loaded->entries.size());
    }
    EXPECT_EQ(TotalSplitRefs(*loaded) + report.dropped_split_refs,
              TotalSplitRefs(corpus_));
    EXPECT_GT(report.dropped_split_refs, 0u);
  }
};

TEST_F(CorpusQuarantineTest, SkipsCorruptedShardBody) {
  const auto counts = SaveThreeShards();
  CorruptShardBody(1);
  ExpectQuarantined(1, StatusCode::kInvalidArgument, counts);
}

TEST_F(CorpusQuarantineTest, SkipsTruncatedShard) {
  const auto counts = SaveThreeShards();
  TruncateShard(2);
  ExpectQuarantined(2, StatusCode::kInvalidArgument, counts);
}

TEST_F(CorpusQuarantineTest, SkipsTamperedShardFingerprint) {
  const auto counts = SaveThreeShards();
  TamperShardFingerprint(0);
  ExpectQuarantined(0, StatusCode::kInvalidArgument, counts);
}

TEST_F(CorpusQuarantineTest, SkipsMissingShardFile) {
  const auto counts = SaveThreeShards();
  std::remove(ShardFileName(path_, 1).c_str());
  ExpectQuarantined(1, StatusCode::kNotFound, counts);
}

TEST_F(CorpusQuarantineTest, ManifestCorruptionIsFatalEvenNonStrict) {
  SaveThreeShards();
  std::string content = ReadFile(path_);
  content[content.size() / 2] ^= 0x10;
  WriteFile(path_, content);
  ShardLoadOptions opt;
  opt.strict = false;
  auto loaded = LoadCorpusShards(data_.db.get(), path_, opt);
  ASSERT_FALSE(loaded.ok());
}

TEST_F(CorpusQuarantineTest, StrictSuccessReportsEverythingLoaded) {
  SaveThreeShards();
  ShardLoadReport report;
  auto loaded =
      LoadCorpusShards(data_.db.get(), path_, ShardLoadOptions{}, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.loaded_shards, 3u);
  EXPECT_TRUE(report.skipped_shards.empty());
  EXPECT_EQ(report.dropped_entries, 0u);
  EXPECT_EQ(report.dropped_split_refs, 0u);
  ExpectSameCorpus(corpus_, *loaded);
}

}  // namespace
}  // namespace lshap
