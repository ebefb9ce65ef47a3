#include "corpus/io.h"

#include <algorithm>
#include <iterator>

#include "corpus/format.h"

namespace lshap {

Status SaveCorpusShards(const Corpus& corpus, const std::string& path,
                        size_t num_shards) {
  if (corpus.db == nullptr) {
    return Status::FailedPrecondition("corpus has no database");
  }
  if (num_shards == 0) num_shards = 1;
  const uint64_t fingerprint = FactTableFingerprint(*corpus.db);

  CorpusManifest manifest;
  manifest.db_name = corpus.db->name();
  manifest.db_facts = corpus.db->num_facts();
  manifest.db_fingerprint = fingerprint;
  manifest.train_idx = corpus.train_idx;
  manifest.dev_idx = corpus.dev_idx;
  manifest.test_idx = corpus.test_idx;
  manifest.stats = corpus.stats;

  // Re-saves carry the build's per-shard rung provenance into the shard
  // footers only when this save's partition matches the build's (same
  // shard count and entry distribution); otherwise the footers hold zeros
  // and the manifest still has the full BuildStats.
  const std::vector<ShardBuildStats>& per_shard = corpus.stats.per_shard;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t lo = corpus.entries.size() * s / num_shards;
    const size_t hi = corpus.entries.size() * (s + 1) / num_shards;
    ShardWriter writer(ShardFileName(path, s), fingerprint,
                       static_cast<uint32_t>(s), lo);
    for (size_t i = lo; i < hi; ++i) {
      Status st = writer.Append(corpus.entries[i]);
      if (!st.ok()) return st;
    }
    const ShardBuildStats* stats = nullptr;
    if (per_shard.size() == num_shards && per_shard[s].entries == hi - lo) {
      stats = &per_shard[s];
    }
    Status st = writer.Finish(stats);
    if (!st.ok()) return st;
    manifest.shard_entries.push_back(hi - lo);
  }
  return WriteManifest(manifest, path);
}

Result<Corpus> LoadCorpusShards(const Database* db, const std::string& path) {
  return LoadCorpusShards(db, path, ShardLoadOptions{}, nullptr);
}

Result<Corpus> LoadCorpusShards(const Database* db, const std::string& path,
                                const ShardLoadOptions& options,
                                ShardLoadReport* report) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (report != nullptr) *report = ShardLoadReport{};
  auto manifest = ReadManifest(path);
  if (!manifest.ok()) return manifest.status();
  const CorpusManifest& m = *manifest;
  auto fingerprint = CheckManifestDatabase(m, path, *db);
  if (!fingerprint.ok()) return fingerprint.status();

  Corpus corpus;
  corpus.db = db;
  corpus.stats = m.stats;
  // Where each shard's entries start in corpus.entries, or kDropped for a
  // quarantined shard. Nothing is sized from the manifest's shard table:
  // the corpus grows only by what each shard's own records confirm.
  constexpr size_t kDropped = static_cast<size_t>(-1);
  std::vector<size_t> loaded_base(m.num_shards(), kDropped);
  bool any_skipped = false;
  for (size_t s = 0; s < m.num_shards(); ++s) {
    auto entries =
        ReadShardEntries(*db, m, path, s, *fingerprint, options.fault);
    if (!entries.ok()) {
      if (options.strict) return entries.status();
      any_skipped = true;
      if (report != nullptr) {
        report->skipped_shards.push_back(
            {s, entries.status().code(), entries.status().message()});
        report->dropped_entries += static_cast<size_t>(m.shard_entries[s]);
      }
      continue;
    }
    if (report != nullptr) ++report->loaded_shards;
    loaded_base[s] = corpus.entries.size();
    corpus.entries.insert(corpus.entries.end(),
                          std::make_move_iterator(entries->begin()),
                          std::make_move_iterator(entries->end()));
  }

  size_t dropped_refs = 0;
  if (any_skipped) {
    // Manifest-global index of each shard's first entry: the shard table's
    // prefix sums, which ReadManifest has checked do not overflow.
    std::vector<uint64_t> first(m.num_shards());
    uint64_t next = 0;
    for (size_t s = 0; s < m.num_shards(); ++s) {
      first[s] = next;
      next += m.shard_entries[s];
    }
    auto remap_split = [&](const std::vector<size_t>& in,
                           std::vector<size_t>& out) {
      for (size_t i : in) {
        // The last shard starting at or before i holds entry i (a split
        // index is below the total, so empty shards are never picked).
        const size_t s = static_cast<size_t>(
            std::upper_bound(first.begin(), first.end(), i) - first.begin() -
            1);
        if (loaded_base[s] == kDropped) {
          ++dropped_refs;
        } else {
          out.push_back(loaded_base[s] + static_cast<size_t>(i - first[s]));
        }
      }
    };
    remap_split(m.train_idx, corpus.train_idx);
    remap_split(m.dev_idx, corpus.dev_idx);
    remap_split(m.test_idx, corpus.test_idx);
  } else {
    corpus.train_idx = m.train_idx;
    corpus.dev_idx = m.dev_idx;
    corpus.test_idx = m.test_idx;
  }
  if (report != nullptr) report->dropped_split_refs = dropped_refs;
  return corpus;
}

}  // namespace lshap
