// Inspects a packed binary corpus (corpus/format.h): manifest summary,
// per-shard footer index, per-rung build stats, and a few decoded sample
// records. Runs without the originating database — records print as raw
// (query id, SQL) text.
//
// Usage:
//   corpus_inspect <manifest-path> [--records N]
//   corpus_inspect --demo [--records N]
//
// --demo builds a small two-shard IMDB corpus in a temp directory and then
// inspects it; the CI smoke step uses this to exercise the whole binary
// pipeline (sharded build -> manifest -> shard open -> record decode) with
// no fixture files.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/corpus.h"
#include "corpus/format.h"
#include "datasets/imdb.h"
#include "relational/tuple.h"

namespace lshap {
namespace {

void PrintRawRecord(const RawRecord& rec, size_t global_idx) {
  std::printf("    record %zu: id=%s\n", global_idx, rec.query_id.c_str());
  std::printf("      sql: %s\n", rec.sql.c_str());
  std::printf("      outputs: %zu, contributions: %zu\n",
              rec.all_outputs.size(), rec.contributions.size());
  for (size_t c = 0; c < rec.contributions.size() && c < 2; ++c) {
    const TupleContribution& contrib = rec.contributions[c];
    // Top facts by Shapley value.
    std::vector<std::pair<FactId, double>> top(contrib.shapley.begin(),
                                               contrib.shapley.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    std::string facts;
    for (size_t i = 0; i < top.size() && i < 3; ++i) {
      facts += StrFormat("%s#%u=%.4g", i ? ", " : "", top[i].first,
                         top[i].second);
    }
    std::printf("      tuple %s: lineage %zu, top [%s]\n",
                OutputTupleToString(contrib.tuple).c_str(),
                contrib.shapley.size(), facts.c_str());
  }
}

int Inspect(const std::string& path, size_t sample_records) {
  auto manifest = ReadManifest(path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "corpus_inspect: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  const CorpusManifest& m = *manifest;

  std::printf("manifest %s\n", path.c_str());
  std::printf("  db: %s (%llu facts), fingerprint %016llx\n",
              m.db_name.c_str(), static_cast<unsigned long long>(m.db_facts),
              static_cast<unsigned long long>(m.db_fingerprint));
  std::printf("  shards: %zu, entries: %llu\n", m.num_shards(),
              static_cast<unsigned long long>(m.total_entries()));
  std::printf("  splits: train %zu / dev %zu / test %zu\n",
              m.train_idx.size(), m.dev_idx.size(), m.test_idx.size());
  std::printf("  build: attempted %zu = exact %zu + strat %zu + mc %zu + "
              "cnf %zu + skipped %zu (%.2fs)\n",
              m.stats.attempted(), m.stats.exact, m.stats.stratified,
              m.stats.monte_carlo, m.stats.cnf_proxy, m.stats.skipped,
              m.stats.wall_seconds);
  for (const ShardBuildStats& s : m.stats.per_shard) {
    std::printf("    built shard %zu: %zu entries, rungs %zu/%zu/%zu/%zu/%zu "
                "(%.2fs)\n",
                static_cast<size_t>(s.shard_index), s.entries, s.exact,
                s.stratified, s.monte_carlo, s.cnf_proxy,
                s.skipped, s.wall_seconds);
  }

  uint64_t total_bytes = 0;
  for (size_t s = 0; s < m.num_shards(); ++s) {
    const std::string shard_path = ShardFileName(path, s);
    auto reader = ShardReader::Open(shard_path, m.db_fingerprint);
    if (!reader.ok()) {
      std::fprintf(stderr, "corpus_inspect: shard %zu: %s\n", s,
                   reader.status().ToString().c_str());
      return 1;
    }
    const ShardFooter& f = reader->footer();
    total_bytes += reader->file_bytes();
    const double per_record =
        reader->num_records() > 0
            ? static_cast<double>(reader->file_bytes()) /
                  static_cast<double>(reader->num_records())
            : 0.0;
    std::printf("  shard %zu: %s\n", s, shard_path.c_str());
    std::printf("    records %zu (base %llu), %llu bytes (%.1f B/record), "
                "checksum %016llx\n",
                reader->num_records(),
                static_cast<unsigned long long>(f.base_entry),
                static_cast<unsigned long long>(reader->file_bytes()),
                per_record, static_cast<unsigned long long>(f.checksum));
    std::printf("    rungs: exact %zu, strat %zu, mc %zu, cnf %zu, "
                "skipped %zu\n",
                f.exact, f.stratified, f.monte_carlo, f.cnf_proxy, f.skipped);
    for (size_t i = 0; i < reader->num_records() && i < sample_records; ++i) {
      auto rec = reader->ReadRawRecord(i, static_cast<size_t>(m.db_facts));
      if (!rec.ok()) {
        std::fprintf(stderr, "corpus_inspect: record %zu: %s\n", i,
                     rec.status().ToString().c_str());
        return 1;
      }
      PrintRawRecord(*rec, static_cast<size_t>(f.base_entry) + i);
    }
  }
  std::printf("  total on disk: %llu bytes across %zu shard files\n",
              static_cast<unsigned long long>(total_bytes), m.num_shards());
  return 0;
}

int RunDemo(size_t sample_records) {
  char dir_template[] = "/tmp/lshap_corpus_demo.XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "corpus_inspect: mkdtemp failed\n");
    return 1;
  }
  const std::string path = std::string(dir) + "/demo.lshapc";

  GeneratedDb data = MakeImdbDatabase({});
  ThreadPool pool(2);
  CorpusConfig cfg;
  cfg.seed = 11;
  cfg.num_base_queries = 8;
  cfg.max_outputs_per_query = 4;
  cfg.query_gen.max_tables = 3;
  cfg.num_shards = 2;
  auto stats = BuildCorpusToShards(*data.db, data.graph, cfg, pool, path);
  if (!stats.ok()) {
    std::fprintf(stderr, "corpus_inspect: demo build: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("demo corpus built at %s\n\n", path.c_str());
  const int rc = Inspect(path, sample_records);

  // Best-effort cleanup of the demo files.
  for (size_t s = 0; s < 2; ++s) {
    std::remove(ShardFileName(path, s).c_str());
  }
  std::remove(path.c_str());
  rmdir(dir);
  return rc;
}

}  // namespace
}  // namespace lshap

int main(int argc, char** argv) {
  std::string path;
  bool demo = false;
  size_t sample_records = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--records" && i + 1 < argc) {
      sample_records = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: corpus_inspect <manifest-path> [--records N]\n"
                   "       corpus_inspect --demo [--records N]\n");
      return 2;
    }
  }
  if (demo) return lshap::RunDemo(sample_records);
  if (path.empty()) {
    std::fprintf(stderr, "corpus_inspect: no manifest path (or --demo)\n");
    return 2;
  }
  return lshap::Inspect(path, sample_records);
}
