// Builds a DBShap-style corpus over the synthetic IMDB database, saves it as
// a packed binary corpus (a manifest plus shard files — the redistributable
// artifact), reloads it, and verifies the round trip — the workflow for
// sharing ground-truth corpora between runs without recomputing Shapley
// values. `corpus_inspect <path>` dumps the saved files.
#include <cstdio>

#include "corpus/corpus.h"
#include "corpus/io.h"
#include "datasets/imdb.h"

using namespace lshap;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/dbshap_imdb.lshapc";

  ThreadPool pool;
  GeneratedDb data = MakeImdbDatabase({});
  CorpusConfig cfg;
  cfg.seed = 42;
  cfg.num_base_queries = 20;
  cfg.max_outputs_per_query = 16;
  std::printf("Building corpus (evaluating log + exact Shapley values)...\n");
  Corpus corpus = BuildCorpus(*data.db, data.graph, cfg, pool);

  size_t quartets = 0;
  for (const auto& e : corpus.entries) {
    for (const auto& c : e.contributions) quartets += c.shapley.size();
  }
  std::printf("  %zu queries, %zu (q,t,f,shapley) quartets\n",
              corpus.entries.size(), quartets);

  constexpr size_t kShards = 2;
  Status s = SaveCorpusShards(corpus, path, kShards);
  if (!s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("Saved to %s (+ %zu shard files)\n", path.c_str(), kShards);

  auto loaded = LoadCorpusShards(data.db.get(), path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Reloaded: %zu queries (train %zu / dev %zu / test %zu)\n",
              loaded->entries.size(), loaded->train_idx.size(),
              loaded->dev_idx.size(), loaded->test_idx.size());

  // Spot-check one quartet survives the round trip bit-exactly.
  const auto& orig = corpus.entries[0].contributions[0];
  const auto& back = loaded->entries[0].contributions[0];
  std::printf("Round-trip check on first contribution: %s\n",
              orig.shapley == back.shapley ? "OK" : "MISMATCH");
  return 0;
}
