#include "serving/cache.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"

namespace lshap {

RankingCache::RankingCache(size_t capacity, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  per_shard_capacity_ = capacity == 0 ? 0 : (capacity + num_shards - 1) / num_shards;
  shards_ = std::vector<Shard>(num_shards);
}

std::string RankingCache::Key(uint64_t db_fingerprint, const Query& q,
                              const OutputTuple& t) {
  std::string key;
  key.reserve(64);
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(db_fingerprint));
  key.append(fp, 16);
  key.push_back('\x1f');
  key.append(q.ToSql());
  key.push_back('\x1f');
  key.append(OutputTupleToString(t));
  return key;
}

RankingCache::Shard& RankingCache::ShardFor(const std::string& key) {
  return shards_[FnvChecksum(key.data(), key.size()) % shards_.size()];
}

bool RankingCache::Get(const std::string& key, CachedRanking* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(key));
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (out != nullptr) *out = it->second->value;
  return true;
}

void RankingCache::Put(const std::string& key, CachedRanking value) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(key));
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index.emplace(std::string_view(shard.lru.front().key),
                      shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    // The index key views the evicted node's string: erase index first.
    shard.index.erase(std::string_view(shard.lru.back().key));
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

size_t RankingCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.lru.size();
  }
  return n;
}

uint64_t RankingCache::hits() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.hits;
  }
  return n;
}

uint64_t RankingCache::misses() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.misses;
  }
  return n;
}

uint64_t RankingCache::evictions() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.evictions;
  }
  return n;
}

}  // namespace lshap
