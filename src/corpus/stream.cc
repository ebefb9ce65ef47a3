#include "corpus/stream.h"

#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace lshap {

size_t CorpusStream::ShardOf(size_t i) const {
  LSHAP_CHECK_LT(i, num_entries());
  // K is small (shards are coarse units); a linear scan beats keeping a
  // parallel cumulative array in every implementation.
  for (size_t s = 0; s < num_shards(); ++s) {
    if (i < shard_base(s) + shard_entries(s)) return s;
  }
  return num_shards() - 1;
}

InMemoryCorpusStream::InMemoryCorpusStream(const Corpus& corpus)
    : corpus_(&corpus) {
  LSHAP_CHECK(corpus.db != nullptr);
}

Result<CorpusSlice> InMemoryCorpusStream::ReadShard(size_t s) const {
  if (s != 0) {
    return Status::InvalidArgument(
        StrFormat("in-memory stream has one shard, got %zu", s));
  }
  CorpusSlice slice;
  slice.shard_index = 0;
  slice.base_entry = 0;
  // Alias the resident corpus: no copy, no ownership (the corpus outlives
  // the stream by contract).
  slice.corpus = std::shared_ptr<const Corpus>(corpus_, [](const Corpus*) {});
  return slice;
}

Result<ShardedCorpusStream> ShardedCorpusStream::Open(
    const Database* db, const std::string& path) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  auto manifest = ReadManifest(path);
  if (!manifest.ok()) return manifest.status();
  auto fingerprint = CheckManifestDatabase(*manifest, path, *db);
  if (!fingerprint.ok()) return fingerprint.status();

  ShardedCorpusStream stream;
  stream.db_ = db;
  stream.path_ = path;
  stream.fingerprint_ = *fingerprint;
  stream.manifest_ = std::move(*manifest);
  stream.bases_.reserve(stream.manifest_.num_shards());
  size_t base = 0;
  for (uint64_t n : stream.manifest_.shard_entries) {
    stream.bases_.push_back(base);
    base += static_cast<size_t>(n);
  }
  stream.counter_ = std::make_shared<ResidentCounter>();
  return stream;
}

Result<CorpusSlice> ShardedCorpusStream::ReadShard(size_t s) const {
  if (s >= manifest_.num_shards()) {
    return Status::InvalidArgument(
        StrFormat("shard %zu out of range (corpus has %zu)", s,
                  manifest_.num_shards()));
  }
  if (fault_ != nullptr) {
    Status injected = fault_->OnSite(kSiteStreamRead);
    if (!injected.ok()) return injected;
  }
  auto entries =
      ReadShardEntries(*db_, manifest_, path_, s, fingerprint_, fault_);
  if (!entries.ok()) return entries.status();
  auto chunk = std::make_unique<Corpus>();
  chunk->db = db_;
  chunk->entries = std::move(*entries);

  const size_t n = chunk->entries.size();
  std::shared_ptr<ResidentCounter> counter = counter_;
  size_t cur = counter->resident.fetch_add(n) + n;
  size_t peak = counter->peak.load();
  while (cur > peak && !counter->peak.compare_exchange_weak(peak, cur)) {
  }

  CorpusSlice slice;
  slice.shard_index = s;
  slice.base_entry = bases_[s];
  // The deleter keeps the counter alive, so slices may outlive the stream.
  slice.corpus = std::shared_ptr<const Corpus>(
      chunk.release(), [counter, n](const Corpus* p) {
        counter->resident.fetch_sub(n);
        delete p;
      });
  return slice;
}

size_t ShardedCorpusStream::resident_entries() const {
  return counter_->resident.load();
}

size_t ShardedCorpusStream::peak_resident_entries() const {
  return counter_->peak.load();
}

ShardCursor::ShardCursor(const CorpusStream& stream, ThreadPool* pool,
                         std::vector<size_t> visit_order)
    : stream_(stream), pool_(pool), order_(std::move(visit_order)) {
  if (order_.empty()) {
    order_.resize(stream.num_shards());
    for (size_t s = 0; s < order_.size(); ++s) order_[s] = s;
  }
  // Warm the pipeline: shard order_[0] starts decoding immediately so the
  // first Next() overlaps with whatever the consumer does before it.
  if (pool_ != nullptr) PrefetchOne();
}

ShardCursor::~ShardCursor() {
  // A prefetch task captures `this`'s stream reference; drain before the
  // members go away.
  for (auto& f : inflight_) {
    if (f.valid()) f.wait();
  }
}

void ShardCursor::PrefetchOne() {
  if (next_ >= order_.size()) return;
  const size_t s = order_[next_++];
  if (pool_ == nullptr) {
    std::promise<Result<CorpusSlice>> done;
    done.set_value(stream_.ReadShard(s));
    inflight_.push_back(done.get_future());
    return;
  }
  auto task = std::make_shared<std::packaged_task<Result<CorpusSlice>()>>(
      [this, s] { return stream_.ReadShard(s); });
  inflight_.push_back(task->get_future());
  if (!pool_->Schedule([task] { (*task)(); }).ok()) {
    (*task)();  // pool shut down: decode inline, the future still resolves
  }
}

Result<CorpusSlice> ShardCursor::Next() {
  if (inflight_.empty()) PrefetchOne();
  if (inflight_.empty()) {
    return Status::FailedPrecondition("shard cursor exhausted");
  }
  std::future<Result<CorpusSlice>> front = std::move(inflight_.front());
  inflight_.pop_front();
  // Keep one decode in flight while the consumer works on this slice.
  PrefetchOne();
  return front.get();
}

}  // namespace lshap
