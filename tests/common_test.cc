#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace lshap {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad arity");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.2);
  size_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++low;
  }
  // With s=1.2 the first 10 of 100 items carry well over half the mass.
  EXPECT_GT(low, static_cast<size_t>(n) / 2);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Known answers of the shared hash primitives: every stored checksum and
// pinned fingerprint depends on these exact bits.
TEST(HashTest, FnvKnownAnswers) {
  EXPECT_EQ(FnvChecksum("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(FnvChecksum("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(FnvChecksum("foobar", 6), 0x85944171f73967e8ull);
}

TEST(HashTest, FnvUpdateIsIncremental) {
  uint64_t h = kFnvOffset;
  h = FnvUpdate(h, "foo", 3);
  h = FnvUpdate(h, "", 0);
  h = FnvUpdate(h, "bar", 3);
  EXPECT_EQ(h, FnvChecksum("foobar", 6));
}

TEST(HashTest, SplitMixKnownAnswers) {
  EXPECT_EQ(MixWord(0), 0xe220a8397b1dcdafull);
  // Rng seeds its four lanes from successive SplitMix64 outputs, so its
  // first draws are fixed by the seed.
  Rng rng(42);
  EXPECT_EQ(rng.Next(), 0x15780b2e0c2ec716ull);
  EXPECT_EQ(rng.Next(), 0x6104d9866d113a7eull);
  EXPECT_EQ(rng.Next(), 0xae17533239e499a1ull);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  foo \t bar\nbaz "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("SELECT Name"), "select name");
  EXPECT_TRUE(StartsWith("Warner Home Video", "Warner"));
  EXPECT_FALSE(StartsWith("NBC", "Warner"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.3f", 0.125), "0.125");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(pool, hits.size(),
              [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Schedule([&] { count.fetch_add(1); });
  pool.Wait();
  pool.Schedule([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ScheduleAfterShutdownIsCheckedError) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.Schedule([&] { count.fetch_add(1); }).ok());
  pool.Shutdown();
  const Status s = pool.Schedule([&] { count.fetch_add(1); });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(count.load(), 1);  // scheduled work drained, rejected work never ran
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_FALSE(pool.Schedule([] {}).ok());
}

TEST(ThreadPoolTest, CancellableParallelForStopsOnError) {
  ThreadPool pool(4);
  CancelToken cancel;
  std::atomic<size_t> ran{0};
  const size_t n = 10000;
  const Status s = ParallelFor(pool, n, cancel, [&](size_t i) -> Status {
    if (i == 5) return Status::ResourceExhausted("poisoned item");
    ran.fetch_add(1);
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(cancel.cancelled());
  // The wave stopped early: nowhere near all items ran, and Wait() returned
  // rather than wedging on the poisoned wave.
  EXPECT_LT(ran.load(), n);
}

TEST(ThreadPoolTest, CancellableParallelForHonorsExternalCancel) {
  ThreadPool pool(2);
  CancelToken cancel;
  cancel.RequestCancel();
  std::atomic<size_t> ran{0};
  const Status s = ParallelFor(pool, 100, cancel, [&](size_t) -> Status {
    ran.fetch_add(1);
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolTest, CancellableParallelForOkWhenAllSucceed) {
  ThreadPool pool(4);
  CancelToken cancel;
  std::vector<std::atomic<int>> hits(513);
  const Status s = ParallelFor(pool, hits.size(), cancel,
                               [&](size_t i) -> Status {
                                 hits[i].fetch_add(1);
                                 return Status::Ok();
                               });
  EXPECT_TRUE(s.ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Stress: many overlapping waves (infallible + cancellable, some poisoned)
// with a concurrent Wait()er hammering the pool from another thread. Run
// under the LSHAP_SANITIZE config (tools/check.sh) this shakes out data
// races and lost-wakeup bugs in the queue/in_flight accounting.
TEST(ThreadPoolTest, StressWavesWithConcurrentWait) {
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    while (!stop.load()) pool.Wait();
  });
  std::atomic<size_t> total{0};
  for (int wave = 0; wave < 50; ++wave) {
    ParallelFor(pool, 97, [&](size_t) { total.fetch_add(1); });
    CancelToken cancel;
    const int poison = wave % 7;
    const Status s =
        ParallelFor(pool, 97, cancel, [&](size_t i) -> Status {
          total.fetch_add(1);
          if (poison == 0 && i == 13) {
            return Status::ResourceExhausted("stress poison");
          }
          return Status::Ok();
        });
    if (poison == 0) {
      // Index 13 always runs, and ParallelFor returns the first error.
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_TRUE(s.ok());
    }
  }
  stop.store(true);
  pool.Wait();
  waiter.join();
  EXPECT_GE(total.load(), 50u * 97u);  // all infallible waves completed
}

}  // namespace
}  // namespace lshap
