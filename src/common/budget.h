#ifndef LSHAP_COMMON_BUDGET_H_
#define LSHAP_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

namespace lshap {

// Cooperative cancellation flag shared between a controller (e.g. the corpus
// builder's build-level deadline watchdog, or a ParallelFor wave that hit an
// error) and the workers it governs. Workers poll `cancelled()` through their
// ExecutionBudget at check sites; nothing is interrupted preemptively.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// Deterministic fault injector for testing budget plumbing. Each budget check
// site is identified by a stable name and a per-site hit counter; a site can
// be armed to fail at an exact hit index, so tests can force a budget trip at
// a precise point in a recursion (e.g. "the 3rd Shannon expansion") and get
// the same trip on every run. The seed perturbs probabilistic arming only;
// exact-hit arming is seed-independent.
//
// A FaultInjector is attached to an ExecutionBudget by pointer; a null
// pointer (the default everywhere outside tests) costs one branch per check.
// Fully mutex-guarded: one injector may be shared by the budgets of many
// worker threads (as the corpus builder does). It only exists in tests, so
// the lock on the check path is acceptable.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  // Arms `site` to fail with `code` on its `hit_index`-th check (0-based).
  void FailAt(const std::string& site, uint64_t hit_index,
              StatusCode code = StatusCode::kResourceExhausted);

  // Arms `site` to fail with `code` on every check whose splitmix-derived
  // coin (deterministic in seed, site, hit index) lands below `probability`.
  void FailWithProbability(const std::string& site, double probability,
                           StatusCode code = StatusCode::kResourceExhausted);

  // Called by ExecutionBudget at every check site. Returns non-OK iff the
  // site is armed and this hit matches the arming rule.
  Status OnSite(const char* site);

  // Total checks observed at `site` so far (armed or not).
  uint64_t hits(const std::string& site) const;

 private:
  struct Arming {
    bool exact = false;          // exact-hit vs probabilistic
    uint64_t hit_index = 0;      // exact: fail on this hit
    double probability = 0.0;    // probabilistic: per-hit failure chance
    StatusCode code = StatusCode::kResourceExhausted;
  };
  struct SiteState {
    Arming arming;
    bool armed = false;
    uint64_t hits = 0;
  };

  mutable std::mutex mu_;
  uint64_t seed_;
  std::map<std::string, SiteState> sites_;
};

// A resource envelope for one unit of work (one tuple's Shapley computation,
// one corpus build): a steady-clock deadline, an abstract work-unit budget
// (circuit nodes for the compiler, samples for Monte Carlo), an optional
// shared CancelToken, and an optional FaultInjector. Budgeted code calls
// `Check(site)` at loop/recursion heads and `Charge(units, site)` when it
// allocates; both return kResourceExhausted / kCancelled instead of letting
// the computation run away.
//
// Budgets are sticky: after the first trip every subsequent Check/Charge
// returns the same error, so deep recursions can bail out level by level
// without re-deriving the reason. The wall clock is only read every
// kDeadlineCheckStride checks, keeping a Check on the hot path to a couple
// of increments and compares. The engines skip every poll of an
// `unlimited()` budget, so passing `Unlimited()` behaves like passing none.
class ExecutionBudget {
 public:
  struct Limits {
    // Wall-clock allowance in seconds; <= 0 means no deadline.
    double deadline_seconds = 0.0;
    // Abstract work-unit allowance (circuit nodes / samples); 0 = unlimited.
    uint64_t max_work_units = 0;
  };

  // No deadline, no unit cap, no cancellation: Check/Charge never fail
  // (unless a fault injector is attached).
  static ExecutionBudget Unlimited() { return ExecutionBudget(Limits{}); }

  explicit ExecutionBudget(const Limits& limits, CancelToken* cancel = nullptr,
                           FaultInjector* fault = nullptr);

  ExecutionBudget(const ExecutionBudget&) = delete;
  ExecutionBudget& operator=(const ExecutionBudget&) = delete;

  // Cheap poll at a named site: fault injector (if any), cancel token,
  // deadline (strided). Sticky once tripped.
  Status Check(const char* site);

  // Consumes `units` of the work budget at a named site, then polls like
  // Check. Sticky once tripped.
  Status Charge(uint64_t units, const char* site);

  bool unlimited() const {
    return !has_deadline_ && max_work_units_ == 0 && cancel_ == nullptr &&
           fault_ == nullptr;
  }
  bool has_deadline() const { return has_deadline_; }
  // Seconds until the deadline: +infinity without one, negative once it has
  // passed. Reads the wall clock (unstrided) — for stage-boundary decisions
  // like "is the model rung still feasible", not for per-row hot loops
  // (those poll Check, which strides the clock reads).
  double RemainingSeconds() const;
  bool tripped() const { return !trip_status_.ok(); }
  // Site name of the first trip; empty if none.
  const std::string& trip_site() const { return trip_site_; }
  const Status& trip_status() const { return trip_status_; }
  uint64_t charged_units() const { return charged_units_; }

 private:
  static constexpr uint64_t kDeadlineCheckStride = 64;

  using Clock = std::chrono::steady_clock;

  Status Trip(Status status, const char* site);

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t max_work_units_ = 0;
  uint64_t charged_units_ = 0;
  uint64_t check_count_ = 0;
  CancelToken* cancel_ = nullptr;
  FaultInjector* fault_ = nullptr;
  Status trip_status_;
  std::string trip_site_;
};

}  // namespace lshap

#endif  // LSHAP_COMMON_BUDGET_H_
