#include "common/budget.h"

#include <cstring>
#include <limits>

#include "common/hash.h"
#include "common/strings.h"

namespace lshap {

namespace {

Status MakeFault(StatusCode code, const char* site) {
  const std::string msg = StrFormat("fault injected at site '%s'", site);
  return Status(code, msg);
}

}  // namespace

void FaultInjector::FailAt(const std::string& site, uint64_t hit_index,
                           StatusCode code) {
  std::unique_lock<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.arming.exact = true;
  state.arming.hit_index = hit_index;
  state.arming.code = code;
  state.armed = true;
}

void FaultInjector::FailWithProbability(const std::string& site,
                                        double probability, StatusCode code) {
  std::unique_lock<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.arming.exact = false;
  state.arming.probability = probability;
  state.arming.code = code;
  state.armed = true;
}

Status FaultInjector::OnSite(const char* site) {
  std::unique_lock<std::mutex> lock(mu_);
  // Unarmed sites still count hits so tests can discover hit indices.
  SiteState& state = sites_[site];
  const uint64_t hit = state.hits++;
  if (!state.armed) return Status::Ok();
  if (state.arming.exact) {
    if (hit == state.arming.hit_index) {
      return MakeFault(state.arming.code, site);
    }
    return Status::Ok();
  }
  // A per-(seed, site, hit) coin; site names are compile-time literals, so
  // it is stable across runs.
  const uint64_t coin = MixWord(seed_ ^ FnvChecksum(site, std::strlen(site)) ^
                                (hit * 0x9e37ULL));
  const double u =
      static_cast<double>(coin >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  if (u < state.arming.probability) {
    return MakeFault(state.arming.code, site);
  }
  return Status::Ok();
}

uint64_t FaultInjector::hits(const std::string& site) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return 0;
  return it->second.hits;
}

ExecutionBudget::ExecutionBudget(const Limits& limits, CancelToken* cancel,
                                 FaultInjector* fault)
    : max_work_units_(limits.max_work_units), cancel_(cancel), fault_(fault) {
  if (limits.deadline_seconds > 0.0) {
    has_deadline_ = true;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       limits.deadline_seconds));
  }
}

double ExecutionBudget::RemainingSeconds() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(deadline_ - Clock::now()).count();
}

Status ExecutionBudget::Trip(Status status, const char* site) {
  trip_status_ = std::move(status);
  trip_site_ = site;
  return trip_status_;
}

Status ExecutionBudget::Check(const char* site) {
  if (!trip_status_.ok()) return trip_status_;
  if (fault_ != nullptr) {
    Status injected = fault_->OnSite(site);
    if (!injected.ok()) return Trip(std::move(injected), site);
  }
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Trip(Status::Cancelled(StrFormat("cancelled at site '%s'", site)),
                site);
  }
  if (has_deadline_) {
    // The steady clock is read only every kDeadlineCheckStride-th check:
    // budget checks sit in Shannon-expansion and sampling hot loops, and a
    // clock read costs ~20-30 ns versus ~1 ns for the stride counter.
    if ((check_count_++ % kDeadlineCheckStride) == 0 &&
        Clock::now() >= deadline_) {
      return Trip(Status::ResourceExhausted(
                      StrFormat("deadline exceeded at site '%s'", site)),
                  site);
    }
  }
  return Status::Ok();
}

Status ExecutionBudget::Charge(uint64_t units, const char* site) {
  if (!trip_status_.ok()) return trip_status_;
  charged_units_ += units;
  if (max_work_units_ != 0 && charged_units_ > max_work_units_) {
    return Trip(
        Status::ResourceExhausted(StrFormat(
            "work budget exhausted at site '%s' (%llu > %llu units)", site,
            static_cast<unsigned long long>(charged_units_),
            static_cast<unsigned long long>(max_work_units_))),
        site);
  }
  return Check(site);
}

}  // namespace lshap
