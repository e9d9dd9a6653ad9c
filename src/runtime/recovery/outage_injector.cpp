#include "runtime/recovery/outage_injector.h"

#include "common/logging.h"

namespace msh {

OutageInjector::OutageInjector(ServingEngine& engine,
                               std::vector<OutageEvent> schedule,
                               f64 retention_tau_s)
    : engine_(engine),
      schedule_(std::move(schedule)),
      retention_tau_s_(retention_tau_s) {
  for (size_t i = 1; i < schedule_.size(); ++i)
    MSH_REQUIRE(schedule_[i - 1].at_us <= schedule_[i].at_us &&
                "outage schedule must be sorted by fire time");
}

bool OutageInjector::poll(f64 elapsed_us) {
  if (next_ >= static_cast<i64>(schedule_.size())) return false;
  const OutageEvent& event = schedule_[static_cast<size_t>(next_)];
  if (elapsed_us < event.at_us) return false;
  ++next_;
  log_warn("outage injector: firing event ", next_, "/", schedule_.size(),
           " at t=", elapsed_us / 1e6, " s (scheduled ", event.at_us / 1e6,
           " s, outage ", event.outage_s, " s)");
  ServingEngine::PowerFailureSpec spec;
  spec.outage_s = event.outage_s;
  spec.seed = event.seed;
  spec.retention_tau_s = retention_tau_s_;
  engine_.power_fail(spec);
  return true;
}

}  // namespace msh
