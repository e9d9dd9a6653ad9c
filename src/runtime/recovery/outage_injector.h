// Couples a seeded outage schedule (sim/outage.h) to a live
// ServingEngine: the bench advances its experiment clock and poll()
// fires every due event as a ServingEngine::power_fail. The injector is
// passive between polls — no thread of its own — so outages land at
// deterministic points in the caller's control flow, which is what the
// same-seed recovery-determinism gate needs.
#pragma once

#include <vector>

#include "runtime/serving_engine.h"
#include "sim/outage.h"

namespace msh {

class OutageInjector {
 public:
  /// `schedule` must be sorted by fire time (make_outage_schedule's
  /// output is). The engine must outlive the injector.
  OutageInjector(ServingEngine& engine, std::vector<OutageEvent> schedule,
                 f64 retention_tau_s = 0.0);

  /// Fires the next due event, if any: the first unfired event with
  /// at_us <= elapsed_us triggers engine.power_fail. At most one event
  /// fires per poll — the engine is down afterwards, and the caller
  /// must recover it before the next event can meaningfully land.
  /// Returns true when an outage fired (the caller should now run
  /// recovery).
  bool poll(f64 elapsed_us);

  i64 fired() const { return next_; }
  i64 remaining() const {
    return static_cast<i64>(schedule_.size()) - next_;
  }
  const std::vector<OutageEvent>& schedule() const { return schedule_; }

 private:
  ServingEngine& engine_;
  std::vector<OutageEvent> schedule_;
  f64 retention_tau_s_;
  i64 next_ = 0;  ///< first unfired schedule index
};

}  // namespace msh
