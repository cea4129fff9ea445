#include "engine/job_runner.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"

namespace lbchat::engine {

JobRunner::JobRunner(const ScenarioConfig& cfg, std::unique_ptr<Strategy> strategy,
                     bool record_events)
    : horizon_(cfg.duration_s), sim_(cfg, std::move(strategy), record_events) {}

CkptStatus JobRunner::resume(std::span<const std::uint8_t> ckpt) {
  ByteReader r{ckpt};
  return sim_.restore(r);
}

bool JobRunner::run_to(double t_target) {
  sim_.run_until(std::min(t_target, horizon_));
  return done();
}

}  // namespace lbchat::engine
