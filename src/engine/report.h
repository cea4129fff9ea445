// Bridges RunMetrics (engine accounting) to the obs exporters: the run's
// metrics snapshot (metrics.json) and its per-vehicle run report.
#pragma once

#include <string_view>

#include "engine/metrics.h"
#include "engine/scenario.h"
#include "obs/export.h"

namespace lbchat::engine {

/// The run's metrics: headline RunMetrics totals as "run."-prefixed counters
/// and gauges, name-sorted. Every exporter of run metrics (service
/// payloads, lbchat_sim_cli --metrics-out, the bench harness) renders this
/// through obs::metrics_json.
[[nodiscard]] obs::Snapshot summary_snapshot(const RunMetrics& m);

/// Assemble the per-vehicle run report from a finished run's metrics.
/// Deterministic: every field derives from the simulation.
[[nodiscard]] obs::RunReport build_run_report(std::string_view approach,
                                              const ScenarioConfig& cfg,
                                              const RunMetrics& metrics);

}  // namespace lbchat::engine
