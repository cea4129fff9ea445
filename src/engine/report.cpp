#include "engine/report.h"

#include <algorithm>

namespace lbchat::engine {

obs::Snapshot summary_snapshot(const RunMetrics& m) {
  const TransferStats& t = m.transfers;
  const double final_loss = m.loss_curve.values.empty() ? 0.0 : m.loss_curve.values.back();
  const auto counter = [](const char* name, auto count) {
    const auto total = static_cast<std::uint64_t>(count);
    return obs::MetricValue{name, obs::MetricKind::kCounter, total, 0.0};
  };
  const auto gauge = [](const char* name, double value) {
    return obs::MetricValue{name, obs::MetricKind::kGauge, 0, value};
  };
  obs::Snapshot snap{{
      counter("run.backoff_retries", t.backoff_retries),
      counter("run.bytes_delivered", t.bytes_delivered),
      counter("run.byzantine_payloads_sent", t.byzantine_payloads_sent),
      counter("run.coreset_sends_completed", t.coreset_sends_completed),
      counter("run.coreset_sends_started", t.coreset_sends_started),
      counter("run.frames_rejected", t.frames_rejected),
      counter("run.frames_rejected_invalid", t.frames_rejected_invalid),
      counter("run.model_frames_rejected", t.model_frames_rejected),
      counter("run.model_sends_completed", t.model_sends_completed),
      counter("run.model_sends_started", t.model_sends_started),
      counter("run.sessions_aborted", t.sessions_aborted),
      counter("run.sessions_lost_to_blackout", t.sessions_lost_to_blackout),
      counter("run.sessions_started", t.sessions_started),
      counter("run.straggler_train_skips", t.straggler_train_skips),
      counter("run.train_steps", m.train_steps),
      gauge("run.attacker_weight_share", t.attacker_weight_share()),
      gauge("run.effective_model_receiving_rate", t.effective_model_receiving_rate()),
      gauge("run.final_mean_loss", final_loss),
      gauge("run.model_receiving_rate", t.model_receiving_rate()),
      gauge("run.offline_vehicle_seconds", t.offline_vehicle_seconds),
  }};
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const obs::MetricValue& a, const obs::MetricValue& b) { return a.name < b.name; });
  return snap;
}

obs::RunReport build_run_report(std::string_view approach, const ScenarioConfig& cfg,
                                const RunMetrics& metrics) {
  obs::RunReport report;
  report.approach = std::string{approach};
  report.seed = cfg.seed;
  report.duration_s = cfg.duration_s;
  report.final_mean_loss =
      metrics.loss_curve.values.empty() ? 0.0 : metrics.loss_curve.values.back();
  report.vehicles.reserve(metrics.per_vehicle.size());
  for (std::size_t v = 0; v < metrics.per_vehicle.size(); ++v) {
    const VehicleTransferStats& vs = metrics.per_vehicle[v];
    obs::VehicleReport row;
    row.id = static_cast<int>(v);
    row.bytes_sent = vs.bytes_sent;
    row.bytes_received = vs.bytes_received;
    row.chats_started = static_cast<std::uint64_t>(vs.chats_started);
    row.chats_completed = static_cast<std::uint64_t>(vs.chats_completed);
    row.chats_aborted = static_cast<std::uint64_t>(vs.chats_aborted);
    row.model_recv_started = static_cast<std::uint64_t>(vs.model_recv_started);
    row.model_recv_completed = static_cast<std::uint64_t>(vs.model_recv_completed);
    row.frames_rejected = static_cast<std::uint64_t>(vs.frames_rejected);
    row.online_seconds = cfg.duration_s - vs.offline_seconds;
    row.effective_model_receiving_rate = vs.effective_model_receiving_rate();
    if (v < metrics.per_vehicle_loss.size() && !metrics.per_vehicle_loss[v].values.empty()) {
      const TimeSeries& ts = metrics.per_vehicle_loss[v];
      row.first_loss = ts.values.front();
      row.final_loss = ts.last();
    }
    report.vehicles.push_back(row);
  }
  return report;
}

}  // namespace lbchat::engine
