// Tests for the observability subsystem: event-ring drop semantics,
// exporter well-formedness, and the engine-level contract — recording never
// changes simulation results, the sim-time exports (events JSONL, metrics
// JSON) are byte-identical at any worker thread count, and each run's log
// holds its own events only.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "engine/fleet.h"
#include "engine/report.h"
#include "obs/export.h"

namespace lbchat {
namespace {

// -------------------------------------------------------------- event ring

TEST(EventTracerTest, DropOldestKeepsNewestAndCountsDrops) {
  obs::EventTracer tr;
  tr.set_capacity(4);
  for (int i = 0; i < 7; ++i) {
    tr.emit(obs::Event{static_cast<double>(i), obs::EventKind::kRound, i, -1, 0.0});
  }
  const std::vector<obs::Event> ev = tr.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(tr.dropped(), 3u);
  for (int i = 0; i < 4; ++i) {  // oldest-first, the first three are gone
    EXPECT_EQ(ev[static_cast<std::size_t>(i)].a, i + 3);
    EXPECT_DOUBLE_EQ(ev[static_cast<std::size_t>(i)].t, static_cast<double>(i + 3));
  }
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.dropped(), 0u);
}

// ------------------------------------------------------------- engine runs

engine::ScenarioConfig traced_scenario() {
  engine::ScenarioConfig cfg;
  cfg.num_vehicles = 6;
  cfg.collect_duration_s = 120.0;
  cfg.duration_s = 300.0;
  cfg.eval_interval_s = 100.0;
  cfg.coreset_size = 50;
  cfg.pair_cooldown_s = 30.0;
  cfg.world.num_background_cars = 8;
  cfg.world.num_pedestrians = 16;
  // Some churn so fault events show up in the trace too.
  cfg.faults.churn_rate_per_min = 2.0;
  cfg.faults.churn_offline_mean_s = 15.0;
  return cfg;
}

/// Leaves the process-wide span gate off and the span store empty.
class ObsEngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_spans_enabled(false);
    obs::spans().clear();
  }

  struct Capture {
    engine::RunMetrics m;
    std::string events;
    std::string metrics;
  };

  static Capture capture(const engine::FleetSim& sim, engine::RunMetrics m) {
    Capture cap;
    cap.events = obs::events_jsonl(sim.events().events(), sim.events().dropped());
    cap.metrics = obs::metrics_json(engine::summary_snapshot(m));
    cap.m = std::move(m);
    return cap;
  }

  static Capture run_traced(const engine::ScenarioConfig& cfg, int threads) {
    auto c = cfg;
    c.num_threads = threads;
    engine::FleetSim sim{c, baselines::registry().make("LbChat"), /*record_events=*/true};
    return capture(sim, sim.run());
  }
};

TEST_F(ObsEngineTest, SimTimeExportsByteIdenticalAcrossThreadCounts) {
  const auto cfg = traced_scenario();
  const Capture one = run_traced(cfg, 1);
  const Capture four = run_traced(cfg, 4);
  // Events come only from the single-threaded tick path, so the export is a
  // pure function of the scenario.
  EXPECT_EQ(one.events, four.events);
  EXPECT_EQ(one.metrics, four.metrics);
  // The run actually produced a trace worth comparing.
  EXPECT_NE(one.events.find("\"chat_start\""), std::string::npos);
  EXPECT_NE(one.events.find("\"eval\""), std::string::npos);
  EXPECT_NE(one.events.find("\"churn_offline\""), std::string::npos);
}

TEST_F(ObsEngineTest, EnablingObservabilityIsBitInert) {
  const auto cfg = traced_scenario();

  // Recording off: the default production configuration.
  engine::FleetSim off{cfg, baselines::registry().make("LbChat")};
  const engine::RunMetrics m_off = off.run();
  EXPECT_TRUE(off.events().events().empty());

  obs::set_spans_enabled(true);
  engine::FleetSim on{cfg, baselines::registry().make("LbChat"), /*record_events=*/true};
  const engine::RunMetrics m_on = on.run();
  EXPECT_FALSE(on.events().events().empty());

  EXPECT_EQ(m_off.train_steps, m_on.train_steps);
  EXPECT_EQ(m_off.transfers.bytes_delivered, m_on.transfers.bytes_delivered);
  ASSERT_EQ(m_off.loss_curve.size(), m_on.loss_curve.size());
  for (std::size_t i = 0; i < m_off.loss_curve.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m_off.loss_curve.values[i]),
              std::bit_cast<std::uint64_t>(m_on.loss_curve.values[i]))
        << "loss curve diverged at sample " << i;
  }
}

TEST_F(ObsEngineTest, ChromeTraceValidatesAndReportCoversFleet) {
  auto cfg = traced_scenario();
  obs::set_spans_enabled(true);
  cfg.num_threads = 2;
  engine::FleetSim sim{cfg, baselines::registry().make("LbChat"), /*record_events=*/true};
  const engine::RunMetrics m = sim.run();

  const std::string trace = obs::chrome_trace_json(sim.events().events(), obs::spans().spans());
  EXPECT_EQ(obs::validate_chrome_trace(trace), "");

  // The validator is not a rubber stamp.
  EXPECT_NE(obs::validate_chrome_trace("{"), "");
  EXPECT_NE(obs::validate_chrome_trace("[1,2,3]"), "");
  EXPECT_NE(obs::validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}"), "");

  const obs::RunReport report = engine::build_run_report("LbChat", cfg, m);
  ASSERT_EQ(report.vehicles.size(), static_cast<std::size_t>(cfg.num_vehicles));
  EXPECT_EQ(report.approach, "LbChat");
  double bytes = 0.0;
  for (const obs::VehicleReport& v : report.vehicles) {
    EXPECT_LE(v.online_seconds, cfg.duration_s + 1e-9);
    bytes += static_cast<double>(v.bytes_received);
  }
  EXPECT_GT(bytes, 0.0);  // per-vehicle accounting saw the transfers

  // CSV: one header plus one row per vehicle.
  const std::string csv = obs::run_report_csv(report);
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, report.vehicles.size() + 1);
}

TEST_F(ObsEngineTest, RunsSharingAThreadKeepTheirOwnExports) {
  // Two recording runs of different scenarios, advanced in alternating
  // slices on one thread, export exactly what each exports alone.
  const auto cfg_a = traced_scenario();
  auto cfg_b = traced_scenario();
  cfg_b.seed = 2;
  cfg_b.faults = engine::FaultConfig{};
  const Capture solo_a = run_traced(cfg_a, 1);
  const Capture solo_b = run_traced(cfg_b, 1);
  ASSERT_NE(solo_a.events, solo_b.events);

  engine::FleetSim a{cfg_a, baselines::registry().make("LbChat"), /*record_events=*/true};
  engine::FleetSim b{cfg_b, baselines::registry().make("LbChat"), /*record_events=*/true};
  for (double t = 40.0; t < cfg_a.duration_s + 40.0; t += 40.0) {
    a.run_until(t);
    b.run_until(t);
  }
  const Capture mixed_a = capture(a, a.finalize());
  const Capture mixed_b = capture(b, b.finalize());
  EXPECT_EQ(mixed_a.events, solo_a.events);
  EXPECT_EQ(mixed_a.metrics, solo_a.metrics);
  EXPECT_EQ(mixed_b.events, solo_b.events);
  EXPECT_EQ(mixed_b.metrics, solo_b.metrics);
}

}  // namespace
}  // namespace lbchat
