// lbchat_perfbench: the measuring half of the repo benchmark (perfbench/run.py
// builds this, runs it, checks its outputs and prints the result).
//
//   lbchat_perfbench sim --workload paper16_lbchat|metro256_dp --seed N --trace 0|1
//   lbchat_perfbench service --seed N --trace 0|1 --work DIR
//   lbchat_perfbench selftest
//
// Every mode prints one flat JSON object of raw measurements and check
// inputs on stdout. Everything is measured from outside the engine: public
// FleetSim entry points, a timing decorator around the registry strategy
// (timed_strategy.h), svc::FleetService, and layer entry points replayed on
// the run's end state. Workload contents derive from --seed alone.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "common/fingerprint.h"
#include "core/compress_opt.h"
#include "core/lbchat.h"
#include "coreset/coreset.h"
#include "engine/fleet.h"
#include "nn/compress.h"
#include "nn/kernel_dispatch.h"
#include "sim/world.h"
#include "svc/json.h"
#include "svc/server.h"
#include "timed_strategy.h"

namespace lbchat::perfbench {
namespace {

using engine::FleetSim;
using engine::ScenarioConfig;

// ---------------------------------------------------------------- output

/// Insertion-ordered flat JSON object.
class Out {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    kv_.emplace_back(k, buf);
  }
  void u64(const std::string& k, std::uint64_t v) {
    kv_.emplace_back(k, "\"" + hex(v) + "\"");
  }
  void flag(const std::string& k, bool v) { kv_.emplace_back(k, v ? "true" : "false"); }
  void str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    kv_.emplace_back(k, q + "\"");
  }
  void print() const {
    std::printf("{");
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      std::printf("%s\"%s\": %s", i ? ", " : "", kv_[i].first.c_str(), kv_[i].second.c_str());
    }
    std::printf("}\n");
    std::fflush(stdout);
  }
  static std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// ---------------------------------------------------------------- helpers

double seconds_since(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall time of up to `reps` calls of fn, in milliseconds; stops
/// early once the calls so far have taken `budget_s`.
double time_ms(int reps, const std::function<void()>& fn, double budget_s = 1.0) {
  std::vector<double> ms;
  const std::int64_t start = now_ns();
  for (int i = 0; i < reps && (i == 0 || seconds_since(start) < budget_s); ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

template <typename T>
std::uint64_t fnv_span(std::uint64_t h, std::span<const T> v) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes()}, h);
}

std::uint64_t curve_digest(const TimeSeries& c) {
  return fnv_span<double>(fnv_span<double>(kFnvOffsetBasis, c.times), c.values);
}

/// Cheap digest of a prepared sim: every model's parameters and every
/// dataset's size, so repeated set-ups can be checked for identity.
std::uint64_t setup_digest(FleetSim& sim) {
  std::uint64_t h = kFnvOffsetBasis;
  for (int v = 0; v < sim.num_vehicles(); ++v) {
    h = fnv_span<float>(h, sim.node(v).model.params());
    const std::size_t n = sim.node(v).dataset.size();
    h = fnv_span<std::size_t>(h, {&n, 1});
  }
  const std::size_t n = sim.eval_set().size();
  return fnv_span<std::size_t>(h, {&n, 1});
}

void emit_counts(Out& out, const std::string& prefix, const engine::TransferStats& t) {
  out.num(prefix + "sessions_started", t.sessions_started);
  out.num(prefix + "sessions_aborted", t.sessions_aborted);
  out.num(prefix + "model_sends_started", t.model_sends_started);
  out.num(prefix + "model_sends_completed", t.model_sends_completed);
  out.num(prefix + "coreset_sends_started", t.coreset_sends_started);
  out.num(prefix + "coreset_sends_completed", t.coreset_sends_completed);
  out.num(prefix + "bytes_delivered_mb", static_cast<double>(t.bytes_delivered) / 1e6);
  out.num(prefix + "frames_rejected", t.frames_rejected);
}

bool same_counts(const engine::TransferStats& a, const engine::TransferStats& b) {
  return a.sessions_started == b.sessions_started && a.sessions_aborted == b.sessions_aborted &&
         a.model_sends_started == b.model_sends_started &&
         a.model_sends_completed == b.model_sends_completed &&
         a.coreset_sends_started == b.coreset_sends_started &&
         a.coreset_sends_completed == b.coreset_sends_completed &&
         a.bytes_delivered == b.bytes_delivered && a.frames_rejected == b.frames_rejected;
}

void emit_provenance(Out& out, int lanes) {
  out.num("stamp.nproc", std::thread::hardware_concurrency());
  out.str("stamp.kernel", std::string(nn::kernel_path_name(nn::active_kernel_path())));
  out.str("stamp.build_type", LBCHAT_PERFBENCH_BUILD_TYPE);
  out.str("stamp.compiler", LBCHAT_PERFBENCH_COMPILER);
  out.num("stamp.lanes", lanes);
}

// ---------------------------------------------------------------- sim workloads

struct SimWorkload {
  std::string strategy;
  ScenarioConfig cfg;
  /// Scenarios (distinct scenario seeds) per untraced run, each set up
  /// `setup_reps` times and run once.
  int scenarios = 1;
  int setup_reps = 1;
  /// Traced runs advance in slices of this many sim seconds, with a
  /// checkpoint round trip after each.
  double slice_s = 60.0;
};

/// Scenario seed of the k-th scenario of a run with benchmark seed `seed`.
std::uint64_t scenario_seed(std::uint64_t seed, int k) {
  return seed * 16 + static_cast<std::uint64_t>(k);
}

/// The generated config is the only thing the engine sees of a workload.
SimWorkload make_sim_workload(const std::string& name) {
  SimWorkload w;
  if (name == "paper16_lbchat") {
    // ScenarioConfig defaults: 16 vehicles, 600 sim-s collect.
    w.strategy = "LbChat";
    w.cfg.num_threads = 1;
    w.cfg.duration_s = 360.0;
    w.scenarios = 3;
  } else if (name == "metro256_dp") {
    engine::apply_metro_scale(w.cfg, 256);
    w.strategy = "DP";
    w.cfg.num_threads = 2;
    w.cfg.collect_duration_s = 120.0;
    w.cfg.duration_s = 120.0;
    w.setup_reps = 2;
  } else {
    throw std::invalid_argument("unknown sim workload: " + name);
  }
  return w;
}

std::unique_ptr<engine::Strategy> make_strategy(const std::string& name, bool timed) {
  auto s = baselines::registry().make(name);
  if (!timed) return s;
  return std::make_unique<TimedStrategy>(std::move(s));
}

struct RoundTrip {
  double at_s = 0.0;
  double save_ms = 0.0;
  double restore_ms = 0.0;
  double mb = 0.0;
  engine::CkptStatus status = engine::CkptStatus::kOk;
  bool resave_identical = false;

  [[nodiscard]] bool failed() const {
    return status != engine::CkptStatus::kOk || !resave_identical;
  }
};

/// Checkpoint `sim`, restore into a fresh sim, and re-save it: a sound
/// round trip restores kOk and re-saves the same bytes.
RoundTrip checkpoint_round_trip(const SimWorkload& w, const FleetSim& sim) {
  RoundTrip rt;
  rt.at_s = sim.time();
  ByteWriter out;
  const std::int64_t t0 = now_ns();
  sim.save_checkpoint(out);
  rt.save_ms = seconds_since(t0) * 1e3;
  rt.mb = static_cast<double>(out.bytes().size()) / 1e6;
  FleetSim fresh(w.cfg, make_strategy(w.strategy, false));
  ByteReader in(out.bytes());
  const std::int64_t t1 = now_ns();
  rt.status = fresh.restore(in);
  rt.restore_ms = seconds_since(t1) * 1e3;
  if (rt.status == engine::CkptStatus::kOk) {
    ByteWriter again;
    fresh.save_checkpoint(again);
    rt.resave_identical = again.bytes() == out.bytes();
  }
  return rt;
}

struct Pass {
  std::vector<double> setup_s;
  bool setups_identical = true;
  double run_ms = 0.0;
  double sim_s = 0.0;
  engine::RunMetrics m;
  std::vector<RoundTrip> trips;
  std::unique_ptr<FleetSim> sim;
  TimedStrategy* timed = nullptr;

  [[nodiscard]] double ms_per_sim_s() const { return run_ms / sim_s; }
  [[nodiscard]] bool curve_finite() const {
    return !m.loss_curve.values.empty() &&
           std::all_of(m.loss_curve.values.begin(), m.loss_curve.values.end(),
                       [](double v) { return std::isfinite(v); });
  }
  [[nodiscard]] int failed_trips() const {
    return static_cast<int>(
        std::count_if(trips.begin(), trips.end(), [](const RoundTrip& r) { return r.failed(); }));
  }
};

/// Set up `reps` times (construction + prepare, each timed; the last sim is
/// kept).
Pass set_up(const SimWorkload& w, bool timed, int reps) {
  Pass p;
  std::uint64_t first_digest = 0;
  for (int k = 0; k < reps; ++k) {
    p.sim.reset();
    auto strategy = make_strategy(w.strategy, timed);
    TimedStrategy* ts = timed ? static_cast<TimedStrategy*>(strategy.get()) : nullptr;
    const std::int64_t t0 = now_ns();
    p.sim = std::make_unique<FleetSim>(w.cfg, std::move(strategy));
    p.sim->prepare();
    p.setup_s.push_back(seconds_since(t0));
    p.timed = ts;
    const std::uint64_t d = setup_digest(*p.sim);
    if (k == 0) first_digest = d;
    p.setups_identical = p.setups_identical && d == first_digest;
  }
  p.sim_s = w.cfg.duration_s;
  return p;
}

/// Advance a pass to sim time `t`, timing the run_until call.
void advance(Pass& p, double t) {
  const std::int64_t t0 = now_ns();
  p.sim->run_until(t);
  p.run_ms += seconds_since(t0) * 1e3;
}

/// Whole-run aggregates over the passes of one run. The run counts as one
/// job: every scenario's kept set-up plus its run.
struct Summary {
  std::vector<double> setup_s;
  double job_s = 0.0;
  bool setups_identical = true;
  bool curves_finite = true;
  double run_ms = 0.0;
  double sim_s = 0.0;
  double initial_loss_sum = 0.0;
  double final_loss_sum = 0.0;
  std::uint64_t digest = kFnvOffsetBasis;
  engine::TransferStats counts;
  int passes = 0;
  int attempted = 0;  ///< runs plus checkpoint restores
  int failed = 0;

  void add(const Pass& p) {
    setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    job_s += p.setup_s.back() + p.run_ms * 1e-3;
    setups_identical = setups_identical && p.setups_identical;
    curves_finite = curves_finite && p.curve_finite();
    run_ms += p.run_ms;
    sim_s += p.sim_s;
    const auto& curve = p.m.loss_curve.values;
    initial_loss_sum += curve.empty() ? NAN : curve.front();
    final_loss_sum += curve.empty() ? NAN : curve.back();
    const std::uint64_t d = curve_digest(p.m.loss_curve);
    digest = fnv_span<std::uint64_t>(digest, {&d, 1});
    const engine::TransferStats& t = p.m.transfers;
    counts.sessions_started += t.sessions_started;
    counts.sessions_aborted += t.sessions_aborted;
    counts.model_sends_started += t.model_sends_started;
    counts.model_sends_completed += t.model_sends_completed;
    counts.coreset_sends_started += t.coreset_sends_started;
    counts.coreset_sends_completed += t.coreset_sends_completed;
    counts.bytes_delivered += t.bytes_delivered;
    counts.frames_rejected += t.frames_rejected;
    ++passes;
    attempted += 1 + static_cast<int>(p.trips.size());
    failed += (p.curve_finite() ? 0 : 1) + p.failed_trips();
  }

  void emit(Out& out) const {
    out.num("setup_s", median(setup_s));
    out.num("setup_reps", static_cast<double>(setup_s.size()));
    out.flag("check.setups_identical", setups_identical);
    out.num("run_ms", run_ms);
    out.num("sim_s", sim_s);
    out.num("ms_per_sim_s", run_ms / sim_s);
    out.num("jobs_per_min", 60.0 / job_s);
    out.num("turnaround_s_p50", job_s);
    out.flag("check.curve_finite", curves_finite);
    out.num("initial_loss", initial_loss_sum / passes);
    out.num("final_loss", final_loss_sum / passes);
    out.u64("curve_digest", digest);
    emit_counts(out, "net.", counts);
    out.num("attempted", attempted);
    out.num("failed", failed);
    out.num("peak_rss_mb", peak_rss_mb());
  }
};

/// Layer entry points replayed on the end state of a traced pass. Returns
/// the median time of one fleet evaluation in ms.
double replay_layers(Out& out, const SimWorkload& w, const Pass& p, engine::Strategy& inner) {
  FleetSim& sim = *p.sim;
  const ScenarioConfig& cfg = w.cfg;
  engine::VehicleNode& n0 = sim.node(0);
  engine::VehicleNode& n1 = sim.node(1);
  Rng rng(cfg.seed ^ 0x5eedULL);

  // engine: one fleet evaluation (three even at metro scale: the in-run
  // evaluations are subtracted from run_until to leave the engine's own time).
  double eval_loss = 0.0;
  const double eval_ms = time_ms(3, [&] { eval_loss = sim.mean_eval_loss(); }, 30.0);
  out.num("engine.eval_ms_per_call", eval_ms);
  out.flag("check.eval_matches_curve", eval_loss == p.m.loss_curve.values.back());

  // coreset: Algorithm 1 on vehicle 0's data and model, then merge+reduce.
  const coreset::CoresetConfig ccfg{cfg.coreset_size, cfg.penalty};
  coreset::Coreset c0;
  coreset::Coreset c1;
  out.num("coreset.build_ms", time_ms(3, [&] {
            Rng r = rng;
            c0 = coreset::build_layered_coreset(n0.dataset, n0.model, ccfg, r);
          }));
  {
    Rng r = rng.fork("peer");
    c1 = coreset::build_layered_coreset(n1.dataset, n1.model, ccfg, r);
  }
  const coreset::Coreset merged = coreset::merge_coresets(c0, c1);
  out.num("coreset.reduce_ms", time_ms(3, [&] {
            Rng r = rng;
            (void)coreset::reduce_coreset(merged, n0.model, cfg.coreset_size, r);
          }));

  // core: one phi-mapping (7 psi levels) — on LbChat's own coreset when the
  // workload runs LbChat, else on the Algorithm-1 coreset just built.
  const auto* lb = dynamic_cast<const core::LbChatStrategy*>(&inner);
  const coreset::Coreset& phi_cs = lb && !lb->coreset_of(0).empty() ? lb->coreset_of(0) : c0;
  out.num("core.phi_build_ms",
          time_ms(3, [&] { (void)core::PhiMapping::build(n0.model, phi_cs, cfg.penalty); }));

  // nn: compression sweep, one train step, one prediction.
  out.num("nn.compress_for_psi_ms", time_ms(5, [&] {
            for (const double psi : core::PhiMapping::kDefaultPsis) {
              (void)nn::compress_for_psi(n0.model.params(), psi);
            }
          }));
  {
    nn::DrivingPolicy model = n0.model;
    auto opt = n0.opt->clone();
    Rng r = rng.fork("batch");
    const auto idx = n0.dataset.sample_batch(r, static_cast<std::size_t>(cfg.batch_size));
    std::vector<const data::Sample*> batch;
    for (const std::size_t i : idx) batch.push_back(&n0.dataset[i]);
    out.num("nn.train_batch_us", time_ms(15, [&] { model.train_batch(batch, *opt); }) * 1e3);
    const std::size_t ns = std::min<std::size_t>(n0.dataset.size(), 200);
    out.num("nn.predict_us", time_ms(5, [&] {
              for (std::size_t i = 0; i < ns; ++i) {
                (void)model.predict(n0.dataset[i].bev, n0.dataset[i].command);
              }
            }) * 1e3 / static_cast<double>(ns));
  }

  // net: neighbour queries and contact estimates on the end positions.
  const int nv = sim.num_vehicles();
  out.num("net.neighbors_query_us", time_ms(5, [&] {
            for (int v = 0; v < nv; ++v) (void)sim.neighbors_in_range(v);
          }) * 1e3 / nv);
  const int pairs = std::min(nv - 1, 64);
  out.num("net.contact_estimate_us", time_ms(5, [&] {
            for (int a = 0; a < pairs; ++a) (void)sim.estimate_contact_between(a, a + 1);
          }) * 1e3 / pairs);

  // sim: a standalone world at workload scale.
  {
    sim::World world(cfg.world, cfg.num_vehicles, cfg.seed);
    const int steps = 20;
    out.num("sim.world_step_us",
            time_ms(3, [&] { for (int i = 0; i < steps; ++i) world.step(cfg.tick_s); }) * 1e3 /
                steps);
    const int samples = std::min(nv, 32);
    std::uint64_t id = 0;
    out.num("sim.collect_sample_us", time_ms(3, [&] {
              for (int v = 0; v < samples; ++v) (void)world.collect_sample(v, ++id);
            }) * 1e3 / samples);
  }
  return eval_ms;
}

/// Checkpoint round trips of a pass: failures, median costs, and a
/// "time:status" list for the log.
void emit_trips(Out& out, const Pass& p) {
  std::vector<double> save;
  std::vector<double> restore;
  std::string list;
  for (const RoundTrip& r : p.trips) {
    save.push_back(r.save_ms);
    restore.push_back(r.restore_ms);
    char at[32];
    std::snprintf(at, sizeof at, "%s%g:", list.empty() ? "" : " ", r.at_s);
    list += at;
    list += r.status == engine::CkptStatus::kOk && !r.resave_identical
                ? std::string_view("resave-differs")
                : engine::to_string(r.status);
  }
  out.num("engine.ckpt_save_ms", median(save));
  out.num("engine.ckpt_restore_ms", median(restore));
  out.num("engine.ckpt_mb", p.trips.empty() ? 0.0 : p.trips.back().mb);
  out.num("engine.ckpt_restore_failed", p.failed_trips());
  out.str("ckpt_trips", list);
}

int run_sim(const std::string& workload, std::uint64_t seed, int trace) {
  SimWorkload w = make_sim_workload(workload);
  w.cfg.seed = scenario_seed(seed, 0);
  Out out;
  out.str("workload", workload);
  out.num("seed", static_cast<double>(seed));
  emit_provenance(out, w.cfg.num_threads);

  if (trace == 0) {
    // Several scenarios per run, so one seed's encounter pattern does not
    // set the figure alone.
    Summary sum;
    for (int k = 0; k < w.scenarios; ++k) {
      SimWorkload wk = w;
      wk.cfg.seed = scenario_seed(seed, k);
      Pass p = set_up(wk, false, w.setup_reps);
      advance(p, p.sim_s);
      p.m = p.sim->finalize();
      sum.add(p);
    }
    sum.emit(out);
    out.print();
    return 0;
  }

  // Traced: a bare and a decorated sim of the same scenario advance in
  // alternating slices, so both see the same warm-up and machine state and
  // their difference is the trace's own cost. The decorated sim round-trips
  // a checkpoint after each slice (untimed); its end state feeds the replays.
  Pass bare = set_up(w, false, 1);
  Pass p = set_up(w, true, 1);
  for (double t = w.slice_s; p.sim->time() < p.sim_s; t += w.slice_s) {
    advance(bare, std::min(t, p.sim_s));
    advance(p, std::min(t, p.sim_s));
    p.trips.push_back(checkpoint_round_trip(w, *p.sim));
  }
  bare.m = bare.sim->finalize();
  p.m = p.sim->finalize();
  bare.sim.reset();
  TimedStrategy& ts = *p.timed;
  Summary sum;
  sum.add(p);
  out.flag("check.decorated_bit_identical",
           curve_digest(bare.m.loss_curve) == curve_digest(p.m.loss_curve) &&
               same_counts(bare.m.transfers, p.m.transfers));
  out.num("obs.trace_overhead_pct", (p.ms_per_sim_s() / bare.ms_per_sim_s() - 1.0) * 100.0);

  const double sim_s = p.sim_s;
  const auto tick = ts.totals(TimedStrategy::kOnTick);
  const auto xfer = ts.totals(TimedStrategy::kTransferComplete);
  const auto idle = ts.totals(TimedStrategy::kSessionIdle);
  const auto abort = ts.totals(TimedStrategy::kSessionAborted);
  const auto setup = ts.totals(TimedStrategy::kSetup);
  const auto train = ts.totals(TimedStrategy::kLocalTrain);
  const double train_wall_ms = ts.local_train_wall_ms();
  const int lanes = std::max(1, std::min(ts.lanes_used(), w.cfg.num_threads));
  const bool is_lbchat = dynamic_cast<core::LbChatStrategy*>(&ts.inner()) != nullptr;

  out.num("core.model_phase_calls", is_lbchat ? idle.calls : 0);
  out.num("core.model_phase_ms", is_lbchat ? idle.ms : 0.0);
  out.num("core.on_transfer_ms", is_lbchat ? xfer.ms : 0.0);
  out.num("core.on_tick_ms_per_sim_s", is_lbchat ? tick.ms / sim_s : 0.0);
  out.num("baselines.on_tick_ms_per_sim_s", is_lbchat ? 0.0 : tick.ms / sim_s);
  out.num("baselines.on_transfer_calls", is_lbchat ? 0 : xfer.calls);
  out.num("baselines.on_transfer_ms", is_lbchat ? 0.0 : xfer.ms);
  out.num("nn.local_train_calls", train.calls);
  out.num("nn.local_train_busy_ms_per_sim_s", train.ms / sim_s);
  out.num("nn.local_train_wall_ms_per_sim_s", train_wall_ms / sim_s);
  out.num("nn.lane_efficiency", train_wall_ms > 0 ? train.ms / (train_wall_ms * lanes) : 0.0);

  const double eval_ms = replay_layers(out, w, p, ts.inner());

  // Evaluations inside run_until: every curve point after the t=0 one.
  const double eval_calls = static_cast<double>(p.m.loss_curve.values.size()) - 1.0;
  const double callbacks_ms = tick.ms + xfer.ms + idle.ms + abort.ms + train_wall_ms;
  out.num("engine.prepare_s", p.setup_s.front());
  out.num("engine.eval_calls", eval_calls);
  out.num("engine.other_ms_per_sim_s", (p.run_ms - callbacks_ms - eval_calls * eval_ms) / sim_s);
  out.num("sim.collect_s", p.setup_s.front() - setup.ms * 1e-3 - eval_ms * 1e-3);
  emit_trips(out, p);
  sum.emit(out);
  out.print();
  return 0;
}

// ---------------------------------------------------------------- service_mix

struct JobDef {
  std::string spec;
  int repeat_of = -1;  ///< index of an earlier job with the same spec
  bool events = false;
};

constexpr int kOutstanding = 4;
constexpr std::size_t kBacklogJobs = 1024;  ///< persisted jobs a timed set-up recovers
constexpr int kSetupWarmups = 3;
constexpr int kSetupReps = 30;
constexpr int kRepeatLag = 8;  ///< a repeat names a job at least this far back
constexpr double kJobDurationS = 360.0;

/// The job list, a fixed template: 20 fresh specs cycling through five
/// registry strategies at 8 vehicles, every second one self-preempting mid
/// run (checkpoint write + restore) and every third one recording events
/// (exclusive obs lease), with repeats of earlier specs at four fixed slots
/// so result-cache reads run beside fresh runs. The seed sets the scenario
/// seeds and picks which earlier specs repeat; the composition and order
/// stay fixed so seeds differ little in cost.
std::vector<JobDef> make_jobs(std::uint64_t seed) {
  static const char* const kStrategies[] = {"LbChat", "DP", "DynThresh", "DFL-DDS", "SimGossip"};
  constexpr int kFresh = 20;
  constexpr int kRepeatSlots[] = {10, 14, 18, 22};
  std::mt19937_64 g(seed * 0x9E3779B97F4A7C15ULL + 0x51);
  std::vector<JobDef> fresh;
  for (int i = 0; i < kFresh; ++i) {
    const bool events = i % 3 == 0;
    const bool preempt = i % 2 == 1;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"strategy\":\"%s\",\"vehicles\":8,\"duration\":%g,\"collect_duration\":300,"
                  "\"seed\":%" PRIu64 ",\"events\":%s,\"preempt_at\":%g}",
                  kStrategies[i % std::size(kStrategies)], kJobDurationS,
                  seed * 1000 + static_cast<std::uint64_t>(i), events ? "true" : "false",
                  preempt ? kJobDurationS / 2 : 0.0);
    fresh.push_back({buf, -1, events});
  }

  std::vector<JobDef> jobs;
  std::size_t next_fresh = 0;
  for (const int slot : kRepeatSlots) {
    while (static_cast<int>(jobs.size()) < slot) jobs.push_back(fresh[next_fresh++]);
    const int src = static_cast<int>(g() % static_cast<std::uint64_t>(slot - kRepeatLag + 1));
    const int orig = jobs[static_cast<std::size_t>(src)].repeat_of >= 0
                         ? jobs[static_cast<std::size_t>(src)].repeat_of
                         : src;
    jobs.push_back({jobs[static_cast<std::size_t>(orig)].spec, orig,
                    jobs[static_cast<std::size_t>(orig)].events});
  }
  while (next_fresh < fresh.size()) jobs.push_back(fresh[next_fresh++]);
  return jobs;
}

/// Final mean eval loss from a payload's manifest, or NaN when the manifest
/// is unreadable or any loss-curve point is non-finite.
double manifest_final_loss(const svc::JobPayload& pl) {
  std::string err;
  const auto doc = svc::json_parse(pl.manifest_json, err);
  const svc::JsonValue* curve = doc ? doc->get("loss_curve") : nullptr;
  const svc::JsonValue* values = curve ? curve->get("values") : nullptr;
  if (!values || !values->is_array() || values->items().empty()) return NAN;
  for (const auto& v : values->items()) {
    if (!v->is_number() || !std::isfinite(v->as_number())) return NAN;
  }
  return values->items().back()->as_number();
}

struct JobRecord {
  std::uint64_t id = 0;
  double submit_s = 0.0;
  double start_s = -1.0;
  double done_s = -1.0;
  svc::JobStatus final;
};

int run_service(std::uint64_t seed, int trace, const std::filesystem::path& work) {
  namespace fs = std::filesystem;
  const std::vector<JobDef> jobs = make_jobs(seed);
  Out out;
  out.str("workload", "service_mix");
  out.num("seed", static_cast<double>(seed));
  const int workers = 2;
  emit_provenance(out, workers);

  int root_no = 0;
  const auto fresh_root = [&] {
    fs::path r = work / ("svc-" + std::to_string(::getpid()) + "-" + std::to_string(root_no++));
    fs::remove_all(r);
    return r;
  };
  const auto options = [&](fs::path root) {
    svc::ServiceOptions o;
    o.workers = workers;
    o.root = std::move(root);
    return o;
  };

  // Set-up: a restart's recovery. A service without workers takes a backlog
  // of the run's specs and persists them at shutdown; each set-up then
  // constructs a service over that root, which reads, parses and
  // fingerprints every persisted job and re-queues it. Without workers none
  // of them starts. The first few set-ups warm the file cache, untimed.
  std::vector<double> setup_s;
  bool backlog_recovered = true;
  {
    const fs::path backlog = fresh_root();
    svc::ServiceOptions o = options(backlog);
    o.workers = 0;
    o.queue_capacity = kBacklogJobs;
    {
      svc::FleetService s(o);
      for (std::size_t i = 0; i < kBacklogJobs; ++i) {
        std::string err;
        backlog_recovered = backlog_recovered && s.submit(jobs[i % jobs.size()].spec, err) != 0;
      }
      s.shutdown(true);
    }
    for (int k = 0; k < kSetupWarmups + kSetupReps; ++k) {
      const std::int64_t t0 = now_ns();
      svc::FleetService s(o);
      if (k >= kSetupWarmups) setup_s.push_back(seconds_since(t0));
      backlog_recovered = backlog_recovered && s.stats().recovered == kBacklogJobs;
      s.shutdown(false);
    }
    fs::remove_all(backlog);
  }

  const fs::path root = fresh_root();
  std::vector<JobRecord> rec(jobs.size());
  double makespan_s = 0.0;
  svc::ServiceStats st;
  bool payloads_ok = true;
  bool submit_ok = true;
  bool curves_finite = true;
  std::vector<double> final_losses;
  {
    svc::FleetService service(options(root));
    const std::int64_t t0 = now_ns();
    std::vector<std::size_t> outstanding;
    std::size_t next = 0;
    // Records first-run and done times; true once job i is terminal.
    const auto poll = [&](std::size_t i) {
      const auto s = service.status(rec[i].id);
      if (!s) return true;  // unknown id: left non-done, counted as failed
      const double t = seconds_since(t0);
      if (rec[i].start_s < 0 && s->state != svc::JobState::kQueued) rec[i].start_s = t;
      const bool terminal = s->state == svc::JobState::kDone ||
                            s->state == svc::JobState::kFailed ||
                            s->state == svc::JobState::kCancelled;
      if (terminal) {
        rec[i].done_s = t;
        rec[i].final = *s;
      }
      return terminal;
    };
    while (next < jobs.size() || !outstanding.empty()) {
      while (next < jobs.size() && static_cast<int>(outstanding.size()) < kOutstanding) {
        const JobDef& d = jobs[next];
        if (d.repeat_of >= 0) {
          // The spec it repeats must be finished so the read is a cache hit.
          const std::size_t src = static_cast<std::size_t>(d.repeat_of);
          while (rec[src].done_s < 0) {
            if (poll(src)) {
              outstanding.erase(std::remove(outstanding.begin(), outstanding.end(), src),
                                outstanding.end());
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
        std::string err;
        rec[next].submit_s = seconds_since(t0);
        rec[next].id = service.submit(d.spec, err);
        if (rec[next].id == 0) {
          submit_ok = false;
          rec[next].done_s = rec[next].submit_s;
          rec[next].final.state = svc::JobState::kFailed;
          rec[next].final.error = err;
        } else {
          outstanding.push_back(next);
        }
        ++next;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      outstanding.erase(std::remove_if(outstanding.begin(), outstanding.end(), poll),
                        outstanding.end());
    }
    makespan_s = seconds_since(t0);
    st = service.stats();

    // Output checks: every executed job's loss curve is finite, and a
    // cache-served repeat returns its original's payload.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (rec[i].final.state != svc::JobState::kDone) continue;
      if (jobs[i].repeat_of < 0) {
        svc::JobPayload pl;
        std::string err;
        const double f = service.result(rec[i].id, pl, err) ? manifest_final_loss(pl) : NAN;
        curves_finite = curves_finite && std::isfinite(f);
        final_losses.push_back(f);
        continue;
      }
      const std::size_t src = static_cast<std::size_t>(jobs[i].repeat_of);
      svc::JobPayload a;
      svc::JobPayload b;
      std::string err;
      if (!service.result(rec[src].id, a, err) || !service.result(rec[i].id, b, err) ||
          a.manifest_json != b.manifest_json || a.metrics_json != b.metrics_json ||
          a.events_jsonl != b.events_jsonl) {
        payloads_ok = false;
      }
    }
    service.shutdown(false);
  }
  fs::remove_all(root);

  std::vector<double> turnaround;
  std::vector<double> events_turnaround;
  std::vector<double> plain_turnaround;
  std::vector<double> queue_wait;
  int failed = 0;
  int executed = 0;
  int cached = 0;
  std::string first_error;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& r = rec[i];
    if (r.final.state != svc::JobState::kDone) {
      ++failed;
      if (first_error.empty()) first_error = r.final.error;
      continue;
    }
    if (r.final.cached) {
      ++cached;
      continue;
    }
    ++executed;
    const double ta = r.done_s - r.submit_s;
    turnaround.push_back(ta);
    (jobs[i].events ? events_turnaround : plain_turnaround).push_back(ta);
    if (r.start_s >= 0) queue_wait.push_back(r.start_s - r.submit_s);
  }

  out.num("setup_s", median(setup_s));
  out.num("setup_reps", static_cast<double>(setup_s.size()));
  out.flag("check.backlog_recovered", backlog_recovered);
  out.num("makespan_s", makespan_s);
  out.num("jobs_per_min", executed / (makespan_s / 60.0));
  out.num("sim_s_executed", executed * kJobDurationS);
  out.num("turnaround_s_p50", median(turnaround));
  out.num("turnaround_samples", static_cast<double>(turnaround.size()));
  out.flag("check.cached_payloads_identical", payloads_ok);
  out.flag("check.curve_finite", curves_finite && !final_losses.empty());
  out.num("final_loss", median(final_losses));
  out.flag("check.all_submitted", submit_ok);
  out.str("first_error", first_error);
  if (trace) {
    out.num("svc.jobs_executed", executed);
    out.num("svc.jobs_failed", failed);
    out.num("svc.cache_hits", static_cast<double>(st.cache_hits));
    out.num("svc.cache_hit_share", static_cast<double>(cached) / static_cast<double>(jobs.size()));
    out.num("svc.preemptions", static_cast<double>(st.preemptions));
    out.num("svc.queue_wait_s_p50", median(queue_wait));
    out.num("svc.events_turnaround_s_p50", median(events_turnaround));
    out.num("svc.plain_turnaround_s_p50", median(plain_turnaround));
  }
  out.num("attempted", static_cast<double>(jobs.size()));
  out.num("failed", failed);
  out.num("peak_rss_mb", peak_rss_mb());
  out.print();
  return 0;
}

// ---------------------------------------------------------------- selftest

/// Decorated runs are bit-identical to bare ones at 1 and 2 lanes: same
/// loss-curve digest, same transfer counts, same checkpoint bytes.
int run_selftest() {
  Out out;
  emit_provenance(out, 2);
  bool all_ok = true;
  for (const char* strategy : {"LbChat", "DP"}) {
    std::uint64_t ref_digest = 0;
    std::vector<std::uint8_t> ref_ckpt;
    engine::TransferStats ref_counts;
    bool first = true;
    for (const int lanes : {1, 2}) {
      for (const bool timed : {false, true}) {
        ScenarioConfig cfg;
        cfg.num_vehicles = 6;
        cfg.collect_duration_s = 120.0;
        cfg.duration_s = 240.0;
        cfg.num_threads = lanes;
        FleetSim sim(cfg, make_strategy(strategy, timed));
        sim.run_until(cfg.duration_s);
        ByteWriter ckpt;
        sim.save_checkpoint(ckpt);
        const engine::RunMetrics m = sim.finalize();
        const std::uint64_t digest = curve_digest(m.loss_curve);
        if (first) {
          ref_digest = digest;
          ref_ckpt = ckpt.bytes();
          ref_counts = m.transfers;
          first = false;
        }
        const bool ok = digest == ref_digest && ckpt.bytes() == ref_ckpt &&
                        same_counts(m.transfers, ref_counts);
        all_ok = all_ok && ok;
        const std::string key = std::string("selftest.") + strategy + ".lanes" +
                                std::to_string(lanes) + (timed ? ".timed" : ".bare");
        out.u64(key + ".curve_digest", digest);
        out.u64(key + ".ckpt_fnv", fnv1a(ckpt.bytes()));
        out.flag(key + ".identical", ok);
      }
    }
  }
  out.flag("check.selftest_bit_identical", all_ok);
  out.print();
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: lbchat_perfbench sim --workload NAME --seed N --trace 0|1\n"
               "       lbchat_perfbench service --seed N --trace 0|1 --work DIR\n"
               "       lbchat_perfbench selftest\n");
  return 2;
}

}  // namespace
}  // namespace lbchat::perfbench

int main(int argc, char** argv) {
  using namespace lbchat::perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string work = ".";
  std::uint64_t seed = 1;
  int trace = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::stoull(v);
    } else if (k == "--trace") {
      trace = std::stoi(v);
    } else if (k == "--work") {
      work = v;
    } else {
      return usage();
    }
  }
  try {
    if (mode == "sim") return run_sim(workload, seed, trace);
    if (mode == "service") return run_service(seed, trace, work);
    if (mode == "selftest") return run_selftest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbchat_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
