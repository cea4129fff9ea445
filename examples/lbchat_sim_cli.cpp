// lbchat_sim_cli: run any approach/configuration from the command line and
// print the metrics the paper reports — loss curve, receiving rate, and
// (optionally) driving success rates. Flags: see usage(). Every --some-key
// VALUE is the job-spec key "some_key" (svc/job.h), set by the same
// engine::FieldSetter.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/registry.h"
#include "common/bytes.h"
#include "engine/checkpoint.h"
#include "engine/fleet.h"
#include "engine/report.h"
#include "eval/online.h"
#include "nn/kernel_dispatch.h"
#include "obs/export.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lbchat_sim_cli [--strategy NAME] [--strategy-opt KEY=VALUE]...\n"
               "                      [--list-strategies] [--eval] [--help]\n"
               "                      [--kernel auto|scalar|avx2|neon]\n"
               "                      [--KEY VALUE]... [--int8-eval] [--no-wireless-loss]\n"
               "                      [--trace-out FILE] [--events-out FILE]\n"
               "                      [--metrics-out FILE] [--report-out FILE]\n"
               "  --strategy NAME   registry name (--approach is a legacy alias)\n"
               "  --strategy-opt KEY=VALUE  set a per-strategy tunable (repeatable;\n"
               "                    keys must exist in the strategy's schema)\n"
               "  --list-strategies print every registered strategy with its\n"
               "                    option schema, then exit\n"
               "  --kernel NAME     GEMM backend: auto (default; best available),\n"
               "                    scalar (bit-reproduces committed goldens),\n"
               "                    avx2, neon; errors if NAME is unavailable on\n"
               "                    this build/CPU (LBCHAT_KERNEL is the env\n"
               "                    equivalent, with warn-and-fallback instead)\n"
               "  --KEY VALUE       a job-spec scenario key, dashes for underscores;\n"
               "                    VALUE is an exact literal (integers: no sign,\n"
               "                    fraction or exponent). Short names: --vehicles N,\n"
               "                    --duration S (defaults 8, 900), --seed N,\n"
               "                    --collect-duration S, --coreset N, --threads N\n"
               "                    (0 = all cores; bit-identical for any N),\n"
               "                    --byzantine-frac F, --straggler-frac F,\n"
               "                    --num-vehicles N (metro: tile the map to keep\n"
               "                    density); any field-table row by dotted name:\n"
               "                    --faults.burst-rate-per-min 2 (engine/scenario.h)\n"
               "  --int8-eval       int8-quantized coreset scoring and eval losses\n"
               "  --no-wireless-loss  lossless links (the paper's case (a))\n"
               "  --eval            also report driving success rates\n"
               "  --trace-out F     Chrome trace-event JSON (open in Perfetto);\n"
               "                    records sim events + wall-clock spans\n"
               "  --events-out F    sim-time event log, one JSON object per line\n"
               "                    (records the run's events)\n"
               "  --metrics-out F   the run's run.* counters and gauges as JSON\n"
               "  --report-out F    per-vehicle run report (.csv => CSV, else JSON)\n"
               "  --checkpoint-out F   write a run-state checkpoint at the horizon\n"
               "  --resume-from F      restore run state from a checkpoint first\n"
               "  --checkpoint-every S also checkpoint periodically (sim seconds;\n"
               "                       overwrites --checkpoint-out each time)\n");
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool ok = out.empty() || std::fread(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

bool save_checkpoint_file(const lbchat::engine::FleetSim& sim, const std::string& path) {
  lbchat::ByteWriter w;
  sim.save_checkpoint(w);
  const auto& bytes = w.bytes();
  return write_file(path, std::string{bytes.begin(), bytes.end()});
}

int run_cli(int argc, char** argv) {
  using namespace lbchat;

  std::string approach_name = "LbChat";
  baselines::StrategyOptions strategy_opts;
  engine::ScenarioConfig cfg;
  cfg.num_vehicles = 8;
  cfg.duration_s = 900.0;
  engine::FieldSetter setter{cfg};
  std::string error;
  bool run_eval = false;
  std::string trace_out, events_out, metrics_out, report_out, checkpoint_out, resume_from;
  const std::pair<std::string_view, std::string*> path_flags[] = {
      {"--trace-out", &trace_out},           {"--events-out", &events_out},
      {"--metrics-out", &metrics_out},       {"--report-out", &report_out},
      {"--checkpoint-out", &checkpoint_out}, {"--resume-from", &resume_from}};
  double checkpoint_every = 0.0;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    const std::string flag = argv[i];
    const auto path_flag = std::find_if(std::begin(path_flags), std::end(path_flags),
                                        [&](const auto& f) { return f.first == flag; });
    if (path_flag != std::end(path_flags)) {
      *path_flag->second = need_value(argv[i]);
    } else if (flag == "--strategy" || flag == "--approach") {
      approach_name = need_value(argv[i]);
    } else if (flag == "--strategy-opt") {
      const std::string kv = need_value("--strategy-opt");
      const std::size_t eq = kv.find('=');
      double value = 0.0;
      if (eq == 0 || eq == std::string::npos ||
          !engine::parse_finite(std::string_view{kv}.substr(eq + 1), value)) {
        std::fprintf(stderr, "--strategy-opt expects KEY=NUMBER, got '%s'\n", kv.c_str());
        return 2;
      }
      strategy_opts.set(kv.substr(0, eq), value);
    } else if (flag == "--help") {
      usage();
      return 0;
    } else if (flag == "--list-strategies") {
      for (const std::string& name : baselines::registry().list()) {
        std::printf("%s\n", name.c_str());
        for (const auto& opt : baselines::registry().option_schema(name)) {
          std::printf("  --strategy-opt %s=%g  %s, in [%g, %g]\n", opt.name.c_str(),
                      opt.default_value, opt.description.c_str(), opt.min_value,
                      opt.max_value);
        }
      }
      return 0;
    } else if (flag == "--kernel") {
      const std::string name = need_value("--kernel");
      if (name != "auto") {
        const auto parsed = nn::parse_kernel_path(name);
        if (!parsed.has_value()) {
          std::fprintf(stderr, "--kernel expects auto/scalar/avx2/neon, got '%s'\n", name.c_str());
          return 2;
        }
        if (!nn::kernel_path_available(*parsed)) {
          std::fprintf(stderr, "--kernel %s is not available on this build/CPU\n", name.c_str());
          return 2;
        }
        nn::set_kernel_path(*parsed);
      }
    } else if (flag == "--int8-eval") {
      cfg.int8_eval.enabled = true;
    } else if (flag == "--no-wireless-loss") {
      cfg.wireless_loss = false;
    } else if (flag == "--eval") {
      run_eval = true;
    } else if (flag == "--checkpoint-every") {
      if (!engine::parse_finite(need_value("--checkpoint-every"), checkpoint_every)) {
        std::fprintf(stderr, "--checkpoint-every expects a number of sim seconds\n");
        return 2;
      }
    } else if (flag.size() > 2 && flag.starts_with("--")) {
      std::string key = flag.substr(2);
      std::replace(key.begin(), key.end(), '-', '_');
      if (!setter.set(key, need_value(argv[i]), error)) {
        std::fprintf(stderr, "%s: %s\n", flag.c_str(), error.c_str());
        usage();
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      usage();
      return 2;
    }
  }

  std::unique_ptr<engine::Strategy> strategy;
  try {
    strategy = baselines::registry().make(approach_name, strategy_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage();
    return 2;
  }
  if (!setter.finish(error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  std::printf(
      "approach=%s vehicles=%d duration=%.0fs coreset=%zu wireless_loss=%d seed=%llu "
      "threads=%d kernel=%s int8_eval=%d\n",
      approach_name.c_str(), cfg.num_vehicles, cfg.duration_s, cfg.coreset_size,
      cfg.wireless_loss ? 1 : 0, static_cast<unsigned long long>(cfg.seed), cfg.num_threads,
      std::string{nn::kernel_path_name(nn::active_kernel_path())}.c_str(),
      cfg.int8_eval.enabled ? 1 : 0);

  // Tracing is opt-in: the run records sim events for the event log and
  // the Chrome trace; wall-clock spans only for the trace (they appear
  // nowhere else). LBCHAT_TRACE can also enable either without a flag.
  const obs::TraceRequest env = obs::trace_request_from_env();
  obs::set_spans_enabled(env.spans || !trace_out.empty());
  engine::FleetSim sim{cfg, std::move(strategy),
                       env.events || !trace_out.empty() || !events_out.empty()};

  if (!resume_from.empty()) {
    std::vector<std::uint8_t> bytes;
    if (!read_file(resume_from, bytes)) return 1;
    ByteReader r{bytes};
    const engine::CkptStatus st = sim.restore(r);
    if (st != engine::CkptStatus::kOk) {
      std::fprintf(stderr, "cannot resume from %s: %s\n", resume_from.c_str(),
                   std::string{engine::to_string(st)}.c_str());
      return 1;
    }
    std::printf("resumed from %s at t=%.1fs\n", resume_from.c_str(), sim.time());
  }

  sim.prepare();
  if (checkpoint_every > 0.0 && !checkpoint_out.empty()) {
    double next_ckpt = sim.time() + checkpoint_every;
    while (sim.time() < cfg.duration_s) {
      sim.run_until(next_ckpt < cfg.duration_s ? next_ckpt : cfg.duration_s);
      if (!save_checkpoint_file(sim, checkpoint_out)) return 1;
      next_ckpt += checkpoint_every;
    }
  } else {
    sim.run_until(cfg.duration_s);
    // The checkpoint captures the pre-finalize state, so resuming it with a
    // longer --duration continues the run bit-identically.
    if (!checkpoint_out.empty() && !save_checkpoint_file(sim, checkpoint_out)) return 1;
  }
  const engine::RunMetrics m = sim.finalize();

  int export_failures = 0;
  if (!trace_out.empty() || !events_out.empty() || !metrics_out.empty() ||
      !report_out.empty()) {
    const auto events = sim.events().events();
    if (!trace_out.empty() &&
        !write_file(trace_out, obs::chrome_trace_json(events, obs::spans().spans()))) {
      ++export_failures;
    }
    if (!events_out.empty() &&
        !write_file(events_out, obs::events_jsonl(events, sim.events().dropped()))) {
      ++export_failures;
    }
    if (!metrics_out.empty() &&
        !write_file(metrics_out, obs::metrics_json(engine::summary_snapshot(m)))) {
      ++export_failures;
    }
    if (!report_out.empty()) {
      const obs::RunReport report = engine::build_run_report(approach_name, cfg, m);
      const std::string body = report_out.ends_with(".csv")
                                   ? obs::run_report_csv(report)
                                   : obs::run_report_json(report);
      if (!write_file(report_out, body)) ++export_failures;
    }
  }

  std::printf("\nloss curve:\n");
  for (std::size_t i = 0; i < m.loss_curve.size(); ++i) {
    std::printf("  %6.0fs  %.4f\n", m.loss_curve.times[i], m.loss_curve.values[i]);
  }
  std::printf("\nlocal SGD steps: %ld\n", m.train_steps);
  std::printf("sessions: %d started, %d aborted\n", m.transfers.sessions_started,
              m.transfers.sessions_aborted);
  std::printf("model sends: %d/%d completed (receiving rate %.0f%%)\n",
              m.transfers.model_sends_completed, m.transfers.model_sends_started,
              100.0 * m.transfers.model_receiving_rate());
  std::printf("coreset sends: %d/%d completed\n", m.transfers.coreset_sends_completed,
              m.transfers.coreset_sends_started);
  std::printf("bytes delivered: %.1f MB\n",
              static_cast<double>(m.transfers.bytes_delivered) / 1048576.0);
  if (cfg.adversary.enabled()) {
    std::printf("byzantine: %d poisoned payloads sent, attacker weight share %.3f, "
                "%d frames rejected for invalid values\n",
                m.transfers.byzantine_payloads_sent, m.transfers.attacker_weight_share(),
                m.transfers.frames_rejected_invalid);
  }
  if (cfg.hetero.enabled()) {
    std::printf("heterogeneity: %ld straggler train skips\n",
                m.transfers.straggler_train_skips);
  }

  if (run_eval) {
    eval::EvalConfig ec;
    ec.world_seed = cfg.seed;
    ec.trials = 12;
    const eval::OnlineEvaluator ev{ec};
    nn::DrivingPolicy model{cfg.policy, 0};
    model.set_params(m.final_params.front());
    std::printf("\ndriving success rates (vehicle 0's model, %d trials):\n", ec.trials);
    for (const auto task : eval::kAllTasks) {
      std::printf("  %-15s %3.0f%%\n", std::string{eval::task_name(task)}.c_str(),
                  100.0 * ev.success_rate(model, task));
    }
  }
  return export_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A run that throws (a strategy or engine invariant) is reported, not
  // left to abort the process.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
