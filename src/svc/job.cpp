#include "svc/job.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/fingerprint.h"
#include "nn/kernel_dispatch.h"
#include "svc/json.h"

namespace lbchat::svc {
namespace {

// Spec parsing accumulates into this context so every helper can fail with a
// key-specific message without exceptions.
struct ParseCtx {
  std::string& error;
  bool ok = true;

  void fail(const std::string& what) {
    if (ok) error = what;
    ok = false;
  }
};

bool want_number(ParseCtx& ctx, const std::string& key, const JsonValue& v, double& out) {
  if (!v.is_number()) {
    ctx.fail("\"" + key + "\" must be a number");
    return false;
  }
  out = v.as_number();
  return true;
}

bool want_int(ParseCtx& ctx, const std::string& key, const JsonValue& v, int& out) {
  double d = 0.0;
  if (!want_number(ctx, key, v, d)) return false;
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
    ctx.fail("\"" + key + "\" must be an integer");
    return false;
  }
  out = static_cast<int>(d);
  return true;
}

bool want_bool(ParseCtx& ctx, const std::string& key, const JsonValue& v, bool& out) {
  if (!v.is_bool()) {
    ctx.fail("\"" + key + "\" must be a boolean");
    return false;
  }
  out = v.as_bool();
  return true;
}

void apply_faults(ParseCtx& ctx, const JsonValue& obj, engine::FaultConfig& f) {
  if (!obj.is_object()) {
    ctx.fail("\"faults\" must be an object");
    return;
  }
  for (const auto& [key, value] : obj.members()) {
    const JsonValue& v = *value;
    if (key == "burst_rate_per_min") {
      want_number(ctx, key, v, f.burst_rate_per_min);
    } else if (key == "burst_duration_s") {
      want_number(ctx, key, v, f.burst_duration_s);
    } else if (key == "burst_radius_m") {
      want_number(ctx, key, v, f.burst_radius_m);
    } else if (key == "burst_extra_loss") {
      want_number(ctx, key, v, f.burst_extra_loss);
    } else if (key == "churn_rate_per_min") {
      want_number(ctx, key, v, f.churn_rate_per_min);
    } else if (key == "churn_offline_mean_s") {
      want_number(ctx, key, v, f.churn_offline_mean_s);
    } else if (key == "corrupt_prob_near") {
      want_number(ctx, key, v, f.corrupt_prob_near);
    } else if (key == "corrupt_prob_far") {
      want_number(ctx, key, v, f.corrupt_prob_far);
    } else if (key == "chat_backoff") {
      want_bool(ctx, key, v, f.chat_backoff);
    } else if (key == "backoff_base") {
      want_number(ctx, key, v, f.backoff_base);
    } else if (key == "backoff_max_exp") {
      want_int(ctx, key, v, f.backoff_max_exp);
    } else {
      ctx.fail("unknown faults key \"" + key + "\"");
    }
    if (!ctx.ok) return;
  }
}

}  // namespace

bool parse_job_spec(std::string_view text, JobSpec& out, std::string& error) {
  out = JobSpec{};
  out.source = std::string{text};

  std::string json_error;
  const auto root = json_parse(text, json_error);
  if (root == nullptr) {
    error = "invalid JSON: " + json_error;
    return false;
  }
  if (!root->is_object()) {
    error = "job spec must be a JSON object";
    return false;
  }

  ParseCtx ctx{error};
  engine::ScenarioConfig& cfg = out.cfg;
  int metro_vehicles = 0;
  int v_int = 0;
  double v_num = 0.0;

  for (const auto& [key, value] : root->members()) {
    const JsonValue& v = *value;
    if (key == "strategy" || key == "approach") {
      // "approach" is the pre-registry spelling; both name the registry key.
      if (!v.is_string()) {
        ctx.fail("\"" + key + "\" must be a string");
      } else {
        out.approach_name = v.as_string();
      }
    } else if (key == "strategy_options") {
      if (!v.is_object()) {
        ctx.fail("\"strategy_options\" must be an object");
      } else {
        for (const auto& [opt_key, opt_value] : v.members()) {
          double opt_num = 0.0;
          if (!want_number(ctx, "strategy_options." + opt_key, *opt_value, opt_num)) break;
          out.options.set(opt_key, opt_num);
        }
      }
    } else if (key == "name") {
      if (!v.is_string()) {
        ctx.fail("\"name\" must be a string");
      } else {
        out.name = v.as_string();
      }
    } else if (key == "priority") {
      want_int(ctx, key, v, out.priority);
    } else if (key == "events") {
      want_bool(ctx, key, v, out.events);
    } else if (key == "preempt_at") {
      want_number(ctx, key, v, out.preempt_at);
    } else if (key == "vehicles") {
      if (want_int(ctx, key, v, v_int)) cfg.num_vehicles = v_int;
    } else if (key == "num_vehicles") {
      want_int(ctx, key, v, metro_vehicles);
    } else if (key == "duration") {
      want_number(ctx, key, v, cfg.duration_s);
    } else if (key == "collect_duration") {
      want_number(ctx, key, v, cfg.collect_duration_s);
    } else if (key == "collect_fps") {
      want_number(ctx, key, v, cfg.collect_fps);
    } else if (key == "coreset") {
      if (want_int(ctx, key, v, v_int)) {
        if (v_int < 1) {
          ctx.fail("\"coreset\" must be >= 1");
        } else {
          cfg.coreset_size = static_cast<std::size_t>(v_int);
        }
      }
    } else if (key == "seed") {
      if (want_number(ctx, key, v, v_num)) {
        if (v_num < 0.0) {
          ctx.fail("\"seed\" must be >= 0");
        } else {
          cfg.seed = static_cast<std::uint64_t>(v_num);
        }
      }
    } else if (key == "threads") {
      want_int(ctx, key, v, cfg.num_threads);
    } else if (key == "wireless_loss") {
      want_bool(ctx, key, v, cfg.wireless_loss);
    } else if (key == "eval_interval") {
      want_number(ctx, key, v, cfg.eval_interval_s);
    } else if (key == "train_interval") {
      want_number(ctx, key, v, cfg.train_interval_s);
    } else if (key == "batch_size") {
      want_int(ctx, key, v, cfg.batch_size);
    } else if (key == "learning_rate") {
      want_number(ctx, key, v, cfg.learning_rate);
    } else if (key == "time_budget") {
      want_number(ctx, key, v, cfg.time_budget_s);
    } else if (key == "pair_cooldown") {
      want_number(ctx, key, v, cfg.pair_cooldown_s);
    } else if (key == "session_timeout") {
      want_number(ctx, key, v, cfg.session_timeout_s);
    } else if (key == "byzantine_frac") {
      want_number(ctx, key, v, cfg.adversary.byzantine_frac);
    } else if (key == "straggler_frac") {
      if (want_number(ctx, key, v, v_num)) engine::apply_straggler_profile(cfg, v_num);
    } else if (key == "background_cars") {
      want_int(ctx, key, v, cfg.world.num_background_cars);
    } else if (key == "pedestrians") {
      want_int(ctx, key, v, cfg.world.num_pedestrians);
    } else if (key == "eval_frames") {
      want_int(ctx, key, v, cfg.eval_frames_per_vehicle);
    } else if (key == "radio_range") {
      want_number(ctx, key, v, cfg.radio.max_range_m);
    } else if (key == "model_bytes") {
      if (want_number(ctx, key, v, v_num)) {
        if (v_num < 1.0) {
          ctx.fail("\"model_bytes\" must be >= 1");
        } else {
          cfg.wire.model_bytes = static_cast<std::size_t>(v_num);
        }
      }
    } else if (key == "coreset_bytes_per_sample") {
      if (want_number(ctx, key, v, v_num)) {
        if (v_num < 1.0) {
          ctx.fail("\"coreset_bytes_per_sample\" must be >= 1");
        } else {
          cfg.wire.coreset_bytes_per_sample = static_cast<std::size_t>(v_num);
        }
      }
    } else if (key == "faults") {
      apply_faults(ctx, v, cfg.faults);
    } else {
      ctx.fail("unknown key \"" + key + "\"");
    }
    if (!ctx.ok) return false;
  }

  if (!baselines::registry().contains(out.approach_name)) {
    error = "unknown strategy '" + out.approach_name + "'";
    return false;
  }
  // Validate option keys against the strategy's schema now, so a typo fails
  // the submission instead of the worker.
  try {
    (void)baselines::registry().fingerprint_options(out.approach_name, out.options);
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return false;
  }
  // Metro scaling last, so it composes with "vehicles" regardless of member
  // order — same rule as the CLI.
  if (metro_vehicles > 0) engine::apply_metro_scale(cfg, metro_vehicles);
  if (cfg.num_vehicles < 2) {
    error = "need at least 2 vehicles";
    return false;
  }
  if (cfg.duration_s <= 0.0) {
    error = "\"duration\" must be > 0";
    return false;
  }
  if (cfg.num_threads < 0) {
    error = "\"threads\" must be >= 0";
    return false;
  }
  return true;
}

std::uint64_t job_fingerprint(const JobSpec& spec) {
  const auto opts = baselines::registry().fingerprint_options(spec.approach_name, spec.options);
  // Identity on the scalar path, so historical ResultCache entries keep
  // their keys; a SIMD-backed daemon gets a disjoint key space because its
  // run results differ bit-wise from the scalar ones.
  const std::uint64_t base =
      nn::salt_with_kernel_path(scenario_fingerprint(spec.cfg, spec.approach_name, opts));
  if (!spec.events) return base;
  // An events job additionally exports events.jsonl, so its payload differs
  // from the plain job's — it must not share a cache entry.
  FnvHasher h;
  h.add(base);
  h.add(std::string_view{"payload-events-v1"});
  return h.digest();
}

}  // namespace lbchat::svc
