#include "svc/job.h"

#include <cmath>
#include <stdexcept>

#include "common/fingerprint.h"
#include "nn/kernel_dispatch.h"
#include "svc/json.h"

namespace lbchat::svc {
namespace {

std::string_view source_of(std::string_view text, const JsonValue& v) {
  return text.substr(v.source_begin(), v.source_end() - v.source_begin());
}

/// Hands a scenario member to the field setter: a leaf as its exact source
/// bytes under its (dotted) key, an object member by member under "key.".
bool set_scenario(engine::FieldSetter& setter, std::string_view text, const std::string& key,
                  const JsonValue& v, std::string& error) {
  if (!v.is_object()) return setter.set(key, source_of(text, v), error);
  if (!engine::FieldSetter::is_group(key)) {
    error = "\"" + key + "\" is not a group of scenario fields";
    return false;
  }
  for (const auto& [member, value] : v.members()) {
    if (!set_scenario(setter, text, key + "." + member, *value, error)) return false;
  }
  return true;
}

/// A JSON number that did not overflow to infinity (the grammar already
/// refuses nan and trailing text).
bool finite(const JsonValue& v) { return v.is_number() && std::isfinite(v.as_number()); }

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

  // Service keys are read here; every other member is a scenario key.
  engine::FieldSetter setter{out.cfg};
  for (const auto& [key, value] : root->members()) {
    const JsonValue& v = *value;
    bool ok = true;
    if (key == "strategy" || key == "approach" || key == "name") {
      ok = v.is_string();
      (key == "name" ? out.name : out.approach_name) = v.as_string();
      if (!ok) error = "\"" + key + "\" must be a string";
    } else if (key == "strategy_options") {
      if (!v.is_object()) {
        error = "\"strategy_options\" must be an object";
        return false;
      }
      for (const auto& [opt_key, opt_value] : v.members()) {
        if (!finite(*opt_value)) {
          error = "\"strategy_options." + opt_key + "\" must be a finite number";
          return false;
        }
        out.options.set(opt_key, opt_value->as_number());
      }
    } else if (key == "priority") {
      ok = engine::parse_int(source_of(text, v), out.priority);
      if (!ok) error = "\"priority\" must be an integer";
    } else if (key == "events") {
      ok = v.is_bool();
      out.events = ok && v.as_bool();
      if (!ok) error = "\"events\" must be a boolean";
    } else if (key == "preempt_at") {
      ok = finite(v);
      if (ok) out.preempt_at = v.as_number();
      if (!ok) error = "\"preempt_at\" must be a finite number";
    } else {
      ok = set_scenario(setter, text, key, v, error);
    }
    if (!ok) return false;
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
  return setter.finish(error);
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
