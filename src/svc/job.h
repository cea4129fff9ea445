// Job specs for the fleet service: a JSON object naming a strategy and a
// scenario configuration.
//
//   {"strategy":"DynThresh","vehicles":8,"duration":900,"seed":3,
//    "strategy_options":{"divergence_bound":2e-4},
//    "priority":1,"events":true,
//    "faults":{"burst_rate_per_min":0.5,"chat_backoff":true}}
//
// Service keys: "strategy" (or its legacy alias "approach"),
// "strategy_options", "name", "priority", "events", "preempt_at". Every
// other member is a scenario key for engine::FieldSetter (engine/scenario.h),
// as the lbchat_sim_cli flags are: a dotted field-table row, a short alias,
// or an object of keys under a group's name ("faults":{...}), each leaf
// passed as its exact source bytes. Unknown keys, wrong types, out-of-range
// values, a field set twice (an alias and its row), unknown strategies, and
// option keys or values outside the strategy's registry schema are hard
// parse errors (a typo'd knob must not silently run the default).
// parse_job_spec keeps the original spec text so a persisted job
// round-trips byte-identically through the state directory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "baselines/registry.h"
#include "engine/scenario.h"

namespace lbchat::svc {

struct JobSpec {
  engine::ScenarioConfig cfg{};
  std::string approach_name{"LbChat"};
  /// Per-strategy tunables, validated against the registry schema at parse.
  baselines::StrategyOptions options{};
  /// Optional human label echoed in status/manifest output.
  std::string name;
  /// Higher runs earlier; ties broken by submission order.
  int priority = 0;
  /// Record the run's sim-time events and include events.jsonl in the
  /// payload. The log belongs to the job's own run, so events jobs run
  /// concurrently with every other job.
  bool events = false;
  /// Test hook: self-preempt (checkpoint + requeue) once when sim time
  /// reaches this value. <= 0 disables. Excluded from the job fingerprint —
  /// by the determinism contract it cannot change the result bytes.
  double preempt_at = 0.0;
  /// The spec text as submitted (whitespace and all), for persistence.
  std::string source;
};

/// Parse a job-spec JSON object. Returns false and fills `error` on malformed
/// JSON, unknown keys, wrong types, or out-of-range values; `out` is
/// unspecified then. Never throws.
[[nodiscard]] bool parse_job_spec(std::string_view text, JobSpec& out, std::string& error);

/// Cache identity of a job: the shared scenario fingerprint
/// (common/fingerprint.h — what the bench cache keys on) extended with the
/// payload-shaping knobs (events). Jobs with equal fingerprints produce
/// byte-identical payloads, so the result cache may serve one for the other.
[[nodiscard]] std::uint64_t job_fingerprint(const JobSpec& spec);

}  // namespace lbchat::svc
