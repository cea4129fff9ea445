// Pins the shared fingerprint implementation (common/fingerprint.h) that
// both the bench result cache and the fleet service's ResultCache key on,
// and checks the field table (engine::for_each_field) both config digests
// derive from. The digests below are frozen: a change means every cached
// result on disk is silently mis-keyed, so treat a failure here as a
// cache-format break and bump kScenarioFingerprintVersion rather than
// updating the constants.

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/fingerprint.h"
#include "engine/scenario.h"
#include "nn/kernel_dispatch.h"
#include "svc/job.h"

namespace lbchat {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// A scenario with the adversary, hetero and int8 layers switched on, so
/// every row of the field table is live.
engine::ScenarioConfig live_scenario() {
  engine::ScenarioConfig c;
  c.adversary.byzantine_frac = 0.25;
  c.hetero.straggler_frac = 0.25;
  c.int8_eval.enabled = true;
  return c;
}

std::vector<std::string> row_names() {
  std::vector<std::string> names;
  const engine::ScenarioConfig cfg;
  engine::for_each_field(cfg, cfg, [&names](std::string_view name, const auto&, const auto&) {
    names.emplace_back(name);
  });
  return names;
}

/// `v` as the literal both the field setter and a job spec take.
template <class T>
std::string literal(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    EXPECT_EQ(ec, std::errc{});
    return std::string(buf, end);
  }
}

/// `"a.b.c":text` as the nested member `"a":{"b":{"c":text}}`.
std::string nested_member(const std::string& dotted, const std::string& text) {
  const std::size_t dot = dotted.find('.');
  if (dot == std::string::npos) return "\"" + dotted + "\":" + text;
  return "\"" + dotted.substr(0, dot) + "\":{" + nested_member(dotted.substr(dot + 1), text) + "}";
}

/// Move a field off its current value: flip a bool, add one to an integer
/// and a half to a floating-point number (validation_fraction 0.1 + 1 would
/// hold out every collected frame, a config validate() refuses).
template <class T>
void perturb(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_floating_point_v<T>) {
    v = v + T{0.5};
  } else {
    v = v + T{1};
  }
}

TEST(Fnv1aTest, PinnedVectors) {
  // Offset basis: the hash of the empty input.
  EXPECT_EQ(fnv1a({}), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a({}), kFnvOffsetBasis);
  // Published FNV-1a 64-bit test vector.
  EXPECT_EQ(fnv1a(bytes_of("foobar")), 0x85944171F73967E8ull);
  // Chaining splits arbitrarily.
  EXPECT_EQ(fnv1a(bytes_of("bar"), fnv1a(bytes_of("foo"))), fnv1a(bytes_of("foobar")));
}

TEST(FnvHasherTest, PinnedByteLayout) {
  // Freezes the typed add() byte layout (little-endian via ByteWriter,
  // strings length-prefixed). Recorded from the initial implementation.
  FnvHasher h;
  h.add(1.5);
  h.add(std::uint64_t{42});
  h.add(int{-7});
  h.add(true);
  h.add(std::string_view{"lbchat"});
  EXPECT_EQ(h.digest(), 0xBA1E97E39EF06B0Dull);
}

TEST(FnvHasherTest, EmptyDigestIsOffsetBasis) {
  EXPECT_EQ(FnvHasher{}.digest(), kFnvOffsetBasis);
}

TEST(ScenarioFingerprintTest, PinnedDefaults) {
  // Frozen digests of the default scenario under two strategies, as the
  // bench cache has keyed them since kScenarioFingerprintVersion = 4.
  const engine::ScenarioConfig cfg;
  EXPECT_EQ(scenario_fingerprint(cfg, "LbChat"), 0xE08D9913EB871434ull);
  EXPECT_EQ(scenario_fingerprint(cfg, "ProxSkip"), 0x2FAC96903FBDD360ull);
  engine::ScenarioConfig seeded = cfg;
  seeded.seed = 2;
  EXPECT_EQ(scenario_fingerprint(seeded, "LbChat"), 0x5CBC7FB51B85D319ull);
  // The default scenario has no non-default row, so its config digest is
  // the hash of nothing.
  EXPECT_EQ(engine::config_fingerprint(cfg), kFnvOffsetBasis);
}

TEST(ScenarioFingerprintTest, SensitiveToBehaviourShapingFields) {
  const engine::ScenarioConfig base;
  const std::uint64_t fp = scenario_fingerprint(base, "LbChat");

  engine::ScenarioConfig c = base;
  c.seed = 99;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.duration_s += 1.0;  // a cache entry answers one exact horizon
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.num_vehicles += 1;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  c = base;
  c.adversary.byzantine_frac = 0.25;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp);

  EXPECT_NE(scenario_fingerprint(base, "DP"), fp);
}

TEST(ScenarioFingerprintTest, InsensitiveToWallClockKnobs) {
  // num_threads and spatial_index change wall-clock behaviour only — runs
  // are bit-identical — so they must not split cache keys.
  const engine::ScenarioConfig base;
  engine::ScenarioConfig c = base;
  c.num_threads = 8;
  c.spatial_index = !c.spatial_index;
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fingerprint(base, "LbChat"));
}

TEST(ScenarioFingerprintTest, InertRobustnessLayerDoesNotSplitKeys) {
  // An all-off adversary/hetero config is bit-inert, so it hashes like its
  // defaults: toggling a knob of a layer that stays disabled
  // (enabled() == false) must not change the key.
  const engine::ScenarioConfig base;
  engine::ScenarioConfig c = base;
  c.adversary.poison_scale = 99.0;  // ignored while byzantine_frac == 0
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fingerprint(base, "LbChat"));
}

TEST(ScenarioFingerprintTest, EmptyOptionsKeepLegacyKeys) {
  // Options enter as name/value pairs only when present: an empty list
  // hashes like no options at all.
  const engine::ScenarioConfig cfg;
  EXPECT_EQ(scenario_fingerprint(cfg, "LbChat", {}), scenario_fingerprint(cfg, "LbChat"));
  EXPECT_EQ(scenario_fingerprint(cfg, "LbChat", {}), 0xE08D9913EB871434ull);
}

TEST(ScenarioFingerprintTest, NonDefaultOptionsSplitKeys) {
  const engine::ScenarioConfig cfg;
  const std::vector<StrategyOptionKv> opts{{"divergence_bound", 2e-4}};
  const std::uint64_t with = scenario_fingerprint(cfg, "DynThresh", opts);
  EXPECT_NE(with, scenario_fingerprint(cfg, "DynThresh"));

  // Key order and values both matter.
  const std::vector<StrategyOptionKv> opts2{{"divergence_bound", 3e-4}};
  EXPECT_NE(scenario_fingerprint(cfg, "DynThresh", opts2), with);
}

TEST(ScenarioFingerprintTest, DisabledInt8EvalKeepsLegacyKeys) {
  // Same contract as the robustness layer: a disabled Int8EvalConfig hashes
  // like its defaults, so its sub-knobs are dead while enabled == false.
  const engine::ScenarioConfig base;
  EXPECT_EQ(scenario_fingerprint(base, "LbChat"), 0xE08D9913EB871434ull);
  engine::ScenarioConfig c = base;
  c.int8_eval.value_scoring = false;  // ignored while !enabled
  c.int8_eval.eval_loss = false;
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fingerprint(base, "LbChat"));
}

TEST(ScenarioFingerprintTest, EnabledInt8EvalSplitsKeys) {
  const engine::ScenarioConfig base;
  engine::ScenarioConfig on = base;
  on.int8_eval.enabled = true;
  const std::uint64_t fp_on = scenario_fingerprint(on, "LbChat");
  EXPECT_NE(fp_on, scenario_fingerprint(base, "LbChat"));

  // The sub-knobs are live once enabled — each changes the measurement, so
  // each must change the key.
  engine::ScenarioConfig c = on;
  c.int8_eval.value_scoring = false;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp_on);
  c = on;
  c.int8_eval.eval_loss = false;
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), fp_on);
}

TEST(ScenarioFingerprintTest, KernelPathDoesNotEnterScenarioFingerprint) {
  // scenario_fingerprint hashes configuration, not runtime state; the active
  // GEMM backend enters cache keys only via nn::salt_with_kernel_path at the
  // call sites that cache run *results*.
  const engine::ScenarioConfig cfg;
  const std::uint64_t fp = scenario_fingerprint(cfg, "LbChat");
  for (const nn::KernelPath p :
       {nn::KernelPath::kScalar, nn::KernelPath::kAvx2, nn::KernelPath::kNeon}) {
    if (!nn::kernel_path_available(p)) continue;
    nn::ScopedKernelPath guard{p};
    EXPECT_EQ(scenario_fingerprint(cfg, "LbChat"), fp);
  }
}

TEST(ScenarioFingerprintTest, MetroSpecAndItsCountsOnlyTwinGetDistinctKeys) {
  // Both specs ask for 64 vehicles at metro density, but only
  // "num_vehicles" tiles the town and switches on snapshot mobility and
  // parallel sessions, so they run different scenarios and must not share a
  // cache entry.
  svc::JobSpec counts;
  svc::JobSpec metro;
  std::string err;
  ASSERT_TRUE(svc::parse_job_spec(R"({"vehicles":64,"background_cars":100,"pedestrians":240})",
                                  counts, err))
      << err;
  ASSERT_TRUE(svc::parse_job_spec(R"({"num_vehicles":64})", metro, err)) << err;
  EXPECT_NE(svc::job_fingerprint(counts), svc::job_fingerprint(metro));
  EXPECT_NE(engine::config_fingerprint(counts.cfg), engine::config_fingerprint(metro.cfg));
}

TEST(ScenarioFingerprintTest, CommittedSpecTextsKeepTheirJobFingerprints) {
  // The spec texts the repo itself sends — svc_test's tiny_spec(), the
  // README's byz25 job, CI's spec_a/spec_b and two jobs of perfbench's
  // service_mix template (seed 1) — with the job fingerprints recorded from
  // the per-key parser the field setter replaced. Scalar path, where the
  // kernel salt is the identity.
  const nn::ScopedKernelPath scalar{nn::KernelPath::kScalar};
  const std::pair<std::string_view, std::uint64_t> pins[] = {
      {R"({"approach":"LbChat","name":"tiny","vehicles":4,)"
       R"("duration":40,"collect_duration":20,"collect_fps":1,)"
       R"("eval_frames":2,"background_cars":4,"pedestrians":6,)"
       R"("eval_interval":10,"train_interval":2,"batch_size":4,)"
       R"("coreset":12,"time_budget":8,"pair_cooldown":5,)"
       R"("radio_range":400,"model_bytes":4194304,)"
       R"("byzantine_frac":0.25,"straggler_frac":0.25,)"
       R"("faults":{"burst_rate_per_min":2.0,"burst_extra_loss":1.0,)"
       R"("churn_rate_per_min":0.5,"corrupt_prob_near":0.05,)"
       R"("corrupt_prob_far":0.2,"chat_backoff":true},"seed":7})",
       0x0FC942275FE4D2DFull},
      {R"({"approach": "LbChat", "name": "byz25", "vehicles": 8,
 "duration": 900, "seed": 5, "byzantine_frac": 0.25,
 "faults": {"burst_rate_per_min": 2.0, "chat_backoff": true}})",
       0x16CC41585ACB6B61ull},
      {R"({"approach": "LbChat", "name": "smoke", "vehicles": 4,
 "duration": 60, "collect_duration": 20, "seed": 5,
 "byzantine_frac": 0.25, "straggler_frac": 0.25,
 "faults": {"burst_rate_per_min": 2.0, "churn_rate_per_min": 0.5,
            "corrupt_prob_near": 0.05, "chat_backoff": true}})",
       0x7F08FF45B67BDBF8ull},
      {R"({"approach": "LbChat", "name": "smoke", "vehicles": 4,
 "duration": 60, "collect_duration": 20, "seed": 6,
 "byzantine_frac": 0.25, "straggler_frac": 0.25,
 "faults": {"burst_rate_per_min": 2.0, "churn_rate_per_min": 0.5,
            "corrupt_prob_near": 0.05, "chat_backoff": true}})",
       0xCA7B4FCE145D42A1ull},
      {R"({"strategy":"LbChat","vehicles":8,"duration":360,"collect_duration":300,)"
       R"("seed":1000,"events":true,"preempt_at":0})",
       0xD1B1A81A4103A163ull},
      {R"({"strategy":"DP","vehicles":8,"duration":360,"collect_duration":300,)"
       R"("seed":1001,"events":false,"preempt_at":180})",
       0x1B5CE5D44AC4866Eull},
  };
  for (const auto& [text, pin] : pins) {
    svc::JobSpec spec;
    std::string err;
    ASSERT_TRUE(svc::parse_job_spec(text, spec, err)) << err;
    EXPECT_EQ(svc::job_fingerprint(spec), pin) << text;
  }
}

TEST(FieldTableTest, RowNamesAreUnique) {
  const std::vector<std::string> names = row_names();
  EXPECT_GT(names.size(), 90u);
  std::set<std::string> seen;
  for (const std::string& name : names) EXPECT_TRUE(seen.insert(name).second) << name;
}

TEST(FieldTableTest, EveryRowSplitsBothFingerprints) {
  const engine::ScenarioConfig base = live_scenario();
  const std::uint64_t config_fp = engine::config_fingerprint(base);
  const std::uint64_t scenario_fp = scenario_fingerprint(base, "LbChat");
  const std::vector<std::string> names = row_names();
  for (std::size_t row = 0; row < names.size(); ++row) {
    engine::ScenarioConfig c = base;
    std::size_t i = 0;
    engine::for_each_field(c, base, [&](std::string_view, auto& v, const auto&) {
      if (i++ == row) perturb(v);
    });
    EXPECT_NE(engine::config_fingerprint(c), config_fp) << names[row];
    EXPECT_NE(scenario_fingerprint(c, "LbChat"), scenario_fp) << names[row];
  }
}

TEST(FieldTableTest, EveryRowIsSettableByNameDirectlyAndThroughASpec) {
  // For each row, the perturbed value of EveryRowSplitsBothFingerprints set
  // by name through the field setter (the CLI route), and through a job spec
  // as a flat dotted key and as a nested object, must give the config the
  // direct assignment gives.
  const engine::ScenarioConfig base = live_scenario();
  // The spec members that make a default config live_scenario().
  const std::vector<std::pair<std::string, std::string>> live_members{
      {"adversary.byzantine_frac", "0.25"},
      {"hetero.straggler_frac", "0.25"},
      {"int8_eval.enabled", "true"}};
  const std::vector<std::string> names = row_names();
  for (std::size_t row = 0; row < names.size(); ++row) {
    engine::ScenarioConfig direct = base;
    std::string text;
    std::size_t i = 0;
    engine::for_each_field(direct, base, [&](std::string_view, auto& v, const auto&) {
      if (i++ != row) return;
      perturb(v);
      text = literal(v);
    });
    const std::uint64_t want = engine::config_fingerprint(direct);
    // "num_vehicles" is the metro-scaling key; the raw count row is set as
    // "vehicles".
    const std::string key = names[row] == "num_vehicles" ? "vehicles" : names[row];

    engine::ScenarioConfig set = base;
    engine::FieldSetter setter{set};
    std::string err;
    ASSERT_TRUE(setter.set(key, text, err)) << err;
    EXPECT_EQ(engine::config_fingerprint(set), want) << key;

    std::string members;
    for (const auto& [member, value] : live_members) {
      if (member != names[row]) members += "\"" + member + "\":" + value + ",";
    }
    for (const std::string& spec_text : {"{" + members + "\"" + key + "\":" + text + "}",
                                         "{" + members + nested_member(key, text) + "}"}) {
      svc::JobSpec spec;
      ASSERT_TRUE(svc::parse_job_spec(spec_text, spec, err)) << spec_text << ": " << err;
      EXPECT_EQ(engine::config_fingerprint(spec.cfg), want) << spec_text;
    }
  }
}

TEST(FieldTableTest, WallClockKnobsSplitNeitherAndDurationOnlyTheScenarioKey) {
  const engine::ScenarioConfig base = live_scenario();
  const std::uint64_t config_fp = engine::config_fingerprint(base);
  const std::uint64_t scenario_fp = scenario_fingerprint(base, "LbChat");

  engine::ScenarioConfig c = base;
  perturb(c.num_threads);
  perturb(c.spatial_index);
  EXPECT_EQ(engine::config_fingerprint(c), config_fp);
  EXPECT_EQ(scenario_fingerprint(c, "LbChat"), scenario_fp);

  c = base;
  perturb(c.duration_s);
  EXPECT_EQ(engine::config_fingerprint(c), config_fp);
  EXPECT_NE(scenario_fingerprint(c, "LbChat"), scenario_fp);
}

}  // namespace
}  // namespace lbchat
