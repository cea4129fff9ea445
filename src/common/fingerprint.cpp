#include "common/fingerprint.h"

#include <cstring>
#include <type_traits>

#include "engine/scenario.h"

namespace lbchat {

namespace engine {

std::uint64_t config_fingerprint(const ScenarioConfig& cfg) {
  static const ScenarioConfig kDefaults{};
  ScenarioConfig c = cfg;
  if (!c.adversary.enabled()) c.adversary = kDefaults.adversary;
  if (!c.hetero.enabled()) c.hetero = kDefaults.hetero;
  if (!c.int8_eval.enabled) c.int8_eval = kDefaults.int8_eval;
  FnvHasher h;
  for_each_field(c, kDefaults, [&h](std::string_view name, const auto& v, const auto& d) {
    if (std::memcmp(&v, &d, sizeof v) == 0) return;
    h.add(name);
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool> || !std::is_unsigned_v<T>) {
      h.add(v);
    } else {
      h.add(static_cast<std::uint64_t>(v));
    }
  });
  return h.digest();
}

}  // namespace engine

std::uint64_t scenario_fingerprint(const engine::ScenarioConfig& cfg, std::string_view strategy,
                                   std::span<const StrategyOptionKv> options) {
  FnvHasher h;
  h.add(static_cast<std::uint64_t>(kScenarioFingerprintVersion));
  h.add(strategy);
  h.add(engine::config_fingerprint(cfg));
  h.add(cfg.duration_s);
  for (const StrategyOptionKv& kv : options) {
    h.add("strategy." + kv.key);
    h.add(kv.value);
  }
  return h.digest();
}

}  // namespace lbchat
