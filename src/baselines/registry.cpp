#include "baselines/registry.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "baselines/dfl_dds.h"
#include "baselines/dp.h"
#include "baselines/dyn_thresh.h"
#include "baselines/proxskip.h"
#include "baselines/rsul.h"
#include "baselines/sim_gossip.h"
#include "core/lbchat.h"

namespace lbchat::baselines {

void StrategyOptions::set(std::string_view key, double value) {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const Kv& kv, std::string_view k) { return kv.key < k; });
  if (it != kv_.end() && it->key == key) {
    it->value = value;
  } else {
    kv_.insert(it, Kv{std::string{key}, value});
  }
}

bool StrategyOptions::contains(std::string_view key) const {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const Kv& kv, std::string_view k) { return kv.key < k; });
  return it != kv_.end() && it->key == key;
}

double StrategyOptions::get_or(std::string_view key, double fallback) const {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const Kv& kv, std::string_view k) { return kv.key < k; });
  return it != kv_.end() && it->key == key ? it->value : fallback;
}

void StrategyRegistry::register_strategy(std::string name, Factory factory,
                                         std::vector<OptionSpec> schema) {
  if (name.empty()) {
    throw std::logic_error{"register_strategy: empty strategy name"};
  }
  if (!factory) {
    throw std::logic_error{"register_strategy: null factory for '" + name + "'"};
  }
  for (const Entry& e : entries_) {
    if (e.name == name) {
      throw std::logic_error{"register_strategy: duplicate strategy name '" + name + "'"};
    }
  }
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name.empty()) {
      throw std::logic_error{"register_strategy: empty option name for '" + name + "'"};
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (schema[j].name == schema[i].name) {
        throw std::logic_error{"register_strategy: duplicate option '" + schema[i].name +
                               "' for '" + name + "'"};
      }
    }
    if (!(schema[i].min_value <= schema[i].default_value &&
          schema[i].default_value <= schema[i].max_value)) {
      throw std::logic_error{"register_strategy: default of '" + schema[i].name +
                             "' for '" + name + "' is outside its range"};
    }
  }
  entries_.push_back(Entry{std::move(name), std::move(factory), std::move(schema)});
}

const StrategyRegistry::Entry& StrategyRegistry::entry(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument{"strategy registry: unknown strategy '" + std::string{name} +
                              "'"};
}

std::unique_ptr<engine::Strategy> StrategyRegistry::make(
    std::string_view name, const StrategyOptions& options) const {
  (void)fingerprint_options(name, options);  // throws on a bad key or value
  return entry(name).factory(options);
}

std::vector<std::string> StrategyRegistry::list() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

bool StrategyRegistry::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

const std::vector<OptionSpec>& StrategyRegistry::option_schema(std::string_view name) const {
  return entry(name).schema;
}

std::vector<StrategyOptionKv> StrategyRegistry::fingerprint_options(
    std::string_view name, const StrategyOptions& options) const {
  const Entry& e = entry(name);
  std::vector<StrategyOptionKv> out;
  for (const auto& kv : options.entries()) {
    const auto it = std::find_if(e.schema.begin(), e.schema.end(),
                                 [&](const OptionSpec& s) { return s.name == kv.key; });
    if (it == e.schema.end()) {
      throw std::invalid_argument{"strategy '" + e.name + "' has no option '" + kv.key +
                                  "'"};
    }
    // Checked before any factory converts the double (an out-of-range
    // double-to-integer cast is undefined behaviour).
    if (!(it->min_value <= kv.value && kv.value <= it->max_value)) {
      char range[64];
      std::snprintf(range, sizeof range, "[%g, %g]", it->min_value, it->max_value);
      throw std::invalid_argument{"strategy '" + e.name + "' option '" + kv.key +
                                  "' must be in " + range};
    }
    // Defaults are dropped so an explicitly-default run keys identically to
    // one that never mentioned the option (common/fingerprint.h).
    if (kv.value != it->default_value) {
      out.push_back(StrategyOptionKv{kv.key, kv.value});
    }
  }
  return out;
}

namespace {

StrategyRegistry build_registry() {
  StrategyRegistry reg;
  reg.register_strategy(
      "ProxSkip",
      [](const StrategyOptions& o) -> std::unique_ptr<engine::Strategy> {
        ProxSkipOptions opts;
        opts.comm_probability = o.get_or("comm_probability", opts.comm_probability);
        opts.variate_scale = o.get_or("variate_scale", opts.variate_scale);
        return std::make_unique<ProxSkipStrategy>(opts);
      },
      {{"comm_probability", 0.2, "probability a round synchronizes", 0.0, 1.0},
       {"variate_scale", 0.0, "control-variate strength (0 = off)", 0.0, 1e6}});
  reg.register_strategy("RSU-L", [](const StrategyOptions&) -> std::unique_ptr<engine::Strategy> {
    return std::make_unique<RsuStrategy>();
  });
  reg.register_strategy(
      "DFL-DDS",
      [](const StrategyOptions& o) -> std::unique_ptr<engine::Strategy> {
        DflDdsOptions opts;
        opts.alpha_min = o.get_or("alpha_min", opts.alpha_min);
        opts.alpha_max = o.get_or("alpha_max", opts.alpha_max);
        opts.alpha_steps =
            static_cast<int>(o.get_or("alpha_steps", static_cast<double>(opts.alpha_steps)));
        return std::make_unique<DflDdsStrategy>(opts);
      },
      {{"alpha_min", 0.1, "mixing-weight search range lower bound", 0.0, 1.0},
       {"alpha_max", 0.6, "mixing-weight search range upper bound", 0.0, 1.0},
       {"alpha_steps", 11.0, "line-search resolution", 1.0, 1e4}});
  reg.register_strategy("DP", [](const StrategyOptions&) -> std::unique_ptr<engine::Strategy> {
    return std::make_unique<DpStrategy>();
  });
  reg.register_strategy(
      "LbChat",
      [](const StrategyOptions& o) -> std::unique_ptr<engine::Strategy> {
        core::LbChatOptions opts;
        opts.eval_cap =
            static_cast<std::size_t>(o.get_or("eval_cap", static_cast<double>(opts.eval_cap)));
        return std::make_unique<core::LbChatStrategy>(opts);
      },
      {{"eval_cap", 64.0, "in-chat coreset evaluation cap", 1.0, 1e6}});
  reg.register_strategy("SCO", [](const StrategyOptions&) -> std::unique_ptr<engine::Strategy> {
    core::LbChatOptions opts;
    opts.share_model = false;
    return std::make_unique<core::LbChatStrategy>(opts);
  });
  reg.register_strategy(
      "LbChat(equal-comp)",
      [](const StrategyOptions&) -> std::unique_ptr<engine::Strategy> {
        core::LbChatOptions opts;
        opts.adaptive_compression = false;
        return std::make_unique<core::LbChatStrategy>(opts);
      });
  reg.register_strategy(
      "LbChat(avg-agg)", [](const StrategyOptions&) -> std::unique_ptr<engine::Strategy> {
        core::LbChatOptions opts;
        opts.coreset_weighted_aggregation = false;
        return std::make_unique<core::LbChatStrategy>(opts);
      });
  reg.register_strategy(
      "DynThresh",
      [](const StrategyOptions& o) -> std::unique_ptr<engine::Strategy> {
        DynThreshOptions opts;
        opts.divergence_bound = o.get_or("divergence_bound", opts.divergence_bound);
        opts.pair_weight = o.get_or("pair_weight", opts.pair_weight);
        return std::make_unique<DynThreshStrategy>(opts);
      },
      {{"divergence_bound", 1.5e-2, "RMS divergence from reference that triggers a chat", 0.0,
        1e6},
       {"pair_weight", 0.5, "blend weight on the delivered peer model", 0.0, 1.0}});
  reg.register_strategy(
      "SimGossip",
      [](const StrategyOptions& o) -> std::unique_ptr<engine::Strategy> {
        SimGossipOptions opts;
        opts.temperature = o.get_or("temperature", opts.temperature);
        return std::make_unique<SimGossipStrategy>(opts);
      },
      {{"temperature", 0.1, "softness of the similarity-to-weight map", 0.0, 1e6}});
  return reg;
}

}  // namespace

StrategyRegistry& registry() {
  static StrategyRegistry reg = build_registry();
  return reg;
}

}  // namespace lbchat::baselines
