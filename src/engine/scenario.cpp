#include "engine/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>
#include <unordered_map>

namespace lbchat::engine {
namespace {

/// All of `text` as one std::from_chars literal of T into `out`; `out` is
/// untouched if there is more text or none, or the value is out of range.
template <class T>
bool parse_exact(std::string_view text, T& out) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) return false;
  out = v;
  return true;
}

/// Parses `text` as one literal of T (see FieldSetter) into the T at
/// `field`: nullptr, or what `text` should have been (field untouched).
template <class T>
const char* assign(void* field, std::string_view text) {
  T& out = *static_cast<T*>(field);
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "true" && text != "false") return "true or false";
    out = text == "true";
  } else if constexpr (std::is_integral_v<T>) {
    // Integer fields count or seed things: a sign is never valid.
    if (text.starts_with('-') || !parse_exact(text, out)) return "a non-negative integer in range";
  } else if (!parse_finite(text, out)) {
    return "a finite number";
  }
  return nullptr;
}

enum class Derived : std::uint8_t { kNone, kMetroScale, kStragglerProfile };

/// A settable key: its leaf's byte offset in ScenarioConfig, converter, and
/// any derived setting it applies.
struct Slot {
  std::size_t offset = 0;
  const char* (*assign)(void* field, std::string_view text) = nullptr;
  Derived derived = Derived::kNone;
};

// Short names that existing specs and scripts use, each naming a leaf.
// "num_vehicles" shadows its row: on both surfaces it means metro scaling.
constexpr struct {
  std::string_view key, leaf;
  Derived derived = Derived::kNone;
} kAliases[] = {
    {"vehicles", "num_vehicles"},
    {"duration", "duration_s"},
    {"collect_duration", "collect_duration_s"},
    {"coreset", "coreset_size"},
    {"threads", "num_threads"},
    {"eval_interval", "eval_interval_s"},
    {"train_interval", "train_interval_s"},
    {"time_budget", "time_budget_s"},
    {"pair_cooldown", "pair_cooldown_s"},
    {"session_timeout", "session_timeout_s"},
    {"byzantine_frac", "adversary.byzantine_frac"},
    {"background_cars", "world.num_background_cars"},
    {"pedestrians", "world.num_pedestrians"},
    {"eval_frames", "eval_frames_per_vehicle"},
    {"radio_range", "radio.max_range_m"},
    {"model_bytes", "wire.model_bytes"},
    {"coreset_bytes_per_sample", "wire.coreset_bytes_per_sample"},
    {"num_vehicles", "num_vehicles", Derived::kMetroScale},
    {"straggler_frac", "hetero.straggler_frac", Derived::kStragglerProfile},
};

using Index = std::unordered_map<std::string_view, Slot>;

/// Every settable key, built once from the field table. Addressing a leaf by
/// offset makes a set one lookup and one conversion, not a walk of the
/// table: the service parses its whole persisted backlog at start-up. The
/// dotted prefixes of the rows ("world", "world.town") are in it too, as
/// groups: slots without a converter.
const Index& index() {
  static const Index keys = [] {
    const ScenarioConfig base;
    Index leaves;
    const auto add = [&](std::string_view name, const auto& field, const auto&...) {
      leaves[name] = {static_cast<std::size_t>(reinterpret_cast<const char*>(&field) -
                                               reinterpret_cast<const char*>(&base)),
                      &assign<std::remove_cvref_t<decltype(field)>>};
    };
    for_each_field(base, base, add);
    // Settable, though not rows (see for_each_field).
    add("duration_s", base.duration_s);
    add("num_threads", base.num_threads);
    Index all = leaves;
    for (const auto& a : kAliases) {
      all[a.key] = leaves.at(a.leaf);
      all[a.key].derived = a.derived;
    }
    for (const auto& [name, slot] : leaves) {
      for (std::size_t dot = name.find('.'); dot != std::string_view::npos;
           dot = name.find('.', dot + 1)) {
        all.try_emplace(name.substr(0, dot));
      }
    }
    return all;
  }();
  return keys;
}

}  // namespace

bool parse_finite(std::string_view text, double& out) {
  double v = 0.0;
  if (!parse_exact(text, v) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_int(std::string_view text, int& out) { return parse_exact(text, out); }

bool FieldSetter::is_group(std::string_view prefix) {
  const auto it = index().find(prefix);
  return it != index().end() && it->second.assign == nullptr;
}

bool FieldSetter::set(std::string_view key, std::string_view text, std::string& error) {
  const auto it = index().find(key);
  if (it == index().end() || it->second.assign == nullptr) {
    error = "unknown key \"" + std::string{key} + "\"";
    return false;
  }
  const Slot& slot = it->second;
  char* const base = reinterpret_cast<char*>(&cfg_);
  // The fields this key writes, by byte offset (the metro count one past
  // the config). Each may be set once, so no order of a spec's members (or
  // of a CLI's flags) decides what runs.
  decltype(written_) writes;
  writes.set(slot.derived == Derived::kMetroScale ? sizeof(ScenarioConfig) : slot.offset);
  if (slot.derived == Derived::kStragglerProfile) {
    writes.set(reinterpret_cast<char*>(&cfg_.hetero.slow_radio_frac) - base);
    writes.set(reinterpret_cast<char*>(&cfg_.hetero.dataset_skew) - base);
  }
  if ((written_ & writes).any()) {
    error = "\"" + std::string{key} + "\" sets a field that an earlier key already set";
    return false;
  }
  int metro = 0;
  const char* expected = slot.derived == Derived::kMetroScale
                             ? assign<int>(&metro, text)
                             : slot.assign(base + slot.offset, text);
  if (expected != nullptr) {
    error = "\"" + std::string{key} + "\" must be " + expected + ", got '" +
            std::string{text} + "'";
    return false;
  }
  written_ |= writes;
  if (slot.derived == Derived::kMetroScale) metro_vehicles_ = metro;
  if (slot.derived == Derived::kStragglerProfile) {
    // One knob: as many slow radios (drawn independently) as stragglers,
    // and dataset sizes skewed by 0.5.
    cfg_.hetero.slow_radio_frac = cfg_.hetero.straggler_frac;
    cfg_.hetero.dataset_skew = cfg_.hetero.straggler_frac > 0.0 ? 0.5 : 0.0;
  }
  return true;
}

bool FieldSetter::finish(std::string& error) {
  // Bounded before the metro scale multiplies the background traffic by
  // their ratio; validate() then checks the scaled counts.
  if (cfg_.num_vehicles > kMaxVehicles || metro_vehicles_.value_or(0) > kMaxVehicles) {
    error = "vehicles and num_vehicles must be at most " + std::to_string(kMaxVehicles);
    return false;
  }
  if (metro_vehicles_.has_value()) {
    try {
      apply_metro_scale(cfg_, *metro_vehicles_);
    } catch (const std::invalid_argument& e) {
      error = e.what();
      return false;
    }
  }
  return validate(cfg_, error);
}

std::size_t CollectSplit::training_frames() const {
  // Every valid_every-th index is a validation candidate; add the eval
  // frames that are not. O(eval_n): the service validates each spec of its
  // persisted backlog at start-up.
  const auto n = static_cast<std::size_t>(std::max(frames, 0));
  std::size_t held_out = valid_every > 0 ? n / valid_every : 0;
  for (std::size_t k = 0; k < eval_n; ++k) {
    if (!validation(k * eval_stride)) ++held_out;
  }
  return n - held_out;
}

CollectSplit collect_split(const ScenarioConfig& cfg) {
  CollectSplit split;
  split.frames = static_cast<int>(cfg.collect_duration_s * cfg.collect_fps);
  const auto n = static_cast<std::size_t>(std::max(split.frames, 0));
  split.eval_n = std::min<std::size_t>(static_cast<std::size_t>(cfg.eval_frames_per_vehicle), n);
  split.eval_stride = std::max<std::size_t>(n / std::max<std::size_t>(split.eval_n, 1), 1);
  split.valid_every = static_cast<std::size_t>(
      cfg.validation_fraction > 0.0 ? std::llround(1.0 / cfg.validation_fraction) : 0);
  return split;
}

bool validate(const ScenarioConfig& cfg, std::string& error) {
  // The ceilings keep a spec from hanging a worker or asking it for absurd
  // memory or billions of threads.
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  const auto frame_fits = [&](const data::BevSpec& bev) {
    return bev.channels >= 1 && bev.height >= 1 && bev.width >= 1 && positive(bev.cell_m) &&
           std::int64_t{bev.channels} * bev.height * bev.width <= 65536;
  };
  const nn::PolicyConfig& p = cfg.policy;
  const std::pair<bool, const char*> checks[] = {
      {cfg.num_vehicles >= 2 && cfg.num_vehicles <= kMaxVehicles,
       "num_vehicles must be in [2, 16384]"},
      {cfg.world.num_background_cars <= kMaxWorldAgents &&
           cfg.world.num_pedestrians <= kMaxWorldAgents,
       "world.num_background_cars and world.num_pedestrians must be at most 1048576"},
      {positive(cfg.duration_s), "duration_s must be finite and > 0"},
      // A zero, tiny or negative tick would never reach the horizon.
      {positive(cfg.tick_s) && cfg.duration_s / cfg.tick_s <= 1e8,
       "tick_s must be > 0 and split duration_s into at most 1e8 ticks"},
      {positive(cfg.collect_duration_s), "collect_duration_s must be finite and > 0"},
      {positive(cfg.collect_fps) && cfg.collect_duration_s * cfg.collect_fps <= 1e6,
       "collect_fps must be > 0, with at most 1e6 frames collected per vehicle"},
      {cfg.coreset_size >= 1, "coreset_size must be >= 1"},
      {positive(cfg.radio.bandwidth_bps), "radio.bandwidth_bps must be finite and > 0"},
      {cfg.radio.packet_bytes >= 1, "radio.packet_bytes must be >= 1"},
      {cfg.wire.model_bytes >= 1, "wire.model_bytes must be >= 1"},
      {cfg.wire.coreset_bytes_per_sample >= 1, "wire.coreset_bytes_per_sample must be >= 1"},
      {frame_fits(cfg.world.bev) && frame_fits(p.bev),
       "world.bev and policy.bev need positive sizes and at most 65536 cells"},
      {std::min({p.conv1_channels, p.conv2_channels, p.fc_dim, p.branch_hidden}) >= 1 &&
           std::max({p.conv1_channels, p.conv2_channels, p.fc_dim, p.branch_hidden}) <=
               1024,
       "policy layer widths must be in [1, 1024]"},
      {cfg.num_threads >= 0 && cfg.num_threads <= 1024, "num_threads must be in [0, 1024]"},
  };
  const auto* failed = std::find_if(std::begin(checks), std::end(checks),
                                    [](const auto& check) { return !check.first; });
  if (failed != std::end(checks)) {
    error = failed->second;
    return false;
  }
  // With the frame count bounded, the collect phase's own split must leave
  // every vehicle something to train on.
  if (collect_split(cfg).training_frames() == 0) {
    error = "the collect split (collect_duration_s x collect_fps frames, less "
            "eval_frames_per_vehicle and validation_fraction) leaves no training frame";
    return false;
  }
  return true;
}

}  // namespace lbchat::engine
