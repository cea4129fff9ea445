// Scenario configuration for a collaborative-training run (paper §IV-A).
#pragma once

#include <algorithm>
#include <bitset>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "coreset/coreset.h"
#include "engine/adversary.h"
#include "engine/faults.h"
#include "net/wireless.h"
#include "nn/policy.h"
#include "sim/world.h"

namespace lbchat::engine {

/// Opt-in int8 forward-only inference for the evaluation-side model calls
/// (DESIGN.md §15): coreset value scoring inside LbChat handshakes and the
/// engine's mean_eval_loss sweeps. Off by default and bit-inert when off —
/// default-configured runs hash, checkpoint, and evaluate exactly as before.
/// When enabled, loss trajectories change (quantized eval numerics), so the
/// knob's rows (for_each_field below) enter both config fingerprints.
struct Int8EvalConfig {
  bool enabled = false;
  /// Quantize the models evaluated during chat value scoring (Eq. (7)/(8)
  /// losses and the phi-mapping samples).
  bool value_scoring = true;
  /// Quantize the per-vehicle models in mean_eval_loss / eval_and_record.
  bool eval_loss = true;

  [[nodiscard]] bool scores_values() const { return enabled && value_scoring; }
  [[nodiscard]] bool scores_eval_loss() const { return enabled && eval_loss; }

  friend constexpr bool operator==(const Int8EvalConfig&, const Int8EvalConfig&) = default;
};

struct ScenarioConfig {
  std::uint64_t seed = 1;
  int num_vehicles = 16;  ///< paper: 32 expert autopilots (scaled down)
  /// Worker lanes for the per-vehicle training/eval loops: 0 = hardware
  /// concurrency, 1 = sequential. Runs are bit-identical for any value
  /// (every vehicle owns its Rng/ParamStore), so this is a pure wall-clock
  /// knob and has no row in for_each_field.
  int num_threads = 1;

  sim::WorldConfig world{};
  net::RadioConfig radio{};
  net::WireSizeModel wire{};
  /// Case (b) "with wireless loss" vs case (a) without (Fig. 2a/2b,
  /// Tables II/III).
  bool wireless_loss = true;

  // --- Local data collection phase (paper: 1 h at 2 fps; scaled down) ---
  double collect_duration_s = 600.0;
  double collect_fps = 2.0;
  /// Fraction of each vehicle's collected frames held out as its local
  /// validation set (used by the DP baseline's loss-based merging).
  double validation_fraction = 0.1;
  /// Frames per vehicle contributed to the shared held-out evaluation set
  /// that the loss-vs-time curves are measured on.
  int eval_frames_per_vehicle = 12;

  // --- Training phase ---
  double duration_s = 2400.0;
  double tick_s = 0.5;
  double train_interval_s = 4.0;  ///< one local SGD batch per vehicle per interval
  int batch_size = 32;            ///< paper: 64 at full scale
  double learning_rate = 1e-3;    ///< Adam step size (paper: 1e-4 at full scale)
  double eval_interval_s = 120.0;

  // --- Protocol parameters ---
  double time_budget_s = 15.0;  ///< T_B of Eq. (7)
  std::size_t coreset_size = 150;
  /// Minimum time between two chats of the same vehicle pair, so a fleet
  /// does not spend the whole contact re-exchanging with one neighbour.
  double pair_cooldown_s = 45.0;
  /// Penalty coefficient lambda_c of Eq. (7) (units: normalized-loss/second).
  double lambda_c = 0.0005;
  /// Give-up timer: a session older than this is abandoned (covers stalled
  /// transfers on a nearly-dead link; the paper's deadlock note, §III-A).
  double session_timeout_s = 60.0;
  /// How often a vehicle rebuilds its coreset from scratch with Algorithm 1
  /// (between rebuilds, the merge-reduce fast path keeps it fresh).
  double coreset_rebuild_interval_s = 240.0;

  // --- Fleet scaling (DESIGN.md §11) ---
  /// Answer strategy neighbor queries from a uniform spatial grid rebuilt
  /// once per tick instead of an O(n^2) all-pairs scan. The grid is an exact
  /// candidate filter (same set, same ascending-id order, same inclusive
  /// boundary as the scan), so runs are bit-identical either way: a pure
  /// wall-clock knob with no row in for_each_field, like num_threads.
  bool spatial_index = true;
  /// Per-session RNG streams + parallel transfer ticks with an ordered
  /// sequential commit. Changes which RNG stream packet noise draws from
  /// (one stream per session instead of the shared engine stream), so it is
  /// OFF by default to keep historical runs bit-identical; with it on, runs
  /// are bit-identical across any num_threads.
  bool parallel_sessions = false;

  nn::PolicyConfig policy{};
  coreset::PenaltyConfig penalty{};

  /// Fault model (interference bursts, vehicle churn, payload corruption,
  /// chat backoff). All off by default: a default-constructed FaultConfig
  /// leaves every run bit-identical to an engine without fault injection.
  FaultConfig faults{};

  /// Byzantine-peer model (engine/adversary.h): a seeded subset of vehicles
  /// mutates its outgoing payloads — sign-flipped models, inflated coreset
  /// weights, lying assist info — all CRC-valid on the wire. Off by default
  /// (bit-inert, and absent from both config fingerprints when off).
  AdversaryConfig adversary{};
  /// Fleet heterogeneity (engine/adversary.h): compute stragglers, slow
  /// radios, skewed dataset sizes. Off by default with the same bit-inertness
  /// contract as the adversary layer.
  HeteroConfig hetero{};

  /// Int8 evaluation path (above). Off by default; bit-inert when off.
  Int8EvalConfig int8_eval{};
};

/// The scenario field table: calls `visit(name, field, default_field)` once
/// per behaviour-shaping leaf of `cfg`, in a fixed order, with `name` the
/// field's dotted path ("world.town.extent_m") and `default_field` the same
/// leaf of `defaults`. Both config fingerprints (common/fingerprint.h) are
/// derived from it, hashing only the rows whose bits differ from the default,
/// so a field added here later moves no existing digest. Not rows:
/// num_threads and spatial_index (wall-clock only) and duration_s (the
/// horizon, which only the scenario fingerprint hashes). `Config` may be
/// non-const, so a visitor can also edit the fields.
template <class Config, class Visit>
  requires std::same_as<std::remove_const_t<Config>, ScenarioConfig>
void for_each_field(Config& cfg, const ScenarioConfig& defaults, Visit&& visit) {
#define LBCHAT_FIELD(path) visit(std::string_view{#path}, cfg.path, defaults.path)
  LBCHAT_FIELD(seed);
  LBCHAT_FIELD(num_vehicles);
  LBCHAT_FIELD(world.town.extent_m);
  LBCHAT_FIELD(world.town.urban_grid);
  LBCHAT_FIELD(world.town.urban_spacing_m);
  LBCHAT_FIELD(world.town.urban_origin_m);
  LBCHAT_FIELD(world.town.rural_margin_m);
  LBCHAT_FIELD(world.town.rural_ring_nodes);
  LBCHAT_FIELD(world.town.edge_drop_prob);
  LBCHAT_FIELD(world.town.road_half_width_m);
  LBCHAT_FIELD(world.town.raster_cell_m);
  LBCHAT_FIELD(world.bev.channels);
  LBCHAT_FIELD(world.bev.height);
  LBCHAT_FIELD(world.bev.width);
  LBCHAT_FIELD(world.bev.cell_m);
  LBCHAT_FIELD(world.num_background_cars);
  LBCHAT_FIELD(world.num_pedestrians);
  LBCHAT_FIELD(world.car_radius_m);
  LBCHAT_FIELD(world.ped_radius_m);
  LBCHAT_FIELD(world.car_max_speed);
  LBCHAT_FIELD(world.turn_speed);
  LBCHAT_FIELD(world.accel);
  LBCHAT_FIELD(world.brake_decel);
  LBCHAT_FIELD(world.min_gap_m);
  LBCHAT_FIELD(world.obstacle_lookahead_m);
  LBCHAT_FIELD(world.corridor_halfwidth_m);
  LBCHAT_FIELD(world.lane_offset_m);
  LBCHAT_FIELD(world.deadlock_patience_s);
  LBCHAT_FIELD(world.deadlock_ignore_s);
  LBCHAT_FIELD(world.bend_lookahead_m);
  LBCHAT_FIELD(world.bend_threshold_rad);
  LBCHAT_FIELD(world.perturb_prob);
  LBCHAT_FIELD(world.perturb_lateral_max_m);
  LBCHAT_FIELD(world.perturb_heading_max_rad);
  LBCHAT_FIELD(world.ped_speed);
  LBCHAT_FIELD(world.ped_target_radius_m);
  LBCHAT_FIELD(world.waypoint_dt_s);
  LBCHAT_FIELD(world.urban_dweller_fraction);
  LBCHAT_FIELD(world.snapshot_mobility);
  LBCHAT_FIELD(radio.bandwidth_bps);
  LBCHAT_FIELD(radio.packet_bytes);
  LBCHAT_FIELD(radio.max_retransmissions);
  LBCHAT_FIELD(radio.max_range_m);
  LBCHAT_FIELD(wire.model_bytes);
  LBCHAT_FIELD(wire.coreset_bytes_per_sample);
  LBCHAT_FIELD(wire.assist_info_bytes);
  LBCHAT_FIELD(wireless_loss);
  LBCHAT_FIELD(collect_duration_s);
  LBCHAT_FIELD(collect_fps);
  LBCHAT_FIELD(validation_fraction);
  LBCHAT_FIELD(eval_frames_per_vehicle);
  LBCHAT_FIELD(tick_s);
  LBCHAT_FIELD(train_interval_s);
  LBCHAT_FIELD(batch_size);
  LBCHAT_FIELD(learning_rate);
  LBCHAT_FIELD(eval_interval_s);
  LBCHAT_FIELD(time_budget_s);
  LBCHAT_FIELD(coreset_size);
  LBCHAT_FIELD(pair_cooldown_s);
  LBCHAT_FIELD(lambda_c);
  LBCHAT_FIELD(session_timeout_s);
  LBCHAT_FIELD(coreset_rebuild_interval_s);
  LBCHAT_FIELD(parallel_sessions);
  LBCHAT_FIELD(policy.bev.channels);
  LBCHAT_FIELD(policy.bev.height);
  LBCHAT_FIELD(policy.bev.width);
  LBCHAT_FIELD(policy.bev.cell_m);
  LBCHAT_FIELD(policy.conv1_channels);
  LBCHAT_FIELD(policy.conv2_channels);
  LBCHAT_FIELD(policy.fc_dim);
  LBCHAT_FIELD(policy.branch_hidden);
  LBCHAT_FIELD(penalty.lambda1);
  LBCHAT_FIELD(penalty.lambda2);
  LBCHAT_FIELD(faults.burst_rate_per_min);
  LBCHAT_FIELD(faults.burst_duration_s);
  LBCHAT_FIELD(faults.burst_radius_m);
  LBCHAT_FIELD(faults.burst_extra_loss);
  LBCHAT_FIELD(faults.churn_rate_per_min);
  LBCHAT_FIELD(faults.churn_offline_mean_s);
  LBCHAT_FIELD(faults.corrupt_prob_near);
  LBCHAT_FIELD(faults.corrupt_prob_far);
  LBCHAT_FIELD(faults.chat_backoff);
  LBCHAT_FIELD(faults.backoff_base);
  LBCHAT_FIELD(faults.backoff_max_exp);
  LBCHAT_FIELD(adversary.byzantine_frac);
  LBCHAT_FIELD(adversary.poison_models);
  LBCHAT_FIELD(adversary.poison_scale);
  LBCHAT_FIELD(adversary.poison_noise);
  LBCHAT_FIELD(adversary.inflate_coreset_weights);
  LBCHAT_FIELD(adversary.coreset_inflation);
  LBCHAT_FIELD(adversary.lie_assist);
  LBCHAT_FIELD(adversary.assist_bandwidth_lie);
  LBCHAT_FIELD(hetero.straggler_frac);
  LBCHAT_FIELD(hetero.straggler_rate);
  LBCHAT_FIELD(hetero.slow_radio_frac);
  LBCHAT_FIELD(hetero.slow_radio_scale);
  LBCHAT_FIELD(hetero.dataset_skew);
  LBCHAT_FIELD(hetero.dataset_keep_min);
  LBCHAT_FIELD(int8_eval.enabled);
  LBCHAT_FIELD(int8_eval.value_scoring);
  LBCHAT_FIELD(int8_eval.eval_loss);
#undef LBCHAT_FIELD
}

/// One-line metro fleet: grow the scenario to `num_vehicles` while holding
/// density constant. The town is tiled by sqrt(count ratio) — map extent,
/// urban grid and rural ring all scale with the tile factor, background
/// traffic with the count ratio — and the scaling machinery (spatial index,
/// snapshot-parallel mobility, parallel session ticks) is switched on.
/// Exposed to job specs and the CLI as the derived key "num_vehicles".
/// Throws std::invalid_argument when the scaled background cars or
/// pedestrians would not fit an int.
inline void apply_metro_scale(ScenarioConfig& cfg, int num_vehicles) {
  const double f =
      static_cast<double>(std::max(num_vehicles, 1)) / std::max(cfg.num_vehicles, 1);
  const double cars = std::round(cfg.world.num_background_cars * f);
  const double pedestrians = std::round(cfg.world.num_pedestrians * f);
  constexpr double kIntMax = std::numeric_limits<int>::max();
  if (std::fabs(cars) > kIntMax || std::fabs(pedestrians) > kIntMax) {
    throw std::invalid_argument{"apply_metro_scale: scaled background traffic overflows int"};
  }
  const double tile = std::sqrt(f);
  sim::TownConfig& town = cfg.world.town;
  town.extent_m *= tile;
  town.urban_grid = std::max(2, static_cast<int>(std::lround(town.urban_grid * tile)));
  town.rural_ring_nodes =
      std::max(6, static_cast<int>(std::lround(town.rural_ring_nodes * tile)));
  cfg.world.num_background_cars = static_cast<int>(cars);
  cfg.world.num_pedestrians = static_cast<int>(pedestrians);
  cfg.num_vehicles = std::max(num_vehicles, 1);
  cfg.spatial_index = true;
  cfg.parallel_sessions = true;
  cfg.world.snapshot_mobility = true;
}

/// Strict conversions shared by the config surfaces: all of `text` must be
/// one std::from_chars literal — a finite decimal number, or a (signed)
/// integer in range; `out` is untouched if not.
[[nodiscard]] bool parse_finite(std::string_view text, double& out);
[[nodiscard]] bool parse_int(std::string_view text, int& out);

/// Sets ScenarioConfig fields by name from text: the one resolver behind
/// the job-spec keys (svc/job.h) and the lbchat_sim_cli flags. A key is a
/// dotted for_each_field row ("faults.burst_rate_per_min"), duration_s,
/// num_threads, or a short alias ("vehicles", "duration", "coreset", ...).
/// Two aliases are derived: "num_vehicles" is apply_metro_scale, deferred to
/// finish() so it tiles up from "vehicles" in any order (it shadows the raw
/// count row, set as "vehicles"), and "straggler_frac" makes that fraction
/// of the fleet compute stragglers and (independently) slow radios and skews
/// dataset sizes. The text must be one literal of the field's type:
/// true/false, a non-negative decimal integer in range, or a finite number.
/// Each field may be set once: an alias and its row, or "straggler_frac"
/// and a hetero field it sets, in one spec are an error.
class FieldSetter {
 public:
  explicit FieldSetter(ScenarioConfig& cfg) : cfg_{cfg} {}

  /// False with `error` filled (config untouched) on a bad key or value, or
  /// a field already set.
  [[nodiscard]] bool set(std::string_view key, std::string_view text, std::string& error);
  /// Apply a deferred metro scale, then validate().
  [[nodiscard]] bool finish(std::string& error);
  /// Whether `prefix` is a dotted group of rows ("faults", "world.town"),
  /// whose members a nested spec object may set.
  [[nodiscard]] static bool is_group(std::string_view prefix);

 private:
  ScenarioConfig& cfg_;
  std::optional<int> metro_vehicles_;
  std::bitset<sizeof(ScenarioConfig) + 1> written_;  ///< by byte offset
};

/// How the engine's collect phase splits the frames each vehicle collects:
/// `eval_n` evenly strided ones go to the shared eval set, then every
/// `valid_every`-th index (0: none) of the rest to the local validation set,
/// and what remains to the local training set.
struct CollectSplit {
  int frames = 0;  ///< collected per vehicle (<= 0: none)
  std::size_t eval_n = 0;
  std::size_t eval_stride = 1;
  std::size_t valid_every = 0;

  [[nodiscard]] bool eval(std::size_t i) const {
    return i % eval_stride == 0 && i / eval_stride < eval_n;
  }
  /// Whether a non-eval frame `i` is held out for validation.
  [[nodiscard]] bool validation(std::size_t i) const {
    return valid_every > 0 && i % valid_every == valid_every - 1;
  }
  /// Frames left for each vehicle's training set.
  [[nodiscard]] std::size_t training_frames() const;
};

/// The split for `cfg`'s collect_duration_s, collect_fps,
/// eval_frames_per_vehicle and validation_fraction. Call on a config whose
/// frame count validate() bounds.
[[nodiscard]] CollectSplit collect_split(const ScenarioConfig& cfg);

/// Ceilings on the fleet: vehicles (raw or metro-scaled) and the scaled
/// background cars and pedestrians.
inline constexpr int kMaxVehicles = 16384;
inline constexpr int kMaxWorldAgents = 1 << 20;

/// The range checks of every config surface, on a finished config: 2 to
/// kMaxVehicles vehicles, at most kMaxWorldAgents background cars and
/// pedestrians each, finite positive durations, tick, collect rate and
/// radio bandwidth, at most 1e8 ticks and 1e6 collected frames per vehicle
/// and a collect split that leaves every vehicle a training frame, nonzero
/// coreset, packet and wire sizes, BEV frames of at most 65536 cells,
/// policy layer widths in [1, 1024] and num_threads in [0, 1024]. The other
/// rows take any value of their type. False with `error` filled.
[[nodiscard]] bool validate(const ScenarioConfig& cfg, std::string& error);

}  // namespace lbchat::engine
