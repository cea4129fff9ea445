// FNV-1a fingerprinting shared by every result cache and by checkpoints.
//
// The bench harness caches training runs on disk keyed by
// scenario_fingerprint; the fleet-evaluation service (src/svc) keys its
// ResultCache the same way, so a job submitted twice runs once. Checkpoints
// carry config_fingerprint, so a restore into a different scenario is
// refused. Both digests come from the one field table
// engine::for_each_field (engine/scenario.h), and tests/fingerprint_test.cpp
// pins known digests so the derivation cannot silently drift.
//
// Scheme: a field enters a digest as its dotted name plus its value, and only
// when its bits differ from ScenarioConfig{}; a disabled adversary, hetero or
// int8_eval layer counts as all-default. So a default field hashes nothing,
// and adding a field to the table moves no existing digest. Names and values
// are serialized through a ByteWriter (the little-endian layout of the wire
// formats) and the byte stream is hashed with 64-bit FNV-1a. num_threads and
// spatial_index are not in the table (pure wall-clock knobs). duration_s is
// hashed by the scenario fingerprint only: a cache entry answers one exact
// horizon, while a resumed checkpoint may extend it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace lbchat::engine {
struct ScenarioConfig;

/// Digest of every for_each_field row of `cfg` whose bits differ from
/// ScenarioConfig{}, after resetting the adversary, hetero and int8_eval
/// layers to their defaults when disabled. Stamped into checkpoints: a
/// resumed run may change duration_s and num_threads, nothing else.
[[nodiscard]] std::uint64_t config_fingerprint(const ScenarioConfig& cfg);
}  // namespace lbchat::engine

namespace lbchat {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// Plain 64-bit FNV-1a over a byte span, chainable via `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                            std::uint64_t h = kFnvOffsetBasis) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Typed FNV-1a accumulator: fields are serialized little-endian through a
/// ByteWriter, then digested. The add() overload set (and its byte layout)
/// is frozen by the pinned digests in tests/fingerprint_test.cpp — widening
/// it is fine, changing existing overloads is a cache-key break.
class FnvHasher {
 public:
  void add(double v) { w_.write_f64(v); }
  void add(std::uint64_t v) { w_.write_u64(v); }
  void add(int v) { w_.write_i32(v); }
  void add(bool v) { w_.write_u8(v ? 1 : 0); }
  void add(std::string_view s) { w_.write_string(s); }

  [[nodiscard]] std::uint64_t digest() const { return fnv1a(w_.bytes()); }

 private:
  ByteWriter w_;
};

/// Version salt mixed into every scenario fingerprint. Bump to invalidate
/// all cached results (bench .bench_cache entries and svc ResultCache
/// entries alike) after behavioural code changes.
inline constexpr std::uint32_t kScenarioFingerprintVersion = 4;

/// One canonical (non-default, schema-validated) strategy option as it enters
/// the fingerprint. Produced by baselines::StrategyRegistry::
/// fingerprint_options — sorted by key, defaults dropped — so two spellings
/// of the same configuration hash identically.
struct StrategyOptionKv {
  std::string key;
  double value = 0.0;
};

/// Cache key of a run: the version salt, the strategy name, the
/// config_fingerprint of `cfg`, duration_s, and each of `options` as a
/// "strategy.<key>" name/value pair (so empty options hash like none).
[[nodiscard]] std::uint64_t scenario_fingerprint(const engine::ScenarioConfig& cfg,
                                                 std::string_view strategy,
                                                 std::span<const StrategyOptionKv> options = {});

}  // namespace lbchat
