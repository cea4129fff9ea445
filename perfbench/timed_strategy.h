// Timing decorator around engine::Strategy.
//
// TimedStrategy owns a registry strategy and forwards every hook to it
// unchanged, timing each simulation hook on a steady clock (the checkpoint
// state hooks pass through untimed). It draws no random numbers and touches
// no simulation state, so a decorated run is bit-identical to a bare one
// (the selftest mode of lbchat_perfbench pins this at 1 and 2 lanes).
//
// local_train may run concurrently on the engine's lanes, so its busy time
// goes to per-lane slots (one per worker thread, cache-line padded, relaxed
// atomics). The wall span of one train interval — first start to last end
// over all lanes — is closed by the next on_tick, which the engine calls on
// its single tick thread right after the train loop.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "engine/fleet.h"

namespace lbchat::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class TimedStrategy final : public engine::Strategy {
 public:
  enum Hook : int {
    kSetup,
    kLocalTrain,
    kOnTick,
    kTransferComplete,
    kSessionIdle,
    kSessionAborted,
    kNumHooks,
  };
  static constexpr int kMaxLanes = 64;

  struct HookTotals {
    long calls = 0;
    double ms = 0.0;
  };

  explicit TimedStrategy(std::unique_ptr<engine::Strategy> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] engine::Strategy& inner() { return *inner_; }

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  void setup(engine::FleetSim& sim) override {
    Scope s(*this, kSetup);
    inner_->setup(sim);
  }

  void local_train(engine::FleetSim& sim, int v) override {
    const std::int64_t t0 = now_ns();
    inner_->local_train(sim, v);
    const std::int64_t t1 = now_ns();
    Lane& lane = lanes_[static_cast<std::size_t>(lane_index())];
    lane.calls.fetch_add(1, std::memory_order_relaxed);
    lane.busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    atomic_min(interval_first_start_, t0);
    atomic_max(interval_last_end_, t1);
  }

  [[nodiscard]] bool parallel_local_train() const override {
    return inner_->parallel_local_train();
  }

  void on_tick(engine::FleetSim& sim) override {
    close_train_interval();
    Scope s(*this, kOnTick);
    inner_->on_tick(sim);
  }

  void on_transfer_complete(engine::FleetSim& sim, engine::PairSession& ps,
                            const engine::StageTag& tag) override {
    Scope s(*this, kTransferComplete);
    inner_->on_transfer_complete(sim, ps, tag);
  }

  void on_session_idle(engine::FleetSim& sim, engine::PairSession& ps) override {
    Scope s(*this, kSessionIdle);
    inner_->on_session_idle(sim, ps);
  }

  void on_session_aborted(engine::FleetSim& sim, engine::PairSession& ps) override {
    Scope s(*this, kSessionAborted);
    inner_->on_session_aborted(sim, ps);
  }

  // The state hooks are forwarded untimed: checkpoint cost is timed around
  // save_checkpoint/restore by the caller.
  void save_state(const engine::FleetSim& sim, ByteWriter& w) const override {
    inner_->save_state(sim, w);
  }

  void load_state(engine::FleetSim& sim, ByteReader& r) override { inner_->load_state(sim, r); }

  void save_session_state(const engine::FleetSim& sim, const engine::PairSession& ps,
                          ByteWriter& w) const override {
    inner_->save_session_state(sim, ps, w);
  }

  void load_session_state(engine::FleetSim& sim, engine::PairSession& ps,
                          ByteReader& r) override {
    inner_->load_session_state(sim, ps, r);
  }

  // --- readout (call between run_until slices, never during one) ---

  [[nodiscard]] HookTotals totals(Hook h) const {
    if (h == kLocalTrain) {
      HookTotals t;
      for (const Lane& lane : lanes_) {
        t.calls += lane.calls.load(std::memory_order_relaxed);
        t.ms += static_cast<double>(lane.busy_ns.load(std::memory_order_relaxed)) * 1e-6;
      }
      return t;
    }
    const Slot& slot = hooks_[static_cast<std::size_t>(h)];
    return {slot.calls.load(std::memory_order_relaxed),
            static_cast<double>(slot.ns.load(std::memory_order_relaxed)) * 1e-6};
  }

  /// Sum over train intervals of (last lane end - first lane start).
  [[nodiscard]] double local_train_wall_ms() {
    close_train_interval();
    return static_cast<double>(train_wall_ns_) * 1e-6;
  }

  /// Lanes that ran at least one local_train call.
  [[nodiscard]] int lanes_used() const {
    return static_cast<int>(std::count_if(lanes_.begin(), lanes_.end(), [](const Lane& l) {
      return l.calls.load(std::memory_order_relaxed) > 0;
    }));
  }

 private:
  struct alignas(64) Slot {
    std::atomic<long> calls{0};
    std::atomic<std::int64_t> ns{0};
  };
  struct alignas(64) Lane {
    std::atomic<long> calls{0};
    std::atomic<std::int64_t> busy_ns{0};
  };

  /// RAII timer for the sequential hooks.
  class Scope {
   public:
    Scope(TimedStrategy& ts, Hook h)
        : slot_(ts.hooks_[static_cast<std::size_t>(h)]), t0_(now_ns()) {}
    ~Scope() {
      slot_.calls.fetch_add(1, std::memory_order_relaxed);
      slot_.ns.fetch_add(now_ns() - t0_, std::memory_order_relaxed);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Slot& slot_;
    std::int64_t t0_;
  };

  /// Stable per-thread lane slot (threads beyond kMaxLanes share slots,
  /// which only merges their counts).
  static int lane_index() {
    static std::atomic<int> next{0};
    thread_local const int idx = next.fetch_add(1, std::memory_order_relaxed) % kMaxLanes;
    return idx;
  }

  static void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
    std::int64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
    std::int64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void close_train_interval() {
    const std::int64_t first = interval_first_start_.load(std::memory_order_relaxed);
    const std::int64_t last = interval_last_end_.load(std::memory_order_relaxed);
    if (last > first) train_wall_ns_ += last - first;
    interval_first_start_.store(kNoStart, std::memory_order_relaxed);
    interval_last_end_.store(kNoEnd, std::memory_order_relaxed);
  }

  static constexpr std::int64_t kNoStart = std::numeric_limits<std::int64_t>::max();
  static constexpr std::int64_t kNoEnd = std::numeric_limits<std::int64_t>::min();

  std::unique_ptr<engine::Strategy> inner_;
  std::array<Slot, kNumHooks> hooks_{};
  std::array<Lane, kMaxLanes> lanes_{};
  std::atomic<std::int64_t> interval_first_start_{kNoStart};
  std::atomic<std::int64_t> interval_last_end_{kNoEnd};
  std::int64_t train_wall_ns_ = 0;
};

}  // namespace lbchat::perfbench
