// darl/airdrop/airdrop_env.hpp
//
// The Airdrop Package Delivery Simulator as a gym environment (paper §IV):
// a package is dropped from a random altitude inside a configured interval;
// every control interval the simulator integrates the canopy dynamics with
// the configured Runge-Kutta method and returns an observation; the agent
// selects a steering (rotation) command; on landing the reward reflects the
// distance to the target point.

#pragma once

#include <memory>

#include "darl/airdrop/dynamics.hpp"
#include "darl/env/env.hpp"
#include "darl/ode/integrator.hpp"

namespace darl::airdrop {

/// Steering command encoding (paper: "the agent selects a rotation
/// direction for the parachute canopy" — a discrete choice; the continuous
/// mode exposes the same channel as a torque-like scalar so SAC applies).
enum class ActionMode { Discrete3, Continuous };

/// Environment-specific parameters (§IV-B: wind on/off, gusts, gust
/// probability, drop-altitude limits, Runge-Kutta order) plus simulation
/// constants.
struct AirdropConfig {
  // --- paper's configurable environment parameters ---
  bool wind_enabled = false;       ///< constant ambient wind
  double wind_speed_max = 3.0;     ///< per-episode wind magnitude ~ U[0, max]
  /// Boundary-layer wind shear: the ambient wind scales with altitude as
  /// (z / wind_ref_altitude)^wind_shear_exponent (0 = uniform wind).
  double wind_shear_exponent = 0.0;
  double wind_ref_altitude = 100.0;
  bool gusts_enabled = false;      ///< random gusts on top of the wind
  double gust_probability = 0.05;  ///< per-control-step gust onset probability
  double gust_speed = 4.0;         ///< gust magnitude (units/s)
  double gust_duration = 3.0;      ///< gust hold time (s)
  double altitude_min = 30.0;      ///< drop-altitude interval (units)
  double altitude_max = 1000.0;
  ode::RkOrder rk_order = ode::RkOrder::Order5;

  // --- simulation constants ---
  CanopyParams canopy;
  ActionMode action_mode = ActionMode::Discrete3;
  double control_dt = 1.0;      ///< control interval the agent acts at (s)
  double reward_scale = 100.0;  ///< landing reward = -distance / reward_scale
  /// Dense potential-based shaping weight added to the per-step reward
  /// (0 disables). Shaping eases small-budget training without changing the
  /// optimal policy; the terminal landing reward is unaffected.
  double shaping_weight = 1.0;
  /// Fraction of the no-wind glide range the initial horizontal offset can
  /// take (keeps the target reachable but not trivially so).
  double drop_offset_fraction = 0.65;
  std::size_t max_episode_steps = 2000;  ///< hard safety cap
  /// Localize the touchdown instant by event detection (bisection to
  /// `touchdown_tolerance` seconds) instead of reporting the state at the
  /// end of the control interval that crossed the ground. Off by default:
  /// the paper-scale campaign is calibrated without it (see DESIGN.md).
  bool precise_touchdown = false;
  double touchdown_tolerance = 1e-3;
};

/// Longest control interval an AirdropConfig may ask for (s). Each
/// interval is one macro Runge-Kutta step, and a descent from the default
/// 1000-unit ceiling lasts a few minutes, so a longer step no longer
/// resolves a flight.
inline constexpr double kMaxControlDt = 60.0;

/// Throws darl::InvalidArgument unless every field of `config` is in the
/// range AirdropEnv supports: reals finite, the drop-altitude interval
/// positive and ordered, control_dt in (0, kMaxControlDt], probabilities
/// and fractions in [0, 1], speeds, durations and the shear exponent
/// non-negative, scales, tolerances and max_episode_steps positive. The
/// constructor and the spec decoder both apply it.
void validate_airdrop_config(const AirdropConfig& config);

/// Result summary of the last finished episode (for diagnostics/examples).
struct LandingInfo {
  double distance = 0.0;        ///< horizontal distance to the target
  double landing_reward = 0.0;  ///< the paper's Reward metric contribution
  double flight_time = 0.0;     ///< seconds from drop to landing
};

/// The simulator environment. Observations (dim 12, all roughly unit
/// scaled): relative target bearing features, distance, altitude, velocity,
/// heading (cos/sin), turn rate — the "rotation, position, orientation and
/// velocity vectors" of the paper's Algorithm 1.
class AirdropEnv final : public env::EnvBase {
 public:
  explicit AirdropEnv(AirdropConfig config = {});

  const env::BoxSpace& observation_space() const override { return obs_space_; }
  const env::ActionSpace& action_space() const override { return act_space_; }
  const std::string& name() const override { return name_; }

  /// Drains accumulated ODE right-hand-side evaluation counts — the
  /// simulated compute-cost unit charged by the cluster model.
  double take_compute_cost() override;

  /// The paper's Reward metric: the landing score of the last finished
  /// episode (shaping rewards are excluded).
  std::optional<double> episode_score() const override {
    return last_landing_.landing_reward;
  }

  const AirdropConfig& config() const { return config_; }

  /// Info about the most recently finished episode. Valid after a step
  /// returning terminated == true.
  const LandingInfo& last_landing() const { return last_landing_; }

  /// Raw dynamic state (for tests and the flight-trace example).
  const Vec& raw_state() const { return state_; }

  /// Current wind (ambient + gust) seen by the dynamics.
  WindState current_wind() const;

  static constexpr std::size_t kObservationDim = 12;

 protected:
  Vec do_reset(Rng& rng) override;
  env::StepResult do_step(Rng& rng, const Vec& action) override;

 private:
  Vec observe() const;
  double command_from_action(const Vec& action) const;
  double distance_to_target() const;
  /// Shaping potential: negative normalized distance (higher is better).
  double potential() const;

  AirdropConfig config_;
  env::BoxSpace obs_space_;
  env::ActionSpace act_space_;
  std::string name_ = "AirdropPackageDelivery";

  std::unique_ptr<ode::Integrator> integrator_;
  Vec state_;
  double time_ = 0.0;
  WindState ambient_wind_;
  WindState gust_;
  double gust_time_left_ = 0.0;
  double last_potential_ = 0.0;
  LandingInfo last_landing_;
  std::size_t rhs_evals_drained_ = 0;
};

/// Factory binding a config; each call produces an independent instance.
env::EnvFactory make_airdrop_factory(const AirdropConfig& config);

}  // namespace darl::airdrop
