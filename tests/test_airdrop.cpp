// Tests for the airdrop package delivery simulator: canopy dynamics
// invariants, episode lifecycle, the paper's configurable environment
// parameters, and the RK-order cost/accuracy coupling.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/ode/explicit_rk.hpp"
#include "darl/ode/tableau.hpp"

namespace darl::airdrop {
namespace {

TEST(Dynamics, TrimStateIsSteadyWithoutSteering) {
  const CanopyParams params;
  const WindState wind{1.0, -0.5};
  Vec y = trim_state(params, 0.0, 0.0, 500.0, 0.7, wind);
  Vec dydt(kStateDim);
  canopy_rhs(params, wind, 0.0, 0.0, y, dydt);
  // At trim with zero command: velocity derivatives and turn accel vanish.
  EXPECT_NEAR(dydt[3], 0.0, 1e-12);
  EXPECT_NEAR(dydt[4], 0.0, 1e-12);
  EXPECT_NEAR(dydt[5], 0.0, 1e-12);
  EXPECT_NEAR(dydt[7], 0.0, 1e-12);
  // Position integrates the velocity; altitude drops at the sink rate.
  EXPECT_NEAR(dydt[2], -params.sink_rate, 1e-12);
}

TEST(Dynamics, SteeringCommandsTurnRate) {
  const CanopyParams params;
  Vec y = trim_state(params, 0.0, 0.0, 500.0, 0.0, WindState{});
  Vec dydt(kStateDim);
  canopy_rhs(params, WindState{}, 1.0, 0.0, y, dydt);
  EXPECT_GT(dydt[7], 0.0);  // accelerating toward a right turn
  canopy_rhs(params, WindState{}, -1.0, 0.0, y, dydt);
  EXPECT_LT(dydt[7], 0.0);
}

TEST(Dynamics, WindAdvectsTrimVelocity) {
  const CanopyParams params;
  const WindState wind{5.0, 0.0};
  Vec y = trim_state(params, 0.0, 0.0, 100.0, std::numbers::pi / 2, wind);
  // Heading +y, wind +x: x-velocity equals the wind speed at trim.
  EXPECT_NEAR(y[3], 5.0, 1e-12);
  EXPECT_NEAR(y[4], params.trim_airspeed, 1e-12);
}

TEST(Dynamics, TurningIncreasesSink) {
  const CanopyParams params;
  Vec y = trim_state(params, 0.0, 0.0, 100.0, 0.0, WindState{});
  y[7] = params.max_turn_rate;  // established full-rate turn
  Vec dydt(kStateDim);
  canopy_rhs(params, WindState{}, 1.0, 0.0, y, dydt);
  // vz relaxes toward a sink larger than trim: d vz/dt < 0 from trim vz.
  EXPECT_LT(dydt[5], -1e-3);
}

TEST(Dynamics, GlideRatio) {
  CanopyParams p;
  p.trim_airspeed = 9.0;
  p.sink_rate = 4.0;
  EXPECT_NEAR(glide_ratio(p), 2.25, 1e-12);
  p.sink_rate = 0.0;
  EXPECT_THROW(glide_ratio(p), InvalidArgument);
}

AirdropConfig quick_config(ode::RkOrder order = ode::RkOrder::Order5) {
  AirdropConfig cfg;
  cfg.rk_order = order;
  cfg.altitude_min = 30.0;
  cfg.altitude_max = 120.0;
  return cfg;
}

TEST(AirdropEnv, EpisodeEndsOnLanding) {
  AirdropEnv env(quick_config());
  env.seed(1);
  Vec obs = env.reset();
  EXPECT_EQ(obs.size(), AirdropEnv::kObservationDim);
  env::StepResult r;
  std::size_t steps = 0;
  do {
    r = env.step(Vec{1.0});  // hold heading
    ++steps;
    ASSERT_LT(steps, 2000u);
  } while (!r.done());
  EXPECT_TRUE(r.terminated);
  EXPECT_GT(env.last_landing().flight_time, 0.0);
  EXPECT_GT(env.last_landing().distance, 0.0);
  // Flight time is roughly altitude / sink rate.
  EXPECT_LT(env.last_landing().flight_time,
            quick_config().altitude_max / quick_config().canopy.sink_rate * 2.5);
}

TEST(AirdropEnv, LandingRewardMatchesDistance) {
  AirdropEnv env(quick_config());
  env.seed(2);
  env.reset();
  env::StepResult r;
  do {
    r = env.step(Vec{1.0});
  } while (!r.done());
  EXPECT_NEAR(r.reward, -env.last_landing().distance / 100.0, 1e-12);
  ASSERT_TRUE(env.episode_score().has_value());
  EXPECT_DOUBLE_EQ(*env.episode_score(), env.last_landing().landing_reward);
}

TEST(AirdropEnv, DropAltitudeRespectsConfiguredInterval) {
  AirdropConfig cfg = quick_config();
  cfg.altitude_min = 50.0;
  cfg.altitude_max = 60.0;
  AirdropEnv env(cfg);
  env.seed(3);
  for (int ep = 0; ep < 20; ++ep) {
    env.reset();
    const double z0 = env.raw_state()[2];
    EXPECT_GE(z0, 50.0);
    EXPECT_LE(z0, 60.0);
    // drain the episode
    env::StepResult r;
    do {
      r = env.step(Vec{1.0});
    } while (!r.done());
  }
}

TEST(AirdropEnv, ShapingRewardsTelescopeTowardProgress) {
  AirdropConfig cfg = quick_config();
  cfg.shaping_weight = 1.0;
  AirdropEnv env(cfg);
  env.seed(4);
  env.reset();
  // Shaping reward is bounded by the normalized per-step movement.
  for (int i = 0; i < 10; ++i) {
    const env::StepResult r = env.step(Vec{1.0});
    if (r.done()) break;
    EXPECT_LT(std::abs(r.reward), 0.1);
  }
}

TEST(AirdropEnv, WindDisabledMeansZeroWind) {
  AirdropEnv env(quick_config());
  env.seed(5);
  env.reset();
  EXPECT_DOUBLE_EQ(env.current_wind().wx, 0.0);
  EXPECT_DOUBLE_EQ(env.current_wind().wy, 0.0);
}

TEST(AirdropEnv, WindEnabledProducesEpisodeWind) {
  AirdropConfig cfg = quick_config();
  cfg.wind_enabled = true;
  cfg.wind_speed_max = 3.0;
  AirdropEnv env(cfg);
  env.seed(6);
  bool saw_wind = false;
  for (int ep = 0; ep < 10 && !saw_wind; ++ep) {
    env.reset();
    const WindState w = env.current_wind();
    const double speed = std::hypot(w.wx, w.wy);
    EXPECT_LE(speed, 3.0 + 1e-9);
    if (speed > 0.1) saw_wind = true;
    env::StepResult r;
    do {
      r = env.step(Vec{1.0});
    } while (!r.done());
  }
  EXPECT_TRUE(saw_wind);
}

TEST(AirdropEnv, CertainGustsAlterTheWind) {
  AirdropConfig cfg = quick_config();
  cfg.gusts_enabled = true;
  cfg.gust_probability = 1.0;
  cfg.gust_speed = 4.0;
  AirdropEnv env(cfg);
  env.seed(7);
  env.reset();
  env.step(Vec{1.0});
  const WindState w = env.current_wind();
  EXPECT_NEAR(std::hypot(w.wx, w.wy), 4.0, 1e-9);
}

TEST(AirdropEnv, ContinuousModeAcceptsBoxActions) {
  AirdropConfig cfg = quick_config();
  cfg.action_mode = ActionMode::Continuous;
  AirdropEnv env(cfg);
  env.seed(8);
  env.reset();
  EXPECT_TRUE(env.action_space().is_box());
  EXPECT_NO_THROW(env.step(Vec{0.3}));
}

TEST(AirdropEnv, DiscreteActionsMapToSteering) {
  AirdropEnv env(quick_config());
  env.seed(9);
  env.reset();
  const double psi_dot0 = env.raw_state()[7];
  env.step(Vec{2.0});  // rotate right
  EXPECT_GT(env.raw_state()[7], psi_dot0);
  env.seed(9);
  env.reset();
  env.step(Vec{0.0});  // rotate left
  EXPECT_LT(env.raw_state()[7], psi_dot0 + 1e-12);
}

TEST(AirdropEnv, HigherRkOrderCostsMoreEvals) {
  double costs[3];
  const ode::RkOrder orders[3] = {ode::RkOrder::Order3, ode::RkOrder::Order5,
                                  ode::RkOrder::Order8};
  for (int k = 0; k < 3; ++k) {
    AirdropEnv env(quick_config(orders[k]));
    env.seed(10);
    env.reset();
    for (int i = 0; i < 20; ++i) {
      if (env.step(Vec{1.0}).done()) env.reset();
    }
    costs[k] = env.take_compute_cost();
    EXPECT_GT(costs[k], 0.0);
    EXPECT_DOUBLE_EQ(env.take_compute_cost(), 0.0);  // drained
  }
  EXPECT_LT(costs[0], costs[1]);
  EXPECT_LT(costs[1], costs[2]);
}

TEST(AirdropEnv, SameSeedSameTrajectory) {
  AirdropEnv a(quick_config()), b(quick_config());
  a.seed(11);
  b.seed(11);
  a.reset();
  b.reset();
  for (int i = 0; i < 30; ++i) {
    const auto ra = a.step(Vec{2.0});
    const auto rb = b.step(Vec{2.0});
    ASSERT_EQ(ra.terminated, rb.terminated);
    EXPECT_DOUBLE_EQ(ra.reward, rb.reward);
    if (ra.done()) break;
  }
}

TEST(AirdropEnv, RejectsBadConfig) {
  AirdropConfig cfg = quick_config();
  cfg.altitude_min = 0.0;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
  cfg = quick_config();
  cfg.gust_probability = 1.5;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
  cfg = quick_config();
  cfg.control_dt = 0.0;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
  cfg = quick_config();
  cfg.control_dt = 2.0 * kMaxControlDt;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
  cfg = quick_config();
  cfg.max_episode_steps = 0;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
}

TEST(AirdropEnv, FactoryProducesIndependentInstances) {
  const auto factory = make_airdrop_factory(quick_config());
  auto e1 = factory();
  auto e2 = factory();
  e1->seed(1);
  e2->seed(2);
  e1->reset();
  e2->reset();
  // Stepping one does not disturb the other.
  e1->step(Vec{1.0});
  EXPECT_NO_THROW(e2->step(Vec{1.0}));
}

TEST(Dynamics, WindProfilePowerLaw) {
  WindProfile profile;
  profile.reference = {4.0, 0.0};
  profile.ref_altitude = 100.0;
  profile.shear_exponent = 0.14;
  // At the reference altitude the profile returns the reference wind.
  EXPECT_NEAR(profile.at(100.0).wx, 4.0, 1e-12);
  // Above: stronger; below: weaker; near the ground: clamped, not zero.
  EXPECT_GT(profile.at(400.0).wx, 4.0);
  EXPECT_LT(profile.at(25.0).wx, 4.0);
  EXPECT_GT(profile.at(0.0).wx, 0.0);
  // Exponent 0 reduces to the uniform model at every altitude.
  profile.shear_exponent = 0.0;
  EXPECT_DOUBLE_EQ(profile.at(1.0).wx, 4.0);
  EXPECT_DOUBLE_EQ(profile.at(900.0).wx, 4.0);
}

TEST(Dynamics, ShearedRhsMatchesUniformAtReferenceAltitude) {
  const CanopyParams params;
  WindProfile profile;
  profile.reference = {3.0, -1.0};
  profile.ref_altitude = 250.0;
  profile.shear_exponent = 0.2;
  Vec y = trim_state(params, 10.0, -5.0, 250.0, 0.4, profile.reference);
  Vec d1(kStateDim), d2(kStateDim);
  canopy_rhs(params, profile.reference, 0.5, 0.0, y, d1);
  canopy_rhs_sheared(params, profile, 0.5, 0.0, y, d2);
  for (std::size_t i = 0; i < kStateDim; ++i) EXPECT_NEAR(d1[i], d2[i], 1e-12);
}

TEST(AirdropEnv, WindShearChangesTrajectories) {
  AirdropConfig uniform_cfg = quick_config();
  uniform_cfg.wind_enabled = true;
  uniform_cfg.wind_speed_max = 3.0;
  AirdropConfig shear_cfg = uniform_cfg;
  shear_cfg.wind_shear_exponent = 0.3;

  AirdropEnv a(uniform_cfg), b(shear_cfg);
  a.seed(41);
  b.seed(41);
  a.reset();
  b.reset();
  // Identical seeds, identical initial state; the shear must alter the
  // flight path once the package descends.
  double max_diff = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto ra = a.step(Vec{1.0});
    const auto rb = b.step(Vec{1.0});
    max_diff = std::max(max_diff, std::abs(a.raw_state()[0] - b.raw_state()[0]));
    if (ra.done() || rb.done()) break;
  }
  EXPECT_GT(max_diff, 1e-6);
}

TEST(AirdropEnv, RejectsBadWindConfig) {
  AirdropConfig cfg = quick_config();
  cfg.wind_ref_altitude = 0.0;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
  cfg = quick_config();
  cfg.wind_shear_exponent = -0.1;
  EXPECT_THROW(AirdropEnv{cfg}, InvalidArgument);
}

TEST(AirdropEnv, RewardScaleDividesLandingScore) {
  AirdropConfig a = quick_config(), b = quick_config();
  b.reward_scale = 200.0;  // half the penalty of the default 100
  AirdropEnv ea(a), eb(b);
  ea.seed(31);
  eb.seed(31);
  ea.reset();
  eb.reset();
  env::StepResult ra, rb;
  do {
    ra = ea.step(Vec{1.0});
  } while (!ra.done());
  do {
    rb = eb.step(Vec{1.0});
  } while (!rb.done());
  EXPECT_NEAR(ea.last_landing().distance, eb.last_landing().distance, 1e-9);
  EXPECT_NEAR(ra.reward, 2.0 * rb.reward, 1e-9);
}

TEST(AirdropEnv, ZeroShapingMeansSilentFlight) {
  AirdropConfig cfg = quick_config();
  cfg.shaping_weight = 0.0;
  AirdropEnv env(cfg);
  env.seed(32);
  env.reset();
  env::StepResult r;
  do {
    r = env.step(Vec{1.0});
    if (!r.done()) {
      EXPECT_DOUBLE_EQ(r.reward, 0.0);
    }
  } while (!r.done());
  EXPECT_LT(r.reward, 0.0);  // only the landing reward remains
}

TEST(AirdropEnv, MaxEpisodeStepsTruncates) {
  AirdropConfig cfg = quick_config();
  cfg.max_episode_steps = 3;
  cfg.altitude_min = 110.0;
  cfg.altitude_max = 120.0;  // cannot land in 3 steps
  AirdropEnv env(cfg);
  env.seed(33);
  env.reset();
  env::StepResult r;
  for (int i = 0; i < 3; ++i) r = env.step(Vec{1.0});
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.terminated);
  EXPECT_TRUE(env.episode_score().has_value());
}

TEST(AirdropEnv, PreciseTouchdownLocalizesLanding) {
  AirdropConfig coarse_cfg = quick_config();
  AirdropConfig precise_cfg = quick_config();
  precise_cfg.precise_touchdown = true;

  AirdropEnv coarse(coarse_cfg), precise(precise_cfg);
  coarse.seed(21);
  precise.seed(21);
  coarse.reset();
  precise.reset();
  env::StepResult rc, rp;
  do {
    rc = coarse.step(Vec{1.0});
  } while (!rc.done());
  do {
    rp = precise.step(Vec{1.0});
  } while (!rp.done());

  // The coarse env reports the state after overshooting below ground; the
  // precise one stops at z ~ 0.
  EXPECT_LE(coarse.raw_state()[2], 0.0);
  EXPECT_NEAR(precise.raw_state()[2], 0.0, 0.05);
  // Touchdown time is never later than the end of the coarse interval.
  EXPECT_LE(precise.last_landing().flight_time,
            coarse.last_landing().flight_time + 1e-9);
}

TEST(AirdropEnv, LowerOrderIsLessAccurateOnOneInterval) {
  // Integrate one aggressive-turn control interval with RK3 (single step)
  // and with a tight-tolerance reference; the RK3 truncation error must be
  // visible but bounded — the fidelity knob of the study.
  const CanopyParams params;
  const WindState wind{};
  const auto rhs = make_canopy_rhs(params, wind, 1.0);

  Vec coarse = trim_state(params, 0.0, 0.0, 300.0, 0.0, wind);
  Vec ref = coarse;

  ode::AdaptiveOptions loose;
  loose.rtol = 1e6;
  loose.atol = 1e6;
  loose.h_initial = 1.0;
  ode::ExplicitRk rk3(ode::bogacki_shampine23(), loose);
  rk3.integrate(rhs, 0.0, 1.0, coarse);

  ode::AdaptiveOptions tight;
  tight.rtol = 1e-12;
  tight.atol = 1e-12;
  ode::ExplicitRk rk45(ode::dormand_prince45(), tight);
  rk45.integrate(rhs, 0.0, 1.0, ref);

  double err = 0.0;
  for (std::size_t i = 0; i < coarse.size(); ++i)
    err = std::max(err, std::abs(coarse[i] - ref[i]));
  EXPECT_GT(err, 1e-8);
  EXPECT_LT(err, 1.0);
}

}  // namespace
}  // namespace darl::airdrop
