// Tests for the gym-style environment substrate: spaces, lifecycle rules,
// wrappers and the classic-control environments.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/cartpole.hpp"
#include "darl/env/gridworld.hpp"
#include "darl/env/pendulum.hpp"
#include "darl/env/wrappers.hpp"

namespace darl::env {
namespace {

TEST(BoxSpace, ContainsSampleClip) {
  BoxSpace box(Vec{-1.0, 0.0}, Vec{1.0, 2.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(box.contains(box.sample(rng)));
  EXPECT_FALSE(box.contains({-2.0, 1.0}));
  EXPECT_FALSE(box.contains({0.0}));
  const Vec c = box.clip({-5.0, 5.0});
  EXPECT_DOUBLE_EQ(c[0], -1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_THROW(BoxSpace(Vec{1.0}, Vec{0.0}), InvalidArgument);
  EXPECT_THROW(BoxSpace(Vec{}, Vec{}), InvalidArgument);
}

TEST(DiscreteSpace, EncodeDecodeSample) {
  DiscreteSpace d(3);
  EXPECT_EQ(d.decode(d.encode(2)), 2u);
  EXPECT_EQ(d.decode({0.4}), 0u);
  EXPECT_EQ(d.decode({1.6}), 2u);
  EXPECT_EQ(d.decode({99.0}), 2u);  // clamped
  EXPECT_TRUE(d.contains({1.0}));
  EXPECT_FALSE(d.contains({3.0}));
  EXPECT_FALSE(d.contains({}));
  Rng rng(2);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(d.contains(d.sample(rng)));
  EXPECT_THROW(DiscreteSpace(0), InvalidArgument);
  EXPECT_THROW(d.encode(3), InvalidArgument);
}

TEST(ActionSpace, VariantBehaviour) {
  ActionSpace disc{DiscreteSpace(4)};
  EXPECT_TRUE(disc.is_discrete());
  EXPECT_EQ(disc.action_dim(), 1u);
  EXPECT_THROW(disc.box(), InvalidArgument);
  EXPECT_EQ(disc.describe(), "Discrete(4)");

  ActionSpace cont{BoxSpace(2, -1.0, 1.0)};
  EXPECT_TRUE(cont.is_box());
  EXPECT_EQ(cont.action_dim(), 2u);
  EXPECT_THROW(cont.discrete(), InvalidArgument);
  EXPECT_EQ(cont.describe(), "Box(dim=2)");
}

TEST(EnvBase, StepBeforeResetThrows) {
  CartPoleEnv env;
  EXPECT_THROW(env.step({0.0}), InvalidState);
  env.reset();
  EXPECT_NO_THROW(env.step({0.0}));
}

TEST(EnvBase, StepAfterDoneThrowsUntilReset) {
  CartPoleEnv env;
  env.seed(7);
  env.reset();
  // Push right forever: the pole falls within the 200-step horizon.
  StepResult r;
  for (int i = 0; i < 500; ++i) {
    r = env.step({1.0});
    if (r.done()) break;
  }
  ASSERT_TRUE(r.done());
  EXPECT_THROW(env.step({1.0}), InvalidState);
  env.reset();
  EXPECT_NO_THROW(env.step({1.0}));
}

TEST(EnvBase, WrongActionSizeThrows) {
  PendulumEnv env;
  env.reset();
  EXPECT_THROW(env.step({0.1, 0.2}), InvalidArgument);
}

TEST(EnvBase, SeedingReproducesEpisodes) {
  CartPoleEnv a, b;
  a.seed(99);
  b.seed(99);
  const Vec oa = a.reset();
  const Vec ob = b.reset();
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_DOUBLE_EQ(oa[i], ob[i]);
}

TEST(CartPole, TerminatesOnAngleOrPosition) {
  CartPoleEnv env;
  env.seed(3);
  env.reset();
  bool terminated = false;
  for (int i = 0; i < 1000 && !terminated; ++i) {
    const StepResult r = env.step({1.0});
    terminated = r.terminated;
    EXPECT_DOUBLE_EQ(r.reward, 1.0);
  }
  EXPECT_TRUE(terminated);
}

TEST(CartPole, ComputeCostDrains) {
  CartPoleEnv env;
  env.seed(4);
  env.reset();
  env.step({0.0});
  env.step({0.0});
  EXPECT_DOUBLE_EQ(env.take_compute_cost(), 2.0);
  EXPECT_DOUBLE_EQ(env.take_compute_cost(), 0.0);
}

TEST(Pendulum, RewardIsNonPositiveAndBounded) {
  PendulumEnv env;
  env.seed(5);
  env.reset();
  for (int i = 0; i < 100; ++i) {
    const StepResult r = env.step({0.5});
    EXPECT_LE(r.reward, 0.0);
    EXPECT_GE(r.reward, -17.0);  // -(pi^2 + 0.1*64 + 0.001*4) lower bound
    EXPECT_FALSE(r.terminated);
    // Observation is (cos, sin, thetadot): unit circle.
    EXPECT_NEAR(r.observation[0] * r.observation[0] +
                    r.observation[1] * r.observation[1],
                1.0, 1e-9);
  }
}

TEST(TimeLimit, TruncatesAtLimit) {
  auto env = std::make_unique<TimeLimit>(std::make_unique<PendulumEnv>(), 5);
  env->seed(1);
  env->reset();
  StepResult r;
  for (int i = 0; i < 5; ++i) r = env->step({0.0});
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.terminated);
  // Counter resets with the episode.
  env->reset();
  r = env->step({0.0});
  EXPECT_FALSE(r.truncated);
}

TEST(EpisodeMonitor, RecordsRewardScoreAndLength) {
  auto env = std::make_unique<EpisodeMonitor>(
      std::make_unique<TimeLimit>(std::make_unique<PendulumEnv>(), 3));
  env->seed(2);
  env->reset();
  double total = 0.0;
  for (int i = 0; i < 3; ++i) total += env->step({0.0}).reward;
  ASSERT_EQ(env->episodes().size(), 1u);
  EXPECT_DOUBLE_EQ(env->episodes()[0].total_reward, total);
  EXPECT_DOUBLE_EQ(env->episodes()[0].score, total);  // no domain score
  EXPECT_EQ(env->episodes()[0].length, 3u);
}

/// Two-step episodes of reward 1 with a domain score of 42 once finished:
/// separates EpisodeMonitor's score from its reward sum.
class ScoredEnv final : public EnvBase {
 public:
  const BoxSpace& observation_space() const override { return obs_; }
  const ActionSpace& action_space() const override { return act_; }
  const std::string& name() const override { return name_; }
  std::optional<double> episode_score() const override {
    return finished_ ? std::optional<double>(42.0) : std::nullopt;
  }

 protected:
  Vec do_reset(Rng&) override {
    finished_ = false;
    return {0.0};
  }
  StepResult do_step(Rng&, const Vec&) override {
    StepResult r;
    r.observation = {static_cast<double>(episode_steps())};
    r.reward = 1.0;
    r.terminated = episode_steps() == 2;
    finished_ = r.terminated;
    return r;
  }

 private:
  BoxSpace obs_{1, -10.0, 10.0};
  ActionSpace act_{BoxSpace(1, -1.0, 1.0)};
  std::string name_ = "Scored";
  bool finished_ = false;
};

TEST(CartPole, ResetStateIsSmallAndSpacesMatchGym) {
  CartPoleEnv env;
  EXPECT_EQ(env.name(), "CartPole");
  EXPECT_EQ(env.observation_space().dim(), 4u);
  ASSERT_TRUE(env.action_space().is_discrete());
  EXPECT_EQ(env.action_space().discrete().n(), 2u);
  for (std::uint64_t s = 0; s < 20; ++s) {
    env.seed(s);
    const Vec obs = env.reset();
    ASSERT_EQ(obs.size(), 4u);
    for (double v : obs) {
      EXPECT_GE(v, -0.05);
      EXPECT_LT(v, 0.05);
    }
  }
}

TEST(CartPole, ActionsPushTheCartInOppositeDirections) {
  CartPoleEnv left, right;
  left.seed(8);
  right.seed(8);
  const Vec start = left.reset();
  right.reset();
  // Velocity (index 1) moves by the force's sign within one 0.02 s step.
  const Vec l = left.step({0.0}).observation;
  const Vec r = right.step({1.0}).observation;
  EXPECT_LT(l[1], start[1]);
  EXPECT_GT(r[1], start[1]);
  // Position integrates the old velocity, so both agree on x after step 1.
  EXPECT_DOUBLE_EQ(l[0], r[0]);
}

TEST(CartPole, FactoryAppliesTimeLimit) {
  auto env = make_cartpole_factory(7)();
  EXPECT_EQ(env->name(), "CartPole");
  env->seed(12);
  env->reset();
  StepResult r;
  for (int i = 0; i < 7; ++i) {
    r = env->step({static_cast<double>(i % 2)});  // alternate: stays upright
    ASSERT_FALSE(r.terminated) << "step " << i;
    if (i < 6) {
      EXPECT_FALSE(r.truncated) << "step " << i;
    }
  }
  EXPECT_TRUE(r.truncated);
}

TEST(Pendulum, TorqueIsClippedToTheActionBox) {
  PendulumEnv clipped, at_limit;
  clipped.seed(6);
  at_limit.seed(6);
  clipped.reset();
  at_limit.reset();
  for (int i = 0; i < 10; ++i) {
    const StepResult a = clipped.step({100.0});
    const StepResult b = at_limit.step({2.0});
    EXPECT_EQ(a.reward, b.reward) << "step " << i;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(a.observation[j], b.observation[j]) << "step " << i;
    }
  }
}

TEST(Pendulum, ResetAndStepsStayInsideObservationBox) {
  PendulumEnv env;
  for (std::uint64_t s = 0; s < 10; ++s) {
    env.seed(s);
    const Vec obs = env.reset();
    EXPECT_TRUE(env.observation_space().contains(obs));
    EXPECT_LE(std::abs(obs[2]), 1.0);  // initial speed in [-1, 1)
  }
  // Full torque for a long time saturates the speed at 8 rad/s.
  env.seed(1);
  env.reset();
  for (int i = 0; i < 300; ++i) {
    const StepResult r = env.step({2.0});
    EXPECT_TRUE(env.observation_space().contains(r.observation)) << i;
  }
  EXPECT_EQ(env.take_compute_cost(), 300.0);
}

TEST(Pendulum, FactoryAppliesTimeLimit) {
  auto env = make_pendulum_factory(4)();
  EXPECT_EQ(env->name(), "Pendulum");
  EXPECT_TRUE(env->action_space().is_box());
  env->seed(2);
  env->reset();
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(env->step({0.0}).done());
  EXPECT_TRUE(env->step({0.0}).truncated);
}

TEST(EnvWrapper, ForwardsSpacesNameCostAndScore) {
  auto inner = std::make_unique<CartPoleEnv>();
  const CartPoleEnv* raw = inner.get();
  TimeLimit env(std::make_unique<EpisodeMonitor>(std::move(inner)), 50);
  EXPECT_EQ(env.name(), raw->name());
  EXPECT_EQ(&env.observation_space(), &raw->observation_space());
  EXPECT_EQ(&env.action_space(), &raw->action_space());
  EXPECT_FALSE(env.episode_score().has_value());
  env.seed(3);
  env.reset();
  for (int i = 0; i < 3; ++i) env.step({0.0});
  EXPECT_DOUBLE_EQ(env.take_compute_cost(), 3.0);
  EXPECT_DOUBLE_EQ(env.take_compute_cost(), 0.0);
}

TEST(EnvWrapper, RejectsNullInnerAndZeroLimit) {
  EXPECT_THROW((EpisodeMonitor{nullptr}), InvalidArgument);
  EXPECT_THROW((TimeLimit{nullptr, 5}), InvalidArgument);
  EXPECT_THROW((TimeLimit{std::make_unique<CartPoleEnv>(), 0}), InvalidArgument);
}

TEST(TimeLimit, TerminationOnTheLastStepIsNotTruncation) {
  // Find the step at which pushing right topples the pole...
  CartPoleEnv probe;
  probe.seed(3);
  probe.reset();
  std::size_t fall = 1;
  while (!probe.step({1.0}).terminated) ++fall;
  ASSERT_GT(fall, 1u);
  // ...then cap the episode at exactly that many steps.
  TimeLimit env(std::make_unique<CartPoleEnv>(), fall);
  env.seed(3);
  env.reset();
  StepResult r;
  for (std::size_t i = 0; i < fall; ++i) r = env.step({1.0});
  EXPECT_TRUE(r.terminated);
  EXPECT_FALSE(r.truncated);
}

TEST(EpisodeMonitor, ResetDiscardsUnfinishedEpisode) {
  EpisodeMonitor env(
      std::make_unique<TimeLimit>(std::make_unique<PendulumEnv>(), 4));
  env.seed(9);
  env.reset();
  env.step({0.0});
  env.step({0.0});
  env.reset();  // abandon a 2-step episode: nothing is recorded
  EXPECT_TRUE(env.episodes().empty());
  double total = 0.0;
  for (int i = 0; i < 4; ++i) total += env.step({0.0}).reward;
  ASSERT_EQ(env.episodes().size(), 1u);
  EXPECT_EQ(env.episodes()[0].length, 4u);
  EXPECT_DOUBLE_EQ(env.episodes()[0].total_reward, total);
}

TEST(EpisodeMonitor, ScoreComesFromTheEnvironmentWhenDefined) {
  EpisodeMonitor env(std::make_unique<ScoredEnv>());
  env.seed(1);
  for (int ep = 0; ep < 2; ++ep) {
    env.reset();
    env.step({0.0});
    EXPECT_TRUE(env.step({0.0}).terminated);
  }
  ASSERT_EQ(env.episodes().size(), 2u);
  for (const EpisodeRecord& rec : env.episodes()) {
    EXPECT_DOUBLE_EQ(rec.total_reward, 2.0);
    EXPECT_DOUBLE_EQ(rec.score, 42.0);
    EXPECT_EQ(rec.length, 2u);
  }
}

TEST(GridWorld, LayoutValidation) {
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"..", "..."}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"..", ".."}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"SS"}}}), InvalidArgument);
  EXPECT_THROW((GridWorldEnv{GridWorldLayout{{"SZ"}}}), InvalidArgument);
  EXPECT_NO_THROW((GridWorldEnv{GridWorldLayout::small_maze()}));
}

TEST(GridWorld, ShortestPathToGoalGivesBestReturn) {
  // small_maze: S..G in the top row — 3 steps right reaches the goal.
  GridWorldEnv env;
  env.seed(1);
  env.reset();
  double total = 0.0;
  env::StepResult r;
  for (int i = 0; i < 3; ++i) {
    r = env.step({1.0});  // right
    total += r.reward;
  }
  EXPECT_TRUE(r.terminated);
  EXPECT_NEAR(total, 1.0 - 2 * 0.01, 1e-12);
}

TEST(GridWorld, PitTerminatesWithPenalty) {
  // From S: right x3 would hit G; go down-right path to the pit at (3,1).
  GridWorldEnv env;
  env.seed(1);
  env.reset();
  env.step({1.0});  // right  -> (1,0)
  env.step({1.0});  // right  -> (2,0)
  env.step({2.0});  // down   -> (2,1)
  const env::StepResult r = env.step({1.0});  // right -> pit (3,1)
  EXPECT_TRUE(r.terminated);
  EXPECT_DOUBLE_EQ(r.reward, -1.0);
}

TEST(GridWorld, WallsAndEdgesBlockMovement) {
  GridWorldEnv env;
  env.seed(1);
  env.reset();
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 0}));
  env.step({0.0});  // up: off-grid, no-op
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 0}));
  env.step({3.0});  // left: off-grid, no-op
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 0}));
  env.step({2.0});  // down -> (0,1)
  env.step({1.0});  // right: wall '#' at (1,1), no-op
  EXPECT_EQ(env.position(), (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(GridWorld, ObservationIsOneHot) {
  GridWorldEnv env;
  env.seed(1);
  const Vec obs = env.reset();
  ASSERT_EQ(obs.size(), 16u);
  double sum = 0.0;
  for (double v : obs) sum += v;
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_DOUBLE_EQ(obs[0], 1.0);  // start at (0,0)
}

}  // namespace
}  // namespace darl::env
