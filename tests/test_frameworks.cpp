// Tests for the framework backends: worker mechanics, deployment
// validation, metric plausibility and the architectural signatures the
// paper attributes to each framework (multi-node speedup, vectorization
// coupling, single-node power advantage).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/env/cartpole.hpp"
#include "darl/env/pendulum.hpp"
#include "darl/env/wrappers.hpp"
#include "darl/frameworks/backend.hpp"
#include "darl/rl/evaluate.hpp"

namespace darl::frameworks {
namespace {

TrainRequest small_request(FrameworkKind kind, std::size_t nodes,
                           std::size_t cores) {
  (void)kind;
  TrainRequest req;
  req.env_factory = env::make_cartpole_factory(100);
  req.algo.kind = rl::AlgoKind::PPO;
  req.algo.ppo.epochs = 2;
  req.algo.ppo.minibatch_size = 32;
  req.deployment.nodes = nodes;
  req.deployment.cores_per_node = cores;
  req.total_timesteps = 2048;
  req.train_batch_total = 512;
  req.steps_per_env = 128;
  req.eval_episodes = 5;
  req.seed = 7;
  return req;
}

/// A PPO learner for CartPole's 4-d observation and 2 discrete actions.
std::unique_ptr<rl::Algorithm> cartpole_ppo(std::uint64_t seed) {
  rl::AlgorithmSpec spec;
  spec.kind = rl::AlgoKind::PPO;
  return rl::make_algorithm(spec, 4, env::ActionSpace(env::DiscreteSpace(2)), seed);
}

TEST(Worker, CollectsExactStepCountAndEpisodes) {
  auto algo = cartpole_ppo(1);
  RolloutWorker worker(3, env::make_cartpole_factory(20)(), algo->make_actor(), 99);
  worker.sync(algo->policy_params());

  const rl::WorkerBatch batch = worker.collect(100);
  EXPECT_EQ(batch.worker_id, 3u);
  ASSERT_EQ(batch.transitions.size(), 100u);
  for (const auto& t : batch.transitions) {
    EXPECT_EQ(t.obs.size(), 4u);
    EXPECT_LE(t.log_prob, 0.0);
  }
  // 20-step time limit: about 5 episodes must have finished.
  EXPECT_GE(worker.episodes().size(), 3u);

  const CollectCost cost = worker.take_cost();
  EXPECT_EQ(cost.steps, 100u);
  EXPECT_EQ(cost.inferences, 100u);
  EXPECT_GT(cost.env_cost_units, 0.0);
  EXPECT_EQ(worker.take_cost().steps, 0u);  // drained
}

TEST(Worker, CollectionContinuesAcrossCalls) {
  auto algo = cartpole_ppo(2);
  RolloutWorker worker(0, env::make_cartpole_factory(10)(), algo->make_actor(), 5);
  worker.sync(algo->policy_params());
  worker.collect(15);
  worker.collect(15);
  std::size_t total_len = 0;
  for (const auto& ep : worker.episodes()) total_len += ep.length;
  EXPECT_LE(total_len, 30u);  // episodes fit inside the collected steps
}

TEST(Worker, ActBatchMatchesSequentialAct) {
  auto algo = cartpole_ppo(1);
  auto batched = algo->make_actor();
  auto sequential = algo->make_actor();
  batched->set_params(algo->policy_params());
  sequential->set_params(algo->policy_params());

  std::vector<Vec> obs;
  Rng data(41);
  for (std::size_t i = 0; i < 9; ++i) {
    Vec o(4);
    for (double& v : o) v = data.normal(0.0, 1.0);
    obs.push_back(std::move(o));
  }

  // Identical rng streams: the batched path must consume draws in the same
  // per-slot order as a sequential loop.
  Rng rng_a(17), rng_b(17);
  std::vector<rl::ActOutput> out(obs.size());
  batched->act_batch(obs, rng_a, out);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const rl::ActOutput ref = sequential->act(obs[i], rng_b);
    ASSERT_EQ(out[i].action.size(), ref.action.size()) << "slot " << i;
    for (std::size_t j = 0; j < ref.action.size(); ++j) {
      EXPECT_EQ(out[i].action[j], ref.action[j]) << "slot " << i;
    }
    EXPECT_EQ(out[i].log_prob, ref.log_prob) << "slot " << i;
  }
}

TEST(Worker, CollectRecordDrainsCostAndNewEpisodesOnce) {
  auto algo = cartpole_ppo(3);
  RolloutWorker worker(4, env::make_cartpole_factory(10)(), algo->make_actor(), 11);
  worker.sync(algo->policy_params());

  // Episodes last at most 10 steps, so each 25-step record finishes at
  // least two of them.
  const BatchRecord first = worker.collect_record(25, 2, 5);
  const std::size_t after_first = worker.episodes().size();
  const BatchRecord second = worker.collect_record(25, 3, 6);

  EXPECT_EQ(first.node, 2u);
  EXPECT_EQ(first.version, 5u);
  EXPECT_EQ(second.node, 3u);
  EXPECT_EQ(second.version, 6u);
  for (const BatchRecord* rec : {&first, &second}) {
    EXPECT_EQ(rec->batch.worker_id, 4u);
    EXPECT_EQ(rec->batch.transitions.size(), 25u);
    // Each record drains only its own call's cost.
    EXPECT_EQ(rec->cost.steps, 25u);
    EXPECT_EQ(rec->cost.inferences, 25u);
    EXPECT_GT(rec->cost.env_cost_units, 0.0);
    EXPECT_GE(rec->new_episodes.size(), 2u);
  }
  EXPECT_EQ(worker.take_cost().steps, 0u);

  // The first record carries every episode so far; the second exactly the
  // ones finished since, in order.
  const auto& all = worker.episodes();
  ASSERT_EQ(first.new_episodes.size(), after_first);
  ASSERT_EQ(after_first + second.new_episodes.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const env::EpisodeRecord& got = i < after_first
                                        ? first.new_episodes[i]
                                        : second.new_episodes[i - after_first];
    EXPECT_EQ(got.total_reward, all[i].total_reward) << "episode " << i;
    EXPECT_EQ(got.score, all[i].score) << "episode " << i;
    EXPECT_EQ(got.length, all[i].length) << "episode " << i;
  }
}

TEST(Worker, RejectsNullEnvironmentOrActor) {
  auto algo = cartpole_ppo(1);
  EXPECT_THROW(RolloutWorker(0, nullptr, algo->make_actor(), 1), InvalidArgument);
  EXPECT_THROW(RolloutWorker(0, env::make_cartpole_factory(10)(), nullptr, 1),
               InvalidArgument);
}

TEST(Worker, SameSeedCollectsIdenticalBatches) {
  auto algo = cartpole_ppo(4);
  auto make = [&](std::uint64_t seed) {
    auto w = std::make_unique<RolloutWorker>(
        0, env::make_cartpole_factory(15)(), algo->make_actor(), seed);
    w->sync(algo->policy_params());
    return w;
  };
  auto a = make(21), b = make(21), c = make(22);
  const rl::WorkerBatch ba = a->collect(40);
  const rl::WorkerBatch bb = b->collect(40);
  const rl::WorkerBatch bc = c->collect(40);
  bool differs = false;
  for (std::size_t i = 0; i < 40; ++i) {
    const rl::Transition& x = ba.transitions[i];
    const rl::Transition& y = bb.transitions[i];
    EXPECT_EQ(x.obs, y.obs) << i;
    EXPECT_EQ(x.action, y.action) << i;
    EXPECT_EQ(x.reward, y.reward) << i;
    EXPECT_EQ(x.next_obs, y.next_obs) << i;
    EXPECT_EQ(x.log_prob, y.log_prob) << i;
    EXPECT_EQ(x.terminated, y.terminated) << i;
    EXPECT_EQ(x.truncated, y.truncated) << i;
    differs = differs || x.obs != bc.transitions[i].obs;
  }
  EXPECT_TRUE(differs);  // another seed, another trajectory
}

TEST(Worker, TransitionsChainAndResetAtEpisodeEnds) {
  auto algo = cartpole_ppo(5);
  RolloutWorker worker(1, env::make_cartpole_factory(8)(), algo->make_actor(), 13);
  worker.sync(algo->policy_params());
  const rl::WorkerBatch first = worker.collect(30);
  const rl::WorkerBatch second = worker.collect(30);
  std::vector<rl::Transition> all = first.transitions;
  all.insert(all.end(), second.transitions.begin(), second.transitions.end());

  std::size_t done = 0;
  std::size_t steps_in_episode = 0;
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    ++steps_in_episode;
    EXPECT_LE(steps_in_episode, 8u) << i;  // the time limit holds
    if (all[i].terminated || all[i].truncated) {
      ++done;
      steps_in_episode = 0;
      // The next transition starts from a fresh CartPole reset.
      for (double v : all[i + 1].obs) EXPECT_LE(std::abs(v), 0.05) << i;
    } else {
      // Otherwise it continues from where this one ended, across calls too.
      EXPECT_EQ(all[i].next_obs, all[i + 1].obs) << i;
    }
  }
  if (all.back().terminated || all.back().truncated) ++done;
  EXPECT_EQ(worker.episodes().size(), done);
}

TEST(MakeWorkers, StreamsDependOnGlobalIdNotOnTheHost) {
  auto algo = cartpole_ppo(6);
  const env::EnvFactory factory = env::make_cartpole_factory(12);
  // Worker 2 built as the third of one host's three workers, and as the
  // only worker of another host, acts identically.
  auto one_host = make_workers(factory, *algo, 77, 0, 3);
  auto other_host = make_workers(factory, *algo, 77, 2, 1);
  ASSERT_EQ(one_host.size(), 3u);
  ASSERT_EQ(other_host.size(), 1u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(one_host[i]->id(), i);
  EXPECT_EQ(other_host[0]->id(), 2u);
  for (auto* w : {one_host[1].get(), one_host[2].get(), other_host[0].get()}) {
    w->sync(algo->policy_params());
  }
  const rl::WorkerBatch a = one_host[2]->collect(30);
  const rl::WorkerBatch b = other_host[0]->collect(30);
  const rl::WorkerBatch sibling = one_host[1]->collect(30);
  EXPECT_EQ(a.worker_id, 2u);
  EXPECT_EQ(b.worker_id, 2u);
  bool sibling_differs = false;
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.transitions[i].obs, b.transitions[i].obs) << i;
    EXPECT_EQ(a.transitions[i].action, b.transitions[i].action) << i;
    EXPECT_EQ(a.transitions[i].log_prob, b.transitions[i].log_prob) << i;
    sibling_differs = sibling_differs || a.transitions[i].obs != sibling.transitions[i].obs;
  }
  EXPECT_TRUE(sibling_differs);
}

TEST(Backends, FactoryAndNames) {
  EXPECT_STREQ(make_backend(FrameworkKind::RayRllib)->name(), "RLlib");
  EXPECT_STREQ(make_backend(FrameworkKind::StableBaselines)->name(),
               "Stable Baselines");
  EXPECT_STREQ(make_backend(FrameworkKind::TfAgents)->name(), "TF-Agents");
}

TEST(Backends, SingleNodeFrameworksRejectMultiNode) {
  StableBaselinesBackend sb;
  EXPECT_THROW(sb.run(small_request(FrameworkKind::StableBaselines, 2, 2)),
               InvalidArgument);
  TfAgentsBackend tfa;
  EXPECT_THROW(tfa.run(small_request(FrameworkKind::TfAgents, 2, 2)),
               InvalidArgument);
}

TEST(Backends, BatchBelowWorkerCountIsRejected) {
  // RLlib and TF-Agents spread train_batch_total over the workers: fewer
  // transitions than workers (none included) is refused, not rounded up to
  // one-transition batches.
  for (const FrameworkKind kind :
       {FrameworkKind::RayRllib, FrameworkKind::TfAgents}) {
    for (const std::size_t batch : {std::size_t{0}, std::size_t{3}}) {
      TrainRequest req = small_request(kind, 1, 4);
      req.train_batch_total = batch;
      EXPECT_THROW(make_backend(kind)->run(req), InvalidArgument)
          << framework_name(kind) << " batch " << batch;
    }
  }
  // Stable Baselines sizes its batch by steps_per_env alone.
  TrainRequest sb = small_request(FrameworkKind::StableBaselines, 1, 2);
  sb.train_batch_total = 0;
  sb.total_timesteps = 256;
  EXPECT_NO_THROW(make_backend(FrameworkKind::StableBaselines)->run(sb));
}

class BackendRunTest : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(BackendRunTest, ProducesPlausibleMetrics) {
  auto backend = make_backend(GetParam());
  const TrainResult r = backend->run(small_request(GetParam(), 1, 2));
  EXPECT_GE(r.timesteps, 2048u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GT(r.episodes, 0u);
  EXPECT_GT(r.sim_seconds, 0.0);
  EXPECT_GT(r.sim_energy_joules, 0.0);
  EXPECT_GT(r.reward, 0.0);  // CartPole reward is positive
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST_P(BackendRunTest, DeterministicForFixedSeed) {
  auto b1 = make_backend(GetParam());
  auto b2 = make_backend(GetParam());
  const TrainResult r1 = b1->run(small_request(GetParam(), 1, 2));
  const TrainResult r2 = b2->run(small_request(GetParam(), 1, 2));
  EXPECT_DOUBLE_EQ(r1.reward, r2.reward);
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
  EXPECT_DOUBLE_EQ(r1.sim_energy_joules, r2.sim_energy_joules);
}

TEST_P(BackendRunTest, MoreCoresFasterSimTime) {
  auto b2 = make_backend(GetParam());
  auto b4 = make_backend(GetParam());
  const TrainResult r2 = b2->run(small_request(GetParam(), 1, 2));
  const TrainResult r4 = b4->run(small_request(GetParam(), 1, 4));
  EXPECT_LT(r4.sim_seconds, r2.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, BackendRunTest,
                         ::testing::Values(FrameworkKind::RayRllib,
                                           FrameworkKind::StableBaselines,
                                           FrameworkKind::TfAgents),
                         [](const auto& gen_info) {
                           switch (gen_info.param) {
                             case FrameworkKind::RayRllib: return "RLlib";
                             case FrameworkKind::StableBaselines: return "SB";
                             default: return "TFA";
                           }
                         });

TEST(RllibBackend, TwoNodesFasterThanOne) {
  RllibBackend backend;
  const TrainResult one = backend.run(small_request(FrameworkKind::RayRllib, 1, 4));
  RllibBackend backend2;
  const TrainResult two = backend2.run(small_request(FrameworkKind::RayRllib, 2, 4));
  EXPECT_LT(two.sim_seconds, one.sim_seconds);
}

TEST(RllibBackend, TwoNodesBurnMorePowerPerSecond) {
  RllibBackend b1, b2;
  const TrainResult one = b1.run(small_request(FrameworkKind::RayRllib, 1, 4));
  const TrainResult two = b2.run(small_request(FrameworkKind::RayRllib, 2, 4));
  EXPECT_GT(two.sim_energy_joules / two.sim_seconds,
            one.sim_energy_joules / one.sim_seconds);
}

TEST(StableBaselinesBackend, FewerCoresMeansMoreFrequentUpdates) {
  StableBaselinesBackend b2, b4;
  const TrainResult r2 = b2.run(small_request(FrameworkKind::StableBaselines, 1, 2));
  const TrainResult r4 = b4.run(small_request(FrameworkKind::StableBaselines, 1, 4));
  // Same total timesteps, per-env rollout fixed: the 2-core run updates on
  // smaller batches, hence more iterations.
  EXPECT_GT(r2.iterations, r4.iterations);
}

TEST(TfAgentsBackend, LowerEnergyThanRllibSameDeployment) {
  TfAgentsBackend tfa;
  RllibBackend rllib;
  const TrainResult a = tfa.run(small_request(FrameworkKind::TfAgents, 1, 4));
  const TrainResult b = rllib.run(small_request(FrameworkKind::RayRllib, 1, 4));
  EXPECT_LT(a.sim_energy_joules, b.sim_energy_joules);
}

TEST(Costs, ProfilesMatchTheFrameworkStories) {
  const BackendCosts rllib = default_costs(FrameworkKind::RayRllib);
  const BackendCosts sb = default_costs(FrameworkKind::StableBaselines);
  const BackendCosts tfa = default_costs(FrameworkKind::TfAgents);
  // TF-Agents: the most cost-effective CPU use (paper §VI-B).
  EXPECT_LT(tfa.per_step_overhead_s, sb.per_step_overhead_s);
  EXPECT_LT(tfa.per_step_overhead_s, rllib.per_step_overhead_s);
  EXPECT_LT(tfa.train_tax, rllib.train_tax);
  // Vectorized backends batch their inference; RLlib workers do not.
  EXPECT_LT(sb.inference_batch_efficiency, 1.0);
  EXPECT_LT(tfa.inference_batch_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(rllib.inference_batch_efficiency, 1.0);
}

TEST(RllibBackend, RunsImpalaAlgorithm) {
  TrainRequest req = small_request(FrameworkKind::RayRllib, 2, 2);
  req.algo.kind = rl::AlgoKind::IMPALA;
  req.train_batch_total = 256;
  RllibBackend backend;
  const TrainResult r = backend.run(req);
  EXPECT_GE(r.timesteps, req.total_timesteps);
  EXPECT_GT(r.reward, 0.0);  // CartPole
  EXPECT_GT(r.iterations, 0u);
}

TEST(Backends, EpisodesComeFromAllWorkers) {
  // 2x2 deployment: four workers, each contributing episodes.
  RllibBackend backend;
  const TrainResult r = backend.run(small_request(FrameworkKind::RayRllib, 2, 2));
  // 2048 steps across 4 workers with a 100-step limit: >= 4 x 4 episodes.
  EXPECT_GE(r.episodes, 16u);
}

TEST(Backends, FinalPolicyDeploysIntoMatchingActor) {
  StableBaselinesBackend backend;
  TrainRequest req = small_request(FrameworkKind::StableBaselines, 1, 2);
  const TrainResult r = backend.run(req);
  ASSERT_FALSE(r.final_policy.empty());

  // Rebuild the architecture and load the trained parameters.
  auto probe = req.env_factory();
  auto algo = rl::make_algorithm(req.algo, probe->observation_space().dim(),
                                 probe->action_space(), 999);
  auto actor = algo->make_actor();
  EXPECT_NO_THROW(actor->set_params(r.final_policy));
  // The deployed greedy policy performs like the backend's evaluation
  // (same parameters; the eval is greedy and the env deterministic given
  // its seed).
  auto env = req.env_factory();
  env->seed(123);
  Rng rng(1);
  const rl::EvalResult eval = rl::evaluate_policy(*actor, *env, 5, rng, false);
  EXPECT_GT(eval.mean_total_reward, 9.0);  // CartPole: beyond trivial falls
}

TEST(Backends, SacRunsThroughBackends) {
  TrainRequest req;
  req.env_factory = [] {
    return std::make_unique<env::TimeLimit>(
        std::make_unique<env::PendulumEnv>(), 50);
  };
  req.algo.kind = rl::AlgoKind::SAC;
  req.algo.sac.warmup_steps = 64;
  req.algo.sac.batch_size = 16;
  req.algo.sac.updates_per_step = 0.1;
  req.deployment = {1, 2};
  req.total_timesteps = 512;
  req.train_batch_total = 128;
  req.steps_per_env = 64;
  req.eval_episodes = 2;

  for (const auto kind : {FrameworkKind::RayRllib, FrameworkKind::StableBaselines,
                          FrameworkKind::TfAgents}) {
    auto backend = make_backend(kind);
    const TrainResult r = backend->run(req);
    EXPECT_GE(r.timesteps, 512u) << framework_name(kind);
    EXPECT_LT(r.reward, 0.0) << framework_name(kind);  // Pendulum is negative
  }
}

// ---------------------------------------------------------------------------
// Golden digests: every non-wall-clock TrainResult field, pinned across
// commits. DeterministicForFixedSeed compares a run with itself; these
// catch a refactor of the iteration schedule that moves any number.

/// small_request with SAC on a short-horizon Pendulum at the cheap learner
/// settings Backends.SacRunsThroughBackends uses.
/// small_request on a 50-step pendulum (a Box action space).
TrainRequest small_box_request(FrameworkKind kind, std::size_t nodes,
                               std::size_t cores) {
  TrainRequest req = small_request(kind, nodes, cores);
  req.env_factory = [] {
    return std::make_unique<env::TimeLimit>(
        std::make_unique<env::PendulumEnv>(), 50);
  };
  return req;
}

TrainRequest small_sac_request(FrameworkKind kind, std::size_t nodes,
                               std::size_t cores) {
  TrainRequest req = small_box_request(kind, nodes, cores);
  req.algo.kind = rl::AlgoKind::SAC;
  req.algo.sac.warmup_steps = 64;
  req.algo.sac.batch_size = 16;
  req.algo.sac.updates_per_step = 0.1;
  return req;
}

/// fnv1a64 over the bit patterns of every TrainResult field that does not
/// come from the wall clock, rendered as 16 hex digits.
std::string result_digest(const TrainResult& r) {
  std::string bytes;
  const auto put = [&bytes](const auto& v) {
    char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    bytes.append(raw, sizeof(v));
  };
  put(r.reward);
  put(r.sim_seconds);
  put(r.sim_energy_joules);
  put(r.reward_stddev);
  put(r.train_reward);
  put(r.net_staleness);
  put(static_cast<std::uint64_t>(r.timesteps));
  put(static_cast<std::uint64_t>(r.episodes));
  put(static_cast<std::uint64_t>(r.iterations));
  put(r.final_policy_loss);
  put(r.final_value_loss);
  put(r.final_entropy);
  put(static_cast<std::uint64_t>(r.final_policy.size()));
  for (const double v : r.final_policy) put(v);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return hex;
}

TEST(Backends, GoldenResultDigests) {
  struct Case {
    FrameworkKind kind;
    std::size_t nodes;
    rl::AlgoKind algo;
    bool box;  ///< pendulum (Box actions) instead of CartPole (Discrete)
    const char* digest;
  };
  const Case cases[] = {
      {FrameworkKind::RayRllib, 1, rl::AlgoKind::PPO, false, "995573fd8d144389"},
      {FrameworkKind::RayRllib, 2, rl::AlgoKind::PPO, false, "f2a2502869c74a64"},
      {FrameworkKind::StableBaselines, 1, rl::AlgoKind::PPO, false, "71b033cd2e9bb39c"},
      {FrameworkKind::TfAgents, 1, rl::AlgoKind::PPO, false, "1770332b4ce22955"},
      {FrameworkKind::RayRllib, 1, rl::AlgoKind::SAC, true, "a93fd01399a8d3a5"},
      {FrameworkKind::RayRllib, 2, rl::AlgoKind::SAC, true, "23b6b3bf242dbc82"},
      {FrameworkKind::StableBaselines, 1, rl::AlgoKind::SAC, true, "f048bfc366068d85"},
      {FrameworkKind::TfAgents, 1, rl::AlgoKind::SAC, true, "3559920eda7f80a0"},
      // The DiagGaussian / log-std head and the whole V-trace learner.
      {FrameworkKind::RayRllib, 1, rl::AlgoKind::PPO, true, "5f01da3a86973210"},
      {FrameworkKind::RayRllib, 2, rl::AlgoKind::IMPALA, false, "15247a1d098f41db"},
      {FrameworkKind::RayRllib, 1, rl::AlgoKind::IMPALA, true, "9c9406e7544cd37e"},
  };
  for (const Case& c : cases) {
    TrainRequest req;
    if (c.algo == rl::AlgoKind::SAC) {
      req = small_sac_request(c.kind, c.nodes, 2);
    } else {
      req = c.box ? small_box_request(c.kind, c.nodes, 2)
                  : small_request(c.kind, c.nodes, 2);
      req.algo.kind = c.algo;
    }
    const TrainResult r = make_backend(c.kind)->run(req);
    EXPECT_EQ(result_digest(r), c.digest)
        << framework_name(c.kind) << " " << c.nodes << "x2 "
        << rl::algo_name(c.algo) << (c.box ? " box" : " discrete");
  }
}

}  // namespace
}  // namespace darl::frameworks
