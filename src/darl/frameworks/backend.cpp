#include "darl/frameworks/backend.hpp"

#include <algorithm>
#include <array>
#include <thread>

#include "darl/common/error.hpp"
#include "darl/common/stats.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/trace.hpp"
#include "darl/rl/evaluate.hpp"

namespace darl::frameworks {

RllibBackend::RllibBackend(BackendCosts costs) : BackendBase(costs) {}
StableBaselinesBackend::StableBaselinesBackend(BackendCosts costs)
    : BackendBase(costs) {}
TfAgentsBackend::TfAgentsBackend(BackendCosts costs) : BackendBase(costs) {}

double BackendBase::worker_busy_seconds(const CollectCost& cost,
                                        double inference_mflop) const {
  const double env_s = cost.env_cost_units * costs_.env_sec_per_cost_unit;
  const double overhead_s =
      static_cast<double>(cost.steps) * costs_.per_step_overhead_s;
  // Inference converted at the paper-testbed core throughput with the
  // framework tax; batching discounts are applied by the caller when the
  // backend batches across environments.
  const double inf_mflop = static_cast<double>(cost.inferences) *
                           inference_mflop * costs_.inference_tax *
                           costs_.inference_batch_efficiency;
  const double inf_s = inf_mflop / sim::NodeSpec{}.core_mflop_per_s;
  return env_s + overhead_s + inf_s;
}

namespace {

/// Validate the deployment against the framework and size the job (the
/// environment interface is filled in by the engine's probe).
IterationPlan plan_iterations(FrameworkKind kind, const TrainRequest& request) {
  const auto& dep = request.deployment;
  if (kind == FrameworkKind::RayRllib) {
    DARL_CHECK(dep.nodes >= 1 && dep.cores_per_node >= 1,
               "invalid deployment " << dep.nodes << "x" << dep.cores_per_node);
  } else {
    // The paper's frameworks differ exactly here.
    DARL_CHECK(dep.nodes == 1, framework_name(kind)
                                   << " parallelizes on a single node (requested "
                                   << dep.nodes << " nodes)");
    DARL_CHECK(dep.cores_per_node >= 1, "invalid core count");
  }
  DARL_CHECK(request.total_timesteps > 0, "no timesteps requested");

  IterationPlan plan;
  plan.nodes = dep.nodes;
  plan.cores = dep.cores_per_node;
  plan.workers = dep.nodes * dep.cores_per_node;
  // Stable Baselines steps one vectorized environment per core for
  // `steps_per_env` lockstep sweeps, so its total batch scales with the
  // core count; RLlib and TF-Agents spread a fixed total batch.
  const bool vectorized = kind == FrameworkKind::StableBaselines;
  if (!vectorized) {
    DARL_CHECK(request.train_batch_total >= plan.workers,
               framework_name(kind)
                   << " spreads train_batch_total " << request.train_batch_total
                   << " over " << plan.workers
                   << " workers: it must be at least the worker count");
  }
  plan.per_worker = vectorized
                        ? std::max<std::size_t>(1, request.steps_per_env)
                        : request.train_batch_total / plan.workers;
  plan.batched_inference = vectorized;
  return plan;
}

/// Final greedy evaluation on a fresh environment (fixed eval seed), and
/// aggregation of training-episode diagnostics into `result`.
/// `episodes_per_worker[i]` must be worker i's records in training order.
void finalize(
    const TrainRequest& request, rl::Algorithm& algo,
    const std::vector<std::vector<env::EpisodeRecord>>& episodes_per_worker,
    const sim::SimCluster& cluster, TrainResult& result) {
  DARL_SPAN("backend.eval");
  DARL_COUNTER_ADD("backend.train_jobs", 1);
  // Training-episode diagnostics: mean score of the most recent episodes
  // (up to 50 per worker).
  RunningStats train_scores;
  std::size_t episodes = 0;
  for (const auto& eps : episodes_per_worker) {
    episodes += eps.size();
    const std::size_t take = std::min<std::size_t>(eps.size(), 50);
    for (std::size_t i = eps.size() - take; i < eps.size(); ++i)
      train_scores.push(eps[i].score);
  }
  result.episodes = episodes;
  result.train_reward = train_scores.mean();

  // The Reward metric: greedy evaluation of the final policy on a fresh
  // environment with a fixed evaluation seed (independent of the training
  // stream, like re-running the trained model on the simulator).
  auto eval_env = request.env_factory();
  eval_env->seed(Rng(request.seed).split(0xEA1).seed());
  auto eval_actor = algo.make_actor();
  eval_actor->set_params(algo.policy_params());
  Rng eval_rng(Rng(request.seed).split(777).seed());
  RunningStats scores;
  for (std::size_t ep = 0; ep < request.eval_episodes; ++ep) {
    const rl::EvalResult r =
        rl::evaluate_policy(*eval_actor, *eval_env, 1, eval_rng,
                            /*stochastic=*/false);
    scores.push(r.mean_score);
  }
  result.reward = scores.mean();
  result.reward_stddev = scores.stddev();
  result.sim_seconds = cluster.elapsed_seconds();
  result.sim_energy_joules = cluster.energy_joules();
  result.final_policy = algo.policy_params();
}

}  // namespace

TrainResult BackendBase::run(const TrainRequest& request) {
  return run_engine(request, nullptr);
}

TrainResult BackendBase::run_engine(const TrainRequest& request,
                                    RemoteNodes* remote) const {
  IterationPlan plan = plan_iterations(kind(), request);
  Stopwatch wall;

  // Probe the environment interface.
  {
    auto probe = request.env_factory();
    plan.obs_dim = probe->observation_space().dim();
    plan.action_space = probe->action_space();
  }
  auto algo = rl::make_algorithm(request.algo, plan.obs_dim, plan.action_space,
                                 Rng(request.seed).split(1).seed());

  // Workers with global ids 0..n_local-1 run on threads here; with a
  // transport that is node 0 only.
  const std::size_t n_local = remote != nullptr ? plan.cores : plan.workers;
  auto workers =
      make_workers(request.env_factory, *algo, request.seed, 0, n_local);

  sim::SimCluster cluster(
      sim::ClusterSpec::paper_testbed(plan.nodes, plan.cores));
  const double inference_mflop = algo->make_actor()->inference_cost_mflop();
  if (remote != nullptr) remote->start(plan);

  // params[k] is version max(t-k, 0): version v = parameters after v
  // train calls, the initial snapshot is v0.
  std::array<Vec, 3> params;
  params.fill(algo->policy_params());
  if (remote != nullptr) remote->publish(params[0]);

  TrainResult result;
  rl::TrainStats last_stats;
  std::vector<std::vector<env::EpisodeRecord>> episodes(plan.workers);
  std::vector<BatchRecord> delayed;  // remote records, consumed next iteration
  // Per-batch staleness: the learner's update count when a batch is
  // consumed minus the version it was collected with.
  double staleness_sum = 0.0;
  std::size_t staleness_batches = 0;
  std::size_t steps_done = 0;
  // Spans emitted by the collection threads re-tag themselves with the
  // trial this backend runs under (thread-locals do not inherit).
  const std::int64_t obs_trial = obs::current_trial();

  while (steps_done < request.total_timesteps) {
    const std::uint64_t t = result.iterations;
    Stopwatch phase;
    // --- policy sync, plus the simulated broadcast to remote nodes.
    {
      DARL_SPAN("backend.sync");
      for (auto& w : workers) {
        const std::size_t node = plan.node_of(w->id());
        w->sync(params[t - plan.version_for(node, t)]);
      }
      if (remote != nullptr) remote->ship(plan.version_for(1, t));
      for (std::size_t node = 1; node < plan.nodes; ++node) {
        cluster.run_transfer(0, node, static_cast<double>(algo->params_bytes()));
      }
    }
    result.sync_wall_seconds += phase.seconds();
    phase.reset();

    // --- collection on one thread per local worker (workers are
    // self-contained, so the result is schedule-independent) while the
    // transport gathers the remote records.
    std::vector<BatchRecord> records(n_local);
    {
      DARL_SPAN("backend.collect");
      std::vector<BatchRecord> shipped;
      std::vector<std::thread> threads;
      threads.reserve(n_local);
      for (std::size_t i = 0; i < n_local; ++i) {
        threads.emplace_back([&, i] {
          obs::TrialScope tag(obs_trial);
          const std::size_t node = plan.node_of(i);
          records[i] = workers[i]->collect_record(plan.per_worker, node,
                                                  plan.version_for(node, t));
        });
      }
      try {
        if (remote != nullptr) shipped = remote->gather();
      } catch (...) {
        for (auto& th : threads) th.join();
        throw;
      }
      for (auto& th : threads) th.join();

      // Records in global worker-id order, whatever their source.
      for (auto& rec : shipped) records.push_back(std::move(rec));
      std::sort(records.begin(), records.end(),
                [](const BatchRecord& a, const BatchRecord& b) {
                  return a.batch.worker_id < b.batch.worker_id;
                });
      DARL_CHECK(records.size() == plan.workers,
                 "iteration " << t << " got " << records.size()
                              << " batches for " << plan.workers << " workers");
      for (std::size_t i = 0; i < records.size(); ++i) {
        const BatchRecord& rec = records[i];
        DARL_CHECK(rec.batch.worker_id == i && rec.node == plan.node_of(i),
                   "batch from worker " << rec.batch.worker_id << " on node "
                                        << rec.node << " in slot " << i);
        DARL_CHECK(rec.version == plan.version_for(rec.node, t),
                   "batch from worker " << i << " carries version " << rec.version
                                        << ", expected "
                                        << plan.version_for(rec.node, t));
      }

      // --- simulated collection phase.
      std::vector<sim::SimCluster::WorkerLoad> loads;
      loads.reserve(records.size());
      double batched_inferences = 0.0;
      for (const BatchRecord& rec : records) {
        CollectCost cost = rec.cost;
        if (plan.batched_inference) {
          batched_inferences += static_cast<double>(cost.inferences);
          cost.inferences = 0;  // env stepping only; inference charged below
        }
        loads.push_back({rec.node, worker_busy_seconds(cost, inference_mflop)});
        auto& eps = episodes[rec.batch.worker_id];
        eps.insert(eps.end(), rec.new_episodes.begin(), rec.new_episodes.end());
      }
      cluster.run_parallel_phase(loads);
      if (plan.batched_inference) {
        // Batched driver inference: one core, discounted by the vectorized
        // batch efficiency.
        const double inf_mflop = batched_inferences * inference_mflop *
                                 costs_.inference_tax *
                                 costs_.inference_batch_efficiency;
        cluster.run_compute(0, cluster.seconds_for_mflop(0, inf_mflop), 1);
      }
    }
    result.collect_wall_seconds += phase.seconds();
    phase.reset();

    // --- sample shipping from remote nodes to the learner.
    {
      DARL_SPAN("backend.sync");
      for (std::size_t node = 1; node < plan.nodes; ++node) {
        double bytes = 0.0;
        for (const BatchRecord& rec : records) {
          if (rec.node == node) {
            bytes += static_cast<double>(rec.batch.transitions.size()) *
                     static_cast<double>(algo->transition_bytes());
          }
        }
        cluster.run_transfer(node, 0, bytes);
      }
    }
    result.sync_wall_seconds += phase.seconds();
    phase.reset();

    // --- learner update on node 0 (all its cores): last iteration's
    // remote batches first, then this iteration's node-0 batches.
    {
      DARL_SPAN("backend.learn");
      std::vector<rl::WorkerBatch> train_batches;
      train_batches.reserve(delayed.size() + records.size());
      const auto consume = [&](BatchRecord& rec) {
        staleness_sum += static_cast<double>(t - rec.version);
        ++staleness_batches;
        train_batches.push_back(std::move(rec.batch));
      };
      for (BatchRecord& rec : delayed) consume(rec);
      delayed.clear();
      for (BatchRecord& rec : records) {
        if (rec.node == 0) {
          consume(rec);
        } else {
          delayed.push_back(std::move(rec));
        }
      }
      last_stats = algo->train(train_batches);
      const double train_core_seconds = cluster.seconds_for_mflop(
          0, last_stats.train_cost_mflop * costs_.train_tax);
      cluster.run_compute(0, train_core_seconds, plan.cores,
                          costs_.train_parallel_efficiency);
      cluster.run_idle(costs_.iteration_overhead_s);
      params[2] = std::move(params[1]);
      params[1] = std::move(params[0]);
      params[0] = algo->policy_params();
      if (remote != nullptr) remote->publish(params[0]);
    }
    result.learn_wall_seconds += phase.seconds();

    steps_done += plan.per_worker * plan.workers;
    ++result.iterations;
    if (remote != nullptr) {
      DARL_GAUGE_SET("net.staleness",
                     staleness_sum / static_cast<double>(staleness_batches));
    }
  }
  if (remote != nullptr) remote->finish();

  result.timesteps = steps_done;
  result.net_staleness = staleness_sum / static_cast<double>(staleness_batches);
  result.final_policy_loss = last_stats.policy_loss;
  result.final_value_loss = last_stats.value_loss;
  result.final_entropy = last_stats.entropy;
  finalize(request, *algo, episodes, cluster, result);
  result.wall_seconds = wall.seconds();
  return result;
}

std::unique_ptr<Backend> make_backend(FrameworkKind kind) {
  return make_backend(kind, default_costs(kind));
}

std::unique_ptr<Backend> make_backend(FrameworkKind kind,
                                      const BackendCosts& costs) {
  switch (kind) {
    case FrameworkKind::RayRllib: return std::make_unique<RllibBackend>(costs);
    case FrameworkKind::StableBaselines:
      return std::make_unique<StableBaselinesBackend>(costs);
    case FrameworkKind::TfAgents:
      return std::make_unique<TfAgentsBackend>(costs);
  }
  throw InvalidArgument("unknown FrameworkKind");
}

}  // namespace darl::frameworks
