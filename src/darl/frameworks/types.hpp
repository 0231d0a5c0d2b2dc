// darl/frameworks/types.hpp
//
// Request/result types of the framework-backend layer. A backend runs one
// complete training job (the unit the methodology evaluates per learning
// configuration) and reports the paper's three metrics: Reward, Computation
// Time and Power Consumption.

#pragma once

#include <cstdint>
#include <string>

#include "darl/env/env.hpp"
#include "darl/rl/factory.hpp"

namespace darl::frameworks {

/// The three RL frameworks compared by the paper (§V-b).
enum class FrameworkKind { RayRllib, StableBaselines, TfAgents };

/// Display name ("RLlib", "Stable Baselines", "TF-Agents").
const char* framework_name(FrameworkKind kind);

/// System-level deployment parameters of a learning configuration
/// (the paper's "number of nodes" and "number of CPU cores per node").
struct DeploymentSpec {
  std::size_t nodes = 1;
  std::size_t cores_per_node = 4;
};

/// Everything needed to run one training job.
struct TrainRequest {
  env::EnvFactory env_factory;
  rl::AlgorithmSpec algo;
  DeploymentSpec deployment;
  std::size_t total_timesteps = 200000;
  std::uint64_t seed = 1;

  /// PPO-style iteration sizing. `train_batch_total` is the total number of
  /// transitions consumed per learner update for the batch-oriented
  /// backends (RLlib, TF-Agents). `steps_per_env` is Stable Baselines'
  /// per-environment rollout length (its total batch therefore scales with
  /// the number of vectorized environments — the coupling behind the
  /// paper's solution-14 observation). RLlib and TF-Agents refuse a
  /// `train_batch_total` below the worker count with InvalidArgument.
  std::size_t train_batch_total = 1024;
  std::size_t steps_per_env = 256;

  /// Final greedy evaluation used to report the Reward metric.
  std::size_t eval_episodes = 50;

  /// Opaque environment specification for multi-process execution: remote
  /// actor processes cannot receive `env_factory` (a closure), so the
  /// distributed runtime ships this string instead and the worker binary's
  /// registered resolver rebuilds an identical factory from it (see
  /// darl/airdrop/spec.hpp for the airdrop codec). Ignored by the
  /// in-process backends; required by DistributedRllibBackend.
  std::string env_spec;
};

/// Outcome of one training job: the study metrics plus diagnostics.
struct TrainResult {
  // --- the paper's evaluation metrics ---
  double reward = 0.0;          ///< mean eval episode score (landing reward)
  double sim_seconds = 0.0;     ///< simulated Computation Time
  double sim_energy_joules = 0.0;  ///< simulated Power Consumption

  // --- diagnostics ---
  double reward_stddev = 0.0;   ///< eval-episode score spread
  double train_reward = 0.0;    ///< mean score of recent training episodes
  double wall_seconds = 0.0;    ///< real host time spent (not a metric)

  /// Host wall time spent inside each training phase (collect = rollout
  /// workers, learn = gradient updates + simulated learner accounting,
  /// sync = policy/sample shipping). Always measured — two clock reads per
  /// phase per iteration — and surfaced per trial in core/report.
  double collect_wall_seconds = 0.0;
  double learn_wall_seconds = 0.0;
  double sync_wall_seconds = 0.0;

  /// Mean parameter staleness of consumed batches, in versions: learner
  /// update count at consumption minus the version the batch was collected
  /// with. 0 for synchronous single-node runs; positive under the
  /// asynchronous multi-node pipeline (RLlib-style backends). Identical by
  /// construction between the in-process and multi-process runtimes — it
  /// is a property of the coordination schedule, not of the transport —
  /// which is what lets campaign CSVs rank on it and stay byte-identical
  /// across both paths (DESIGN.md §17).
  double net_staleness = 0.0;

  std::size_t timesteps = 0;
  std::size_t episodes = 0;
  std::size_t iterations = 0;
  double final_policy_loss = 0.0;
  double final_value_loss = 0.0;
  double final_entropy = 0.0;
  /// The trained policy's flat parameters (load into an actor created by a
  /// matching Algorithm, or persist with rl::save_checkpoint).
  Vec final_policy;
};

}  // namespace darl::frameworks
