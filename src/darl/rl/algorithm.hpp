// darl/rl/algorithm.hpp
//
// The learner/actor split every distributed-RL architecture in the paper is
// built from (A3C/IMPALA/Ape-X separate acting from learning; RLlib,
// Stable Baselines and TF-Agents are orchestrations of exactly these two
// roles). A framework backend owns the orchestration: it creates
// RolloutActors for its workers, decides when and with which parameter
// snapshot they act (fresh or stale), and feeds collected WorkerBatches to
// Algorithm::train().

#pragma once

#include <memory>

#include "darl/rl/policy.hpp"
#include "darl/rl/types.hpp"

namespace darl::rl {

/// A lightweight inference-only copy of the policy used by one rollout
/// worker. Not thread-safe internally; each worker owns one instance and
/// its own Rng.
class RolloutActor {
 public:
  explicit RolloutActor(Policy policy) : policy_(std::move(policy)) {}

  /// Replace the actor's parameters with a snapshot obtained from
  /// Algorithm::policy_params().
  void set_params(const Vec& flat) { policy_.set_params(flat); }

  /// Sample an action (env encoding) and its log-probability.
  ActOutput act(const Vec& obs, Rng& rng);

  /// Batched act() over one observation per entry: one network evaluation
  /// for the whole batch. Consumes rng draws in ascending index order, so
  /// the results (and the rng stream afterwards) are identical to calling
  /// act() sequentially. `out` must be pre-sized to obs.size().
  void act_batch(const std::vector<Vec>& obs, Rng& rng,
                 std::vector<ActOutput>& out);

  /// Deterministic (greedy/mode) action for evaluation.
  Vec act_greedy(const Vec& obs);

  /// Simulated inference cost for one act() in MFLOP-equivalents.
  double inference_cost_mflop() const {
    return policy_.net().flops_per_forward() / 1e6;
  }

 private:
  Policy policy_;
  Matrix obs_mat_;  // act_batch staging rows
};

/// A learning algorithm (PPO, SAC or IMPALA): consumes worker batches,
/// updates its networks, and exports policy-parameter snapshots for the
/// actors.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual AlgoKind kind() const = 0;

  /// Consume one iteration's worth of collected experience and update.
  virtual TrainStats train(const std::vector<WorkerBatch>& batches) = 0;

  /// The policy being learned.
  const Policy& policy() const { return policy_; }

  /// Create an inference-only actor initialized with the current policy.
  std::unique_ptr<RolloutActor> make_actor() const {
    return std::make_unique<RolloutActor>(policy_);
  }

  /// Snapshot of the current policy parameters (flat).
  Vec policy_params() const { return policy_.params(); }

  /// Size of one policy-parameter snapshot in bytes (network transfer
  /// accounting for multi-node deployments).
  std::size_t params_bytes() const {
    return policy_.param_count() * sizeof(double);
  }

  /// Approximate size of one serialized transition in bytes (sample
  /// transfer accounting): obs + next_obs + action + scalars, in doubles.
  std::size_t transition_bytes() const {
    return (2 * policy_.net().input_dim() +
            policy_.def().action_space().action_dim() + 4) *
           sizeof(double);
  }

 protected:
  explicit Algorithm(Policy policy) : policy_(std::move(policy)) {}

  Policy policy_;
};

}  // namespace darl::rl
