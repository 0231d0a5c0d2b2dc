// darl/rl/actor_critic.hpp
//
// The learner state PPO and IMPALA share: a Categorical / DiagGaussian
// policy, a Tanh critic of the same hidden sizes, one Adam optimizer each,
// the per-stream critic evaluation both return estimators start from, and
// the clip-then-step epilogue of every update. The loss math (GAE +
// clipped surrogate epochs; V-trace) stays with each algorithm.

#pragma once

#include <memory>

#include "darl/common/rng.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"
#include "darl/rl/algorithm.hpp"

namespace darl::rl {

/// The base of PpoAlgorithm and ImpalaAlgorithm (see the file comment).
class ActorCritic : public Algorithm {
 protected:
  ActorCritic(AlgoKind kind, std::size_t obs_dim, env::ActionSpace action_space,
              const std::vector<std::size_t>& hidden, double log_std_init,
              double learning_rate, std::uint64_t seed);

  /// Zero the policy (network + log-std tail) and critic gradients.
  void zero_grad();

  /// One batched critic pass over a non-empty worker stream: values[t] =
  /// V(s_t) and boots[t] = V(s_{t+1}) — values[t+1] inside an episode, a
  /// critic evaluation of next_obs at a truncation or the stream end, 0
  /// after a terminal. Leaves the stream's observation rows in
  /// stream_obs_. Returns the critic evaluations the cost model charges.
  double evaluate_stream(const std::vector<Transition>& stream,
                         std::vector<double>& values,
                         std::vector<double>& boots);

  /// Clip each network's gradient norm, then step both optimizers.
  void clip_and_step(double max_grad_norm);

  std::size_t obs_dim_;
  Rng rng_;
  nn::Mlp critic_;
  std::unique_ptr<nn::Adam> policy_opt_, critic_opt_;
  Matrix stream_obs_;  ///< observation rows of the last evaluate_stream

 private:
  Matrix boot_obs_;
  std::vector<std::size_t> boot_idx_;
};

}  // namespace darl::rl
