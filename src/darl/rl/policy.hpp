// darl/rl/policy.hpp
//
// The one definition of a policy network, shared by the learners, the
// rollout actors and the serving fleet. PolicyDef holds every decision that
// does not depend on the weights: the layer sizes, the activation, the head
// width, the state-independent log-std tail, and the head math that turns
// one network output row into an action (sample + log-prob, greedy mode,
// SAC's mean / soft-clamped log-std split). Policy adds the weights: the
// network and its tail, plus the score-function head gradient PPO and
// IMPALA train through.

#pragma once

#include <vector>

#include "darl/common/rng.hpp"
#include "darl/env/space.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/rl/types.hpp"

namespace darl::rl {

/// Default soft bounds of SAC's state-dependent log-std head.
inline constexpr double kSacLogStdMin = -5.0;
inline constexpr double kSacLogStdMax = 2.0;

/// The policy-head families, each named by its greedy decision.
enum class HeadKind {
  ArgmaxDiscrete,   ///< Categorical logits over a Discrete space (PPO/IMPALA)
  ClipBox,          ///< DiagGaussian mean, state-independent log-std tail,
                    ///< mode clipped into the Box (PPO/IMPALA)
  SquashedMeanBox,  ///< [mean, raw log-std], tanh-squashed Gaussian scaled
                    ///< into the Box (SAC)
};

/// Layer sizes {in, hidden..., out} of a fully connected network.
std::vector<std::size_t> layer_sizes(std::size_t in,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t out);

/// Greedy action (env encoding) of one head row into
/// out[0, space.action_dim()). Deterministic per-element math: no
/// allocation, no rng, safe from any thread.
void greedy_action(HeadKind head, const env::ActionSpace& space,
                   const double* row, double* out);

/// Everything about an algorithm's policy network except its weights.
/// Cheap to copy; every member is const.
class PolicyDef {
 public:
  /// Throws InvalidArgument for SAC on a Discrete space. The log-std
  /// bounds are read by the SAC head only.
  PolicyDef(AlgoKind algo, env::ActionSpace space,
            double log_std_min = kSacLogStdMin,
            double log_std_max = kSacLogStdMax);

  HeadKind head() const { return head_; }
  const env::ActionSpace& action_space() const { return space_; }
  /// Hidden activation: ReLU for SAC, Tanh for PPO/IMPALA.
  nn::Activation activation() const;
  /// Width of one network output row.
  std::size_t width() const;
  /// Trailing non-network parameters (the PPO/IMPALA Box log-std).
  std::size_t tail_size() const;
  /// Network layer sizes for an observation width and hidden sizes.
  std::vector<std::size_t> layer_sizes(
      std::size_t obs_dim, const std::vector<std::size_t>& hidden) const;

  void greedy(const double* row, double* out) const {
    greedy_action(head_, space_, row, out);
  }

  /// SAC: split a head row into its mean and softly clamped log-std.
  void split(const double* row, Vec& mean, Vec& log_std) const;
  /// SAC: d log_std / d raw of the soft clamp, at raw head value `raw`.
  double log_std_clamp_grad(double raw) const;

 private:
  HeadKind head_;
  env::ActionSpace space_;
  double log_std_min_, log_std_max_;
};

/// A policy: its definition, network and log-std tail. The learners train
/// one, each rollout actor acts with a copy. Not thread-safe (the network
/// and the head scratch are per-instance).
class Policy {
 public:
  /// Initialize the network from `init`; a log-std tail starts at
  /// `log_std_init`.
  Policy(PolicyDef def, std::size_t obs_dim,
         const std::vector<std::size_t>& hidden, Rng init,
         double log_std_init = 0.0);

  const PolicyDef& def() const { return def_; }
  nn::Mlp& net() { return net_; }
  const nn::Mlp& net() const { return net_; }

  /// Flat snapshot: network parameters, then the tail.
  Vec params() const;
  std::size_t param_count() const { return net_.param_count() + log_std_.size(); }
  /// Load a snapshot produced by params(); throws InvalidArgument on a
  /// size mismatch.
  void set_params(const Vec& flat);
  /// Adam's view: the network's buffers, then the tail.
  std::vector<nn::ParamRef> param_refs();
  void zero_grad();

  /// Sample an action (env encoding) and its log-probability from one
  /// head row. The log-probability refers to the unclipped draw for the
  /// Box head (the clip is part of the environment interface).
  ActOutput sample(const double* row, Rng& rng);

  /// PPO/IMPALA heads: log pi(action | row), and the entropy.
  double log_prob(const double* row, const Vec& action);
  double entropy(const double* row);

  /// PPO/IMPALA heads: the gradient of scale * (L - entropy_coef * H),
  /// where dL/dlog_pi(action) = d_logp, written to d_row[0, width) and
  /// accumulated into the tail's gradient.
  void score_grad(const double* row, const Vec& action, double d_logp,
                  double entropy_coef, double scale, double* d_row);

 private:
  const Vec& load_row(const double* row);

  PolicyDef def_;
  nn::Mlp net_;
  Vec log_std_, log_std_grad_;
  Vec row_, mean_, draw_log_std_, d_mean_, d_log_std_;  // head scratch
};

}  // namespace darl::rl
