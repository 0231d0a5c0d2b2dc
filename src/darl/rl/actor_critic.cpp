#include "darl/rl/actor_critic.hpp"

#include <algorithm>

#include "darl/common/error.hpp"

namespace darl::rl {

ActorCritic::ActorCritic(AlgoKind kind, std::size_t obs_dim,
                         env::ActionSpace action_space,
                         const std::vector<std::size_t>& hidden,
                         double log_std_init, double learning_rate,
                         std::uint64_t seed)
    : Algorithm(Policy(PolicyDef(kind, std::move(action_space)), obs_dim,
                       hidden, Rng(seed).split(1), log_std_init)),
      obs_dim_(obs_dim),
      rng_(seed),
      critic_([&] {
        Rng init = rng_.split(2);
        return nn::Mlp(layer_sizes(obs_dim, hidden, 1), nn::Activation::Tanh,
                       init);
      }()) {
  DARL_CHECK(obs_dim > 0, "obs_dim must be positive");
  policy_opt_ = std::make_unique<nn::Adam>(policy_.param_refs(), learning_rate);
  critic_opt_ = std::make_unique<nn::Adam>(critic_.params(), learning_rate);
}

void ActorCritic::zero_grad() {
  policy_.zero_grad();
  critic_.zero_grad();
}

double ActorCritic::evaluate_stream(const std::vector<Transition>& stream,
                                    std::vector<double>& values,
                                    std::vector<double>& boots) {
  const std::size_t n = stream.size();
  values.resize(n);
  boots.assign(n, 0.0);
  stream_obs_.reshape(n, obs_dim_);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(stream[i].obs.begin(), stream[i].obs.end(), stream_obs_.row(i));
  }
  {
    const Matrix& v = critic_.evaluate_batch(stream_obs_);
    for (std::size_t i = 0; i < n; ++i) values[i] = v(i, 0);
  }
  // V(next_obs) is only needed at stream ends and truncations; inside an
  // episode it is values[i+1], which halves the critic evaluations.
  double evals = static_cast<double>(n);
  boot_idx_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && !stream[i].done()) {
      boots[i] = values[i + 1];
      continue;
    }
    if (!stream[i].terminated) boot_idx_.push_back(i);
    evals += 1.0;
  }
  if (!boot_idx_.empty()) {
    boot_obs_.reshape(boot_idx_.size(), obs_dim_);
    for (std::size_t k = 0; k < boot_idx_.size(); ++k) {
      const Vec& nobs = stream[boot_idx_[k]].next_obs;
      std::copy(nobs.begin(), nobs.end(), boot_obs_.row(k));
    }
    const Matrix& v = critic_.evaluate_batch(boot_obs_);
    for (std::size_t k = 0; k < boot_idx_.size(); ++k) {
      boots[boot_idx_[k]] = v(k, 0);
    }
  }
  return evals;
}

void ActorCritic::clip_and_step(double max_grad_norm) {
  nn::clip_grad_norm(policy_.param_refs(), max_grad_norm);
  nn::clip_grad_norm(critic_.params(), max_grad_norm);
  policy_opt_->step();
  critic_opt_->step();
}

}  // namespace darl::rl
