#include "darl/rl/policy.hpp"

#include <algorithm>
#include <cmath>

#include "darl/common/error.hpp"
#include "darl/nn/distributions.hpp"

namespace darl::rl {

std::vector<std::size_t> layer_sizes(std::size_t in,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

void greedy_action(HeadKind head, const env::ActionSpace& space,
                   const double* row, double* out) {
  switch (head) {
    case HeadKind::ArgmaxDiscrete: {
      // Stable softmax, then the *first* largest probability wins. The
      // probabilities are computed scalar by scalar in the same order as
      // nn::Categorical::softmax, without allocating a vector for them.
      const std::size_t n = space.discrete().n();
      double m = row[0];
      for (std::size_t i = 1; i < n; ++i) m = std::max(m, row[i]);
      double z = 0.0;
      for (std::size_t i = 0; i < n; ++i) z += std::exp(row[i] - m);
      std::size_t best = 0;
      double best_p = std::exp(row[0] - m) / z;
      for (std::size_t i = 1; i < n; ++i) {
        const double p = std::exp(row[i] - m) / z;
        if (p > best_p) {
          best = i;
          best_p = p;
        }
      }
      out[0] = static_cast<double>(best);
      return;
    }
    case HeadKind::ClipBox: {
      const env::BoxSpace& box = space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) {
        out[i] = std::clamp(row[i], box.low()[i], box.high()[i]);
      }
      return;
    }
    case HeadKind::SquashedMeanBox: {
      // tanh of the mean half, affinely scaled from [-1, 1] into the box.
      const env::BoxSpace& box = space.box();
      for (std::size_t i = 0; i < box.dim(); ++i) {
        const double squashed = std::tanh(row[i]);
        out[i] = box.low()[i] +
                 0.5 * (squashed + 1.0) * (box.high()[i] - box.low()[i]);
      }
      return;
    }
  }
}

PolicyDef::PolicyDef(AlgoKind algo, env::ActionSpace space,
                     double log_std_min, double log_std_max)
    : head_(HeadKind::ArgmaxDiscrete),
      space_(std::move(space)),
      log_std_min_(log_std_min),
      log_std_max_(log_std_max) {
  if (algo == AlgoKind::SAC) {
    DARL_CHECK(space_.is_box(), "SAC requires a continuous action space, got "
                                    << space_.describe());
    head_ = HeadKind::SquashedMeanBox;
  } else if (space_.is_box()) {
    head_ = HeadKind::ClipBox;
  }
}

nn::Activation PolicyDef::activation() const {
  return head_ == HeadKind::SquashedMeanBox ? nn::Activation::ReLU
                                            : nn::Activation::Tanh;
}

std::size_t PolicyDef::width() const {
  switch (head_) {
    case HeadKind::ArgmaxDiscrete: return space_.discrete().n();
    case HeadKind::ClipBox: return space_.box().dim();
    case HeadKind::SquashedMeanBox: return 2 * space_.box().dim();
  }
  return 0;
}

std::size_t PolicyDef::tail_size() const {
  return head_ == HeadKind::ClipBox ? space_.box().dim() : 0;
}

std::vector<std::size_t> PolicyDef::layer_sizes(
    std::size_t obs_dim, const std::vector<std::size_t>& hidden) const {
  return rl::layer_sizes(obs_dim, hidden, width());
}

void PolicyDef::split(const double* row, Vec& mean, Vec& log_std) const {
  const std::size_t d = space_.box().dim();
  mean.assign(row, row + d);
  log_std.resize(d);
  for (std::size_t i = 0; i < d; ++i) {
    log_std[i] = log_std_min_ + 0.5 * (log_std_max_ - log_std_min_) *
                                    (std::tanh(row[d + i]) + 1.0);
  }
}

double PolicyDef::log_std_clamp_grad(double raw) const {
  const double t = std::tanh(raw);
  return 0.5 * (log_std_max_ - log_std_min_) * (1.0 - t * t);
}

Policy::Policy(PolicyDef def, std::size_t obs_dim,
               const std::vector<std::size_t>& hidden, Rng init,
               double log_std_init)
    : def_(std::move(def)),
      net_(def_.layer_sizes(obs_dim, hidden), def_.activation(), init),
      log_std_(def_.tail_size(), log_std_init),
      log_std_grad_(def_.tail_size(), 0.0) {}

Vec Policy::params() const {
  Vec flat = net_.get_flat_params();
  flat.insert(flat.end(), log_std_.begin(), log_std_.end());
  return flat;
}

void Policy::set_params(const Vec& flat) {
  DARL_CHECK(flat.size() == param_count(),
             "policy snapshot has " << flat.size() << " values, expected "
                                    << param_count());
  if (log_std_.empty()) {
    net_.set_flat_params(flat);
    return;
  }
  const auto net_end = flat.end() - static_cast<std::ptrdiff_t>(log_std_.size());
  net_.set_flat_params(Vec(flat.begin(), net_end));
  std::copy(net_end, flat.end(), log_std_.begin());
}

std::vector<nn::ParamRef> Policy::param_refs() {
  auto refs = net_.params();
  if (!log_std_.empty()) {
    refs.push_back(nn::ParamRef{&log_std_, &log_std_grad_, "log_std"});
  }
  return refs;
}

void Policy::zero_grad() {
  net_.zero_grad();
  std::fill(log_std_grad_.begin(), log_std_grad_.end(), 0.0);
}

const Vec& Policy::load_row(const double* row) {
  row_.assign(row, row + def_.width());
  return row_;
}

ActOutput Policy::sample(const double* row, Rng& rng) {
  const env::ActionSpace& space = def_.action_space();
  ActOutput out;
  switch (def_.head()) {
    case HeadKind::ArgmaxDiscrete: {
      const Vec& logits = load_row(row);
      const std::size_t a = nn::Categorical::sample(logits, rng);
      out.action = space.discrete().encode(a);
      out.log_prob = nn::Categorical::log_prob(logits, a);
      break;
    }
    case HeadKind::ClipBox: {
      const Vec& mean = load_row(row);
      const Vec raw = nn::DiagGaussian::sample(mean, log_std_, rng);
      out.log_prob = nn::DiagGaussian::log_prob(mean, log_std_, raw);
      out.action = space.box().clip(raw);
      break;
    }
    case HeadKind::SquashedMeanBox: {
      def_.split(row, mean_, draw_log_std_);
      const auto draw = nn::SquashedGaussian::sample(mean_, draw_log_std_, rng);
      // The draw's env action is the greedy map of its pre-tanh value.
      out.action.resize(draw.action.size());
      greedy_action(HeadKind::SquashedMeanBox, space, draw.pre_tanh.data(),
                    out.action.data());
      out.log_prob = draw.log_prob;
      break;
    }
  }
  return out;
}

double Policy::log_prob(const double* row, const Vec& action) {
  const Vec& head = load_row(row);
  if (def_.head() == HeadKind::ArgmaxDiscrete) {
    return nn::Categorical::log_prob(
        head, def_.action_space().discrete().decode(action));
  }
  DARL_ASSERT(def_.head() == HeadKind::ClipBox, "log_prob of a SAC head");
  return nn::DiagGaussian::log_prob(head, log_std_, action);
}

double Policy::entropy(const double* row) {
  if (def_.head() == HeadKind::ArgmaxDiscrete) {
    return nn::Categorical::entropy(load_row(row));
  }
  DARL_ASSERT(def_.head() == HeadKind::ClipBox, "entropy of a SAC head");
  return nn::DiagGaussian::entropy(log_std_);
}

void Policy::score_grad(const double* row, const Vec& action, double d_logp,
                        double entropy_coef, double scale, double* d_row) {
  const Vec& head = load_row(row);
  const std::size_t width = head.size();
  if (def_.head() == HeadKind::ArgmaxDiscrete) {
    const std::size_t a = def_.action_space().discrete().decode(action);
    const Vec g_logp = nn::Categorical::log_prob_grad(head, a);
    const Vec g_ent = nn::Categorical::entropy_grad(head);
    for (std::size_t i = 0; i < width; ++i) {
      d_row[i] = scale * (d_logp * g_logp[i] - entropy_coef * g_ent[i]);
    }
    return;
  }
  DARL_ASSERT(def_.head() == HeadKind::ClipBox, "score_grad of a SAC head");
  nn::DiagGaussian::log_prob_grad(head, log_std_, action, d_mean_, d_log_std_);
  for (std::size_t i = 0; i < width; ++i) {
    d_row[i] = scale * d_logp * d_mean_[i];
    // The Gaussian entropy is independent of the mean: the bonus flows
    // into log_std only (d entropy / d log_std = 1).
    log_std_grad_[i] += scale * (d_logp * d_log_std_[i] - entropy_coef);
  }
}

}  // namespace darl::rl
