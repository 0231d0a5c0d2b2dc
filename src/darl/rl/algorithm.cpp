#include "darl/rl/algorithm.hpp"

#include "darl/rl/factory.hpp"

#include "darl/common/error.hpp"
#include "darl/rl/ppo.hpp"
#include "darl/rl/impala.hpp"
#include "darl/rl/sac.hpp"

namespace darl::rl {

ActOutput RolloutActor::act(const Vec& obs, Rng& rng) {
  const Vec head = policy_.net().evaluate(obs);
  return policy_.sample(head.data(), rng);
}

void RolloutActor::act_batch(const std::vector<Vec>& obs, Rng& rng,
                             std::vector<ActOutput>& out) {
  DARL_CHECK(out.size() == obs.size(),
             "act_batch: out has " << out.size() << " slots for "
                                   << obs.size() << " observations");
  if (obs.empty()) return;
  const nn::Mlp& net = policy_.net();
  obs_mat_.reshape(obs.size(), net.input_dim());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    std::copy(obs[i].begin(), obs[i].end(), obs_mat_.row(i));
  }
  const Matrix& heads = net.evaluate_batch(obs_mat_);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    out[i] = policy_.sample(heads.row(i), rng);
  }
}

Vec RolloutActor::act_greedy(const Vec& obs) {
  const Vec head = policy_.net().evaluate(obs);
  Vec action(policy_.def().action_space().action_dim());
  policy_.def().greedy(head.data(), action.data());
  return action;
}

const char* algo_name(AlgoKind kind) {
  switch (kind) {
    case AlgoKind::PPO: return "PPO";
    case AlgoKind::SAC: return "SAC";
    case AlgoKind::IMPALA: return "IMPALA";
  }
  return "???";
}

std::optional<AlgoKind> algo_from_name(std::string_view name) {
  for (const AlgoKind kind : {AlgoKind::PPO, AlgoKind::SAC, AlgoKind::IMPALA}) {
    if (name == algo_name(kind)) return kind;
  }
  return std::nullopt;
}

const std::vector<std::size_t>& AlgorithmSpec::hidden() const {
  switch (kind) {
    case AlgoKind::PPO: return ppo.hidden;
    case AlgoKind::SAC: return sac.hidden;
    case AlgoKind::IMPALA: return impala.hidden;
  }
  throw InvalidArgument("unknown AlgoKind");
}

std::unique_ptr<Algorithm> make_algorithm(const AlgorithmSpec& spec,
                                          std::size_t obs_dim,
                                          const env::ActionSpace& action_space,
                                          std::uint64_t seed) {
  switch (spec.kind) {
    case AlgoKind::PPO:
      return std::make_unique<PpoAlgorithm>(obs_dim, action_space, spec.ppo,
                                            seed);
    case AlgoKind::SAC:
      return std::make_unique<SacAlgorithm>(obs_dim, action_space, spec.sac,
                                            seed);
    case AlgoKind::IMPALA:
      return std::make_unique<ImpalaAlgorithm>(obs_dim, action_space,
                                               spec.impala, seed);
  }
  throw InvalidArgument("unknown AlgoKind");
}

}  // namespace darl::rl
