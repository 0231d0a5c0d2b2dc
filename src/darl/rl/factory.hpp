// darl/rl/factory.hpp
//
// One-stop construction of a learning algorithm from a declarative spec —
// the handle the methodology's "learning configuration" stage uses to turn
// an algorithm-parameter choice into a learner.

#pragma once

#include <memory>

#include "darl/rl/algorithm.hpp"
#include "darl/rl/ppo.hpp"
#include "darl/rl/impala.hpp"
#include "darl/rl/sac.hpp"

namespace darl::rl {

/// Declarative algorithm choice plus per-algorithm hyperparameters (only
/// the block matching `kind` is read).
struct AlgorithmSpec {
  AlgoKind kind = AlgoKind::PPO;
  PpoConfig ppo;
  SacConfig sac;
  ImpalaConfig impala;

  /// Hidden layer sizes of the chosen algorithm's networks.
  const std::vector<std::size_t>& hidden() const;
};

/// Instantiate the learner for an observation/action interface.
std::unique_ptr<Algorithm> make_algorithm(const AlgorithmSpec& spec,
                                          std::size_t obs_dim,
                                          const env::ActionSpace& action_space,
                                          std::uint64_t seed);

}  // namespace darl::rl
