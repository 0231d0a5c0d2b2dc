#include "darl/env/wrappers.hpp"

#include "darl/common/error.hpp"

namespace darl::env {

EnvWrapper::EnvWrapper(std::unique_ptr<Env> inner) : inner_(std::move(inner)) {
  DARL_CHECK(inner_ != nullptr, "wrapping a null environment");
}

TimeLimit::TimeLimit(std::unique_ptr<Env> inner, std::size_t max_steps)
    : EnvWrapper(std::move(inner)), max_steps_(max_steps) {
  DARL_CHECK(max_steps > 0, "TimeLimit needs max_steps > 0");
}

Vec TimeLimit::reset() {
  steps_ = 0;
  return EnvWrapper::reset();
}

StepResult TimeLimit::step(const Vec& action) {
  StepResult r = EnvWrapper::step(action);
  ++steps_;
  if (!r.terminated && steps_ >= max_steps_) r.truncated = true;
  return r;
}

EpisodeMonitor::EpisodeMonitor(std::unique_ptr<Env> inner)
    : EnvWrapper(std::move(inner)) {}

Vec EpisodeMonitor::reset() {
  current_reward_ = 0.0;
  current_length_ = 0;
  return EnvWrapper::reset();
}

StepResult EpisodeMonitor::step(const Vec& action) {
  StepResult r = EnvWrapper::step(action);
  current_reward_ += r.reward;
  ++current_length_;
  if (r.done()) {
    const double score = inner().episode_score().value_or(current_reward_);
    episodes_.push_back(EpisodeRecord{current_reward_, score, current_length_});
    current_reward_ = 0.0;
    current_length_ = 0;
  }
  return r;
}

}  // namespace darl::env
