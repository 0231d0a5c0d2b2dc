#include "darl/frameworks/worker.hpp"

#include "darl/common/error.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/obs/trace.hpp"

namespace darl::frameworks {

RolloutWorker::RolloutWorker(std::size_t id, std::unique_ptr<env::Env> env,
                             std::unique_ptr<rl::RolloutActor> actor,
                             std::uint64_t seed)
    : id_(id), actor_(std::move(actor)), rng_(seed) {
  DARL_CHECK(env != nullptr, "worker got a null environment");
  DARL_CHECK(actor_ != nullptr, "worker got a null actor");
  env->seed(Rng(seed).split(0xE57).seed());
  env_ = std::make_unique<env::EpisodeMonitor>(std::move(env));
}

void RolloutWorker::sync(const Vec& params) { actor_->set_params(params); }

rl::WorkerBatch RolloutWorker::collect(std::size_t n_steps) {
  DARL_SPAN_V("worker.collect", "worker", id_);
  rl::WorkerBatch batch;
  batch.worker_id = id_;
  batch.transitions.reserve(n_steps);

  if (!started_) {
    obs_ = env_->reset();
    started_ = true;
  }
  for (std::size_t i = 0; i < n_steps; ++i) {
    const rl::ActOutput act = actor_->act(obs_, rng_);
    ++cost_.inferences;
    const env::StepResult r = env_->step(act.action);
    ++cost_.steps;

    rl::Transition tr;
    tr.obs = obs_;
    tr.action = act.action;
    tr.reward = r.reward;
    tr.next_obs = r.observation;
    tr.terminated = r.terminated;
    tr.truncated = r.truncated;
    tr.log_prob = act.log_prob;
    batch.transitions.push_back(std::move(tr));

    if (r.done()) {
      obs_ = env_->reset();
    } else {
      obs_ = r.observation;
    }
  }
  const double env_cost = env_->take_compute_cost();
  cost_.env_cost_units += env_cost;
  // Surface the collection cost into the process-wide registry (the
  // CollectCost struct itself stays backend-internal).
  DARL_COUNTER_ADD("worker.steps", n_steps);
  DARL_COUNTER_ADD("worker.inferences", n_steps);
  DARL_GAUGE_ADD("worker.env_cost_units", env_cost);
  return batch;
}

BatchRecord RolloutWorker::collect_record(std::size_t n_steps,
                                          std::size_t node,
                                          std::uint64_t version) {
  BatchRecord rec;
  rec.batch = collect(n_steps);
  rec.node = node;
  rec.version = version;
  rec.cost = take_cost();
  const auto& eps = episodes();
  rec.new_episodes.assign(
      eps.begin() + static_cast<std::ptrdiff_t>(episodes_recorded_), eps.end());
  episodes_recorded_ = eps.size();
  return rec;
}

CollectCost RolloutWorker::take_cost() {
  CollectCost c = cost_;
  cost_ = CollectCost{};
  return c;
}

const std::vector<env::EpisodeRecord>& RolloutWorker::episodes() const {
  return env_->episodes();
}

std::vector<std::unique_ptr<RolloutWorker>> make_workers(
    const env::EnvFactory& factory, const rl::Algorithm& algo,
    std::uint64_t seed, std::size_t first, std::size_t n) {
  const Rng seeder(seed);
  std::vector<std::unique_ptr<RolloutWorker>> workers;
  workers.reserve(n);
  for (std::size_t i = first; i < first + n; ++i) {
    auto e = factory();
    DARL_CHECK(e != nullptr, "env factory returned null");
    workers.push_back(std::make_unique<RolloutWorker>(
        i, std::move(e), algo.make_actor(), seeder.split(100 + i).seed()));
  }
  return workers;
}

}  // namespace darl::frameworks
