// darl/frameworks/worker.hpp
//
// A rollout worker: one private environment instance plus an inference-only
// policy copy and a private random stream. Workers are the unit every
// backend parallelizes over; because each worker is self-contained, running
// them on real threads is deterministic regardless of scheduling.

#pragma once

#include <memory>

#include "darl/common/rng.hpp"
#include "darl/env/wrappers.hpp"
#include "darl/rl/algorithm.hpp"

namespace darl::frameworks {

/// Costs a worker accumulated while collecting (simulated units).
struct CollectCost {
  double env_cost_units = 0.0;  ///< env-internal compute (ODE RHS evals)
  std::size_t inferences = 0;   ///< policy forward passes
  std::size_t steps = 0;        ///< environment steps taken
};

/// One worker's contribution to one iteration — the single record the
/// iteration engine consumes, whether a thread in the learner's process
/// collected it or an actor process shipped it over the wire.
struct BatchRecord {
  rl::WorkerBatch batch;     ///< global worker id + transitions
  std::size_t node = 0;      ///< node the worker runs on
  std::uint64_t version = 0; ///< parameter version the worker acted with
  CollectCost cost;          ///< drained collection cost of this batch
  /// Episodes finished since the worker's previous record.
  std::vector<env::EpisodeRecord> new_episodes;
};

/// One rollout worker. Not thread-safe; exactly one thread may drive it at
/// a time (different workers may run concurrently).
class RolloutWorker {
 public:
  /// `env` is wrapped in an EpisodeMonitor internally. `actor` must come
  /// from the Algorithm this worker feeds.
  RolloutWorker(std::size_t id, std::unique_ptr<env::Env> env,
                std::unique_ptr<rl::RolloutActor> actor, std::uint64_t seed);

  /// Refresh the worker's policy snapshot.
  void sync(const Vec& params);

  /// Collect exactly `n_steps` transitions (crossing episode boundaries
  /// with auto-reset). Returns the batch; costs accumulate until take_cost().
  rl::WorkerBatch collect(std::size_t n_steps);

  /// collect(n_steps), then drain the cost and the episodes finished since
  /// the previous record into one BatchRecord tagged with `node` and the
  /// parameter `version` the worker currently holds.
  BatchRecord collect_record(std::size_t n_steps, std::size_t node,
                             std::uint64_t version);

  /// Drain the accumulated collection cost counters.
  CollectCost take_cost();

  /// Episode records observed so far (score = paper Reward metric).
  const std::vector<env::EpisodeRecord>& episodes() const;

  std::size_t id() const { return id_; }

 private:
  std::size_t id_;
  std::unique_ptr<env::EpisodeMonitor> env_;
  std::unique_ptr<rl::RolloutActor> actor_;
  Rng rng_;
  Vec obs_;
  bool started_ = false;
  CollectCost cost_;
  std::size_t episodes_recorded_ = 0;  // episodes already in a BatchRecord
};

/// Workers with global ids first..first+n-1, worker i seeded from
/// Rng(seed).split(100 + i): a worker's stream does not depend on the
/// process that hosts it.
std::vector<std::unique_ptr<RolloutWorker>> make_workers(
    const env::EnvFactory& factory, const rl::Algorithm& algo,
    std::uint64_t seed, std::size_t first, std::size_t n);

}  // namespace darl::frameworks
