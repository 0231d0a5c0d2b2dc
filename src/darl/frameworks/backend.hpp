// darl/frameworks/backend.hpp
//
// The framework-backend interface and the three backends mirroring the
// architectures the paper attributes to Ray RLlib, Stable Baselines and
// TF-Agents. All of them run one iteration engine (BackendBase::run_engine:
// sync → collect → ship → learn) executing real training (threads,
// environments, neural updates) while replaying the coordination structure
// against the simulated cluster for the time/energy metrics. The
// frameworks differ only in constants the engine derives from the
// FrameworkKind and the deployment (IterationPlan).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "darl/frameworks/costs.hpp"
#include "darl/frameworks/types.hpp"
#include "darl/frameworks/worker.hpp"
#include "darl/simcluster/cluster.hpp"

namespace darl::frameworks {

/// A training-framework backend: runs one TrainRequest end to end.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual FrameworkKind kind() const = 0;
  const char* name() const { return framework_name(kind()); }

  /// Execute the training job. Throws darl::InvalidArgument when the
  /// deployment is not supported by this framework (e.g. multi-node
  /// Stable Baselines — the paper's frameworks differ exactly here).
  virtual TrainResult run(const TrainRequest& request) = 0;
};

/// How one training job is sized and placed. Every field is derived from
/// the FrameworkKind and the request; none is a knob.
struct IterationPlan {
  std::size_t nodes = 1;
  std::size_t cores = 1;      ///< workers per node
  std::size_t workers = 1;    ///< nodes * cores, global ids 0..workers-1
  /// Transitions each worker collects per iteration: train_batch_total /
  /// workers for RLlib and TF-Agents, steps_per_env for Stable Baselines.
  std::size_t per_worker = 1;
  /// Stable Baselines runs inference batched on the driver: worker loads
  /// carry env stepping only and inference is charged on one core.
  bool batched_inference = false;
  std::size_t obs_dim = 0;
  env::ActionSpace action_space;

  std::size_t node_of(std::size_t worker) const { return worker / cores; }

  /// Parameter version node `node` acts on at iteration t. Single node:
  /// v_t. Multi-node (asynchronous broadcast through the object store):
  /// node 0 acts on v_{t-1}, remote nodes on v_{t-2}, and remote batches
  /// are consumed one iteration late.
  std::uint64_t version_for(std::size_t node, std::uint64_t t) const {
    const std::uint64_t lag = nodes == 1 ? 0 : node == 0 ? 1 : 2;
    return t >= lag ? t - lag : 0;
  }
};

/// The engine's view of node >= 1 workers that live outside this process
/// (DistributedRllibBackend's actor fleet). The engine keeps the schedule —
/// versions, staleness, consumption order, simulated cost — and the
/// transport only moves parameters out and records in.
class RemoteNodes {
 public:
  virtual ~RemoteNodes() = default;
  /// Called once, after the environment probe and before iteration 0.
  virtual void start(const IterationPlan& plan) = 0;
  /// A new parameter version: v0 before iteration 0, then one per update.
  virtual void publish(const Vec& params) = 0;
  /// Hand every remote node parameter version `version` for this
  /// iteration's collection.
  virtual void ship(std::uint64_t version) = 0;
  /// This iteration's records from every remote worker, in any order.
  virtual std::vector<BatchRecord> gather() = 0;
  /// Called once after the last iteration, before the final evaluation.
  virtual void finish() = 0;
};

/// Shared machinery of the backends: the iteration engine.
class BackendBase : public Backend {
 public:
  /// The in-process run: every worker on a thread of this process.
  TrainResult run(const TrainRequest& request) override;

 protected:
  explicit BackendBase(BackendCosts costs) : costs_(costs) {}

  /// The iteration engine. With `remote`, only node 0's workers run here;
  /// the rest arrive as records through the transport.
  TrainResult run_engine(const TrainRequest& request, RemoteNodes* remote) const;

 private:
  /// Convert one worker's collection cost into simulated busy core-seconds.
  double worker_busy_seconds(const CollectCost& cost,
                             double inference_mflop) const;

  BackendCosts costs_;
};

/// Ray-RLlib-style distributed actor/learner: one rollout worker per core
/// on every node, samples shipped to the learner on node 0, parameter
/// broadcasts to remote nodes. Remote workers act with an older policy
/// snapshot (asynchronous shipping), the mechanism behind the paper's
/// multi-node reward-reproducibility caveat. Supports 1..N nodes.
class RllibBackend final : public BackendBase {
 public:
  explicit RllibBackend(BackendCosts costs = default_costs(FrameworkKind::RayRllib));
  FrameworkKind kind() const override { return FrameworkKind::RayRllib; }
};

/// Stable-Baselines-style single-node vectorized training: one vectorized
/// environment per CPU core stepped in lockstep, batched inference on the
/// driver, learner update every `steps_per_env` steps — so the total batch
/// (and hence the update frequency per sample) scales with the core count.
class StableBaselinesBackend final : public BackendBase {
 public:
  explicit StableBaselinesBackend(
      BackendCosts costs = default_costs(FrameworkKind::StableBaselines));
  FrameworkKind kind() const override { return FrameworkKind::StableBaselines; }
};

/// TF-Agents-style single-node parallel driver: a fixed total collection
/// batch spread over per-core environment workers, batched inference, and
/// graph-compiled (cheap) learner updates.
class TfAgentsBackend final : public BackendBase {
 public:
  explicit TfAgentsBackend(
      BackendCosts costs = default_costs(FrameworkKind::TfAgents));
  FrameworkKind kind() const override { return FrameworkKind::TfAgents; }
};

/// Factory over FrameworkKind.
std::unique_ptr<Backend> make_backend(FrameworkKind kind);

/// Factory with explicit cost calibration (ablation benches).
std::unique_ptr<Backend> make_backend(FrameworkKind kind,
                                      const BackendCosts& costs);

}  // namespace darl::frameworks
