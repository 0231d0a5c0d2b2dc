#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "darl/airdrop/spec.hpp"
#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/core/report.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/obs/percentile.hpp"

namespace perfbench {

using darl::Rng;
using darl::Vec;
namespace core = darl::core;
namespace frameworks = darl::frameworks;

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::CampaignSac: return "campaign-sac";
    case Workload::CampaignPpoDist: return "campaign-ppo-dist";
    case Workload::ServePoisson: return "serve-poisson";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::CampaignSac, Workload::CampaignPpoDist,
                     Workload::ServePoisson}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

bool is_campaign(Workload workload) { return workload != Workload::ServePoisson; }

namespace {

core::LearningConfiguration make_config(std::int64_t rk, const char* framework,
                                        const char* algo, std::int64_t nodes,
                                        std::int64_t cores) {
  core::LearningConfiguration c;
  c.set(core::kParamRkOrder, rk);
  c.set(core::kParamFramework, std::string(framework));
  c.set(core::kParamAlgorithm, std::string(algo));
  c.set(core::kParamNodes, nodes);
  c.set(core::kParamCores, cores);
  return c;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

std::vector<core::LearningConfiguration> campaign_configs(Workload workload) {
  switch (workload) {
    case Workload::CampaignSac:
      // One single-node SAC trial per framework, spreading the RK order
      // (env cost) and the core count (worker/env-vector width).
      return {make_config(3, "RLlib", "SAC", 1, 2),
              make_config(5, "StableBaselines", "SAC", 1, 4),
              make_config(8, "TF-Agents", "SAC", 1, 2)};
    case Workload::CampaignPpoDist:
      // The RLlib trial runs multi-process (one spawned actor for node 1);
      // the two single-node trials use the costliest integrator.
      return {make_config(5, "RLlib", "PPO", 2, 2),
              make_config(8, "StableBaselines", "PPO", 1, 2),
              make_config(8, "TF-Agents", "PPO", 1, 4)};
    case Workload::ServePoisson:
      break;
  }
  return {};
}

core::AirdropStudyOptions campaign_options(Workload workload,
                                           const std::string& worker_bin) {
  core::AirdropStudyOptions options;
  options.total_timesteps =
      workload == Workload::CampaignSac ? kSacTimesteps : kPpoTimesteps;
  options.eval_episodes = kEvalEpisodes;
  options.seeds_per_trial = 1;
  if (workload == Workload::CampaignPpoDist) {
    options.distributed.enabled = true;
    options.distributed.worker_bin = worker_bin;
    // Loopback TCP on an ephemeral port: no socket file outside the tree.
    options.distributed.endpoint = "tcp:0";
  }
  return options;
}

std::size_t trial_timesteps(const core::AirdropStudyOptions& options) {
  return options.total_timesteps * std::max<std::size_t>(1, options.seeds_per_trial);
}

std::uint64_t rep_seed(std::uint64_t trial_seed, std::size_t rep) {
  return Rng(trial_seed).split(rep).seed();
}

frameworks::TrainRequest trial_request(const core::AirdropStudyOptions& options,
                                       const core::LearningConfiguration& config,
                                       std::uint64_t seed) {
  const std::string& fw_label = config.get_categorical(core::kParamFramework);
  const bool sac = config.get_categorical(core::kParamAlgorithm) == "SAC";

  darl::airdrop::AirdropConfig env_cfg = options.base_env;
  switch (config.get_integer(core::kParamRkOrder)) {
    case 3: env_cfg.rk_order = darl::ode::RkOrder::Order3; break;
    case 5: env_cfg.rk_order = darl::ode::RkOrder::Order5; break;
    case 8: env_cfg.rk_order = darl::ode::RkOrder::Order8; break;
    default: throw darl::InvalidArgument("unsupported rk_order");
  }
  env_cfg.action_mode = sac ? darl::airdrop::ActionMode::Continuous
                            : darl::airdrop::ActionMode::Discrete3;

  frameworks::TrainRequest request;
  request.env_factory = darl::airdrop::make_airdrop_factory(env_cfg);
  request.env_spec = darl::airdrop::encode_airdrop_spec(env_cfg);
  request.algo.kind = sac ? darl::rl::AlgoKind::SAC : darl::rl::AlgoKind::PPO;
  if (sac) {
    auto& s = request.algo.sac;
    s.batch_size = 64;
    s.updates_per_step = 0.5;
    s.warmup_steps = 512;
  } else {
    auto& p = request.algo.ppo;
    if (fw_label == "StableBaselines") {
      p.epochs = 10;
      p.minibatch_size = 64;
      p.entropy_coef = 0.0;
    } else if (fw_label == "RLlib") {
      p.epochs = 6;
      p.minibatch_size = 128;
      p.clip_epsilon = 0.3;
      p.learning_rate = 1e-4;
    } else {
      p.epochs = 8;
      p.minibatch_size = 64;
      p.learning_rate = 2e-4;
    }
  }
  request.deployment.nodes =
      fw_label == "RLlib"
          ? static_cast<std::size_t>(config.get_integer(core::kParamNodes))
          : 1;
  request.deployment.cores_per_node =
      static_cast<std::size_t>(config.get_integer(core::kParamCores));
  request.total_timesteps = options.total_timesteps;
  request.seed = seed;
  request.train_batch_total = options.train_batch_total;
  request.steps_per_env = options.steps_per_env;
  request.eval_episodes = options.eval_episodes;
  return request;
}

std::string trial_table_digest(const core::CaseStudyDef& def,
                               const std::vector<core::TrialRecord>& trials) {
  std::ostringstream csv;
  core::write_trials_csv(csv, def, trials);
  return hex64(darl::fnv1a64(csv.str()));
}

std::vector<std::string> check_trials(const core::CaseStudyDef& def,
                                      const std::vector<core::TrialRecord>& trials) {
  std::vector<std::string> problems;
  for (const auto& t : trials) {
    const std::string where = "trial " + std::to_string(t.id) + " [" +
                              t.config.describe() + "]";
    if (!t.ok()) {
      problems.push_back(where + " is " + core::trial_status_name(t.status) +
                         ": " + t.error);
      continue;
    }
    for (const auto& m : def.metrics.defs()) {
      const auto it = t.metrics.find(m.name);
      if (it == t.metrics.end()) {
        problems.push_back(where + " has no metric " + m.name);
      } else if (!std::isfinite(it->second)) {
        problems.push_back(where + " metric " + m.name + " is not finite");
      }
    }
  }
  return problems;
}

std::vector<std::string> compare_train_results(const frameworks::TrainResult& a,
                                               const frameworks::TrainResult& b) {
  std::vector<std::string> problems;
  const auto cmp = [&](const char* field, double x, double y) {
    if (!same_bits(x, y)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << field << " differs: " << x << " vs " << y;
      problems.push_back(msg.str());
    }
  };
  cmp("reward", a.reward, b.reward);
  cmp("sim_seconds", a.sim_seconds, b.sim_seconds);
  cmp("sim_energy_joules", a.sim_energy_joules, b.sim_energy_joules);
  cmp("reward_stddev", a.reward_stddev, b.reward_stddev);
  cmp("train_reward", a.train_reward, b.train_reward);
  cmp("net_staleness", a.net_staleness, b.net_staleness);
  cmp("final_policy_loss", a.final_policy_loss, b.final_policy_loss);
  cmp("final_value_loss", a.final_value_loss, b.final_value_loss);
  cmp("final_entropy", a.final_entropy, b.final_entropy);
  cmp("timesteps", static_cast<double>(a.timesteps), static_cast<double>(b.timesteps));
  cmp("episodes", static_cast<double>(a.episodes), static_cast<double>(b.episodes));
  cmp("iterations", static_cast<double>(a.iterations),
      static_cast<double>(b.iterations));
  if (a.final_policy.size() != b.final_policy.size()) {
    problems.push_back("final_policy sizes differ");
  } else {
    for (std::size_t i = 0; i < a.final_policy.size(); ++i) {
      if (!same_bits(a.final_policy[i], b.final_policy[i])) {
        problems.push_back("final_policy differs at " + std::to_string(i));
        break;
      }
    }
  }
  return problems;
}

darl::serve::PolicySpec serving_spec(std::uint64_t seed) {
  darl::serve::PolicySpec spec;
  spec.sizes = {64, 256, 256, 16};
  spec.activation = darl::nn::Activation::Tanh;
  Rng rng(Rng(seed).split(1).seed());
  darl::nn::Mlp net(spec.sizes, spec.activation, rng);
  spec.net_params = net.get_flat_params();
  spec.action_space = darl::env::ActionSpace(darl::env::DiscreteSpace(16));
  spec.decode = darl::serve::GreedyDecode::ArgmaxDiscrete;
  return spec;
}

std::vector<Vec> make_observations(std::uint64_t seed, std::size_t count,
                                   std::size_t dim) {
  Rng rng(Rng(seed).split(2).seed());
  std::vector<Vec> pool(count, Vec(dim));
  for (Vec& obs : pool) {
    for (double& v : obs) v = rng.uniform(-1.0, 1.0);
  }
  return pool;
}

std::vector<std::vector<Arrival>> make_schedule(std::uint64_t seed,
                                                const ServeParams& params,
                                                double window_s) {
  DARL_CHECK(params.generators > 0 && params.rate_per_s > 0.0,
             "serving needs generators and a positive rate");
  const double mean_gap_s =
      static_cast<double>(params.generators) / params.rate_per_s;
  std::vector<std::vector<Arrival>> schedule(params.generators);
  for (std::size_t g = 0; g < params.generators; ++g) {
    Rng rng(Rng(seed).split(100 + g).seed());
    // Exponential gaps: the memoryless (Poisson) process.
    double t = 0.0;
    while (true) {
      t += -std::log(std::max(1e-12, 1.0 - rng.uniform())) * mean_gap_s;
      if (t >= window_s) break;
      schedule[g].push_back(
          {t, static_cast<std::uint32_t>(rng.index(params.obs_pool))});
    }
  }
  return schedule;
}

std::vector<std::string> check_served(const std::vector<Vec>& expected,
                                      const std::vector<ServedRecord>& records) {
  std::vector<std::string> problems;
  std::size_t wrong = 0;
  for (const auto& r : records) {
    if (r.outcome != darl::serve::Outcome::Ok) continue;
    const bool same =
        r.obs_index < expected.size() &&
        r.action.size() == expected[r.obs_index].size() &&
        std::memcmp(r.action.data(), expected[r.obs_index].data(),
                    r.action.size() * sizeof(double)) == 0;
    if (!same && wrong++ == 0) {
      problems.push_back("served action for observation " +
                         std::to_string(r.obs_index) +
                         " differs from serve::DirectPolicy");
    }
  }
  if (wrong > 1) {
    problems.push_back(std::to_string(wrong) + " served actions differ in total");
  }
  return problems;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = darl::obs::percentile(samples, 50.0);
  s.p90 = darl::obs::percentile(samples, 90.0);
  s.p99 = darl::obs::percentile(samples, 99.0);
  s.p999 = darl::obs::percentile(samples, 99.9);
  return s;
}

double median(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : darl::obs::percentile(samples, 50.0);
}

std::vector<Summary> slice_summaries(const std::vector<double>& at_s,
                                     const std::vector<double>& values,
                                     double slice_s) {
  DARL_CHECK(at_s.size() == values.size() && slice_s > 0.0,
             "slice_summaries: mismatched samples or slice length");
  std::vector<std::vector<double>> slices;
  for (std::size_t i = 0; i < at_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(std::max(0.0, at_s[i]) / slice_s);
    if (k >= slices.size()) slices.resize(k + 1);
    slices[k].push_back(values[i]);
  }
  std::vector<Summary> out;
  for (const auto& s : slices) {
    if (!s.empty()) out.push_back(summarize(s));
  }
  return out;
}

}  // namespace perfbench
