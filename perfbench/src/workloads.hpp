// perfbench/src/workloads.hpp
//
// The benchmark's fixed workload definitions and its pure logic: the trial
// lists and study options of the two campaigns, the serving policy, the
// seeded arrival schedule and observation pool of the open-loop serving
// workload, the percentile summary, and the correctness checks. Everything
// here is deterministic in its arguments, so tests/tests.cpp can pin it.
//
// A workload's seed changes only random draws (per-trial training seeds,
// arrival gaps, observations, policy weights); the trial list, policy shape
// and arrival process are fixed per workload, so a new seed never changes
// the mix of work.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "darl/core/airdrop_study.hpp"
#include "darl/core/study.hpp"
#include "darl/frameworks/types.hpp"
#include "darl/serve/batch_scheduler.hpp"
#include "darl/serve/policy_store.hpp"

namespace perfbench {

enum class Workload { CampaignSac, CampaignPpoDist, ServePoisson };

const char* workload_name(Workload workload);
std::optional<Workload> parse_workload(const std::string& name);
bool is_campaign(Workload workload);

// --- campaigns -------------------------------------------------------------

/// Training timesteps per trial: SAC trains 768 gradient steps after its
/// 512-step warm-up; PPO runs four iterations, so the distributed trial's
/// pipeline consumes delayed remote batches three times. Both are
/// multiples of every configuration's per-iteration transition count (512
/// or 1024), so the nominal count is exactly what the backends train.
inline constexpr std::size_t kSacTimesteps = 2048;
inline constexpr std::size_t kPpoTimesteps = 4096;
inline constexpr std::size_t kEvalEpisodes = 4;

/// The campaign's fixed trial list (empty for serving workloads).
std::vector<darl::core::LearningConfiguration> campaign_configs(Workload workload);

/// Study options of a campaign. `worker_bin` is the darl_worker actor
/// binary; campaign-ppo-dist runs its RLlib nodes=2 trial through it.
darl::core::AirdropStudyOptions campaign_options(Workload workload,
                                                 const std::string& worker_bin);

/// Environment timesteps one trial trains (all seeds of the trial).
std::size_t trial_timesteps(const darl::core::AirdropStudyOptions& options);

/// The TrainRequest the airdrop case study builds for `config` and one
/// training seed (mirrors make_airdrop_case_study; the benchmark checks
/// the mirror against the campaign's own trial metrics, so a drift shows
/// up as a failed check rather than a silently different replay).
darl::frameworks::TrainRequest trial_request(
    const darl::core::AirdropStudyOptions& options,
    const darl::core::LearningConfiguration& config, std::uint64_t seed);

/// The training seed of repetition `rep` of a trial evaluated with
/// `trial_seed` (the case study's per-seed split).
std::uint64_t rep_seed(std::uint64_t trial_seed, std::size_t rep);

/// Stable hex digest of a campaign's trial table: the declared-metric CSV
/// (write_trials_csv, max_digits10) — host wall-clock diagnostics are not
/// part of it, so it repeats exactly for a seed.
std::string trial_table_digest(const darl::core::CaseStudyDef& def,
                               const std::vector<darl::core::TrialRecord>& trials);

/// Problems with a campaign's trials: a trial that is not Ok, or a
/// declared metric that is missing or not finite. Empty when all is well.
std::vector<std::string> check_trials(
    const darl::core::CaseStudyDef& def,
    const std::vector<darl::core::TrialRecord>& trials);

/// Field-by-field bitwise comparison of two training results (wall-clock
/// diagnostics excluded). Empty when identical.
std::vector<std::string> compare_train_results(
    const darl::frameworks::TrainResult& a,
    const darl::frameworks::TrainResult& b);

// --- serving ---------------------------------------------------------------

struct ServeParams {
  std::size_t generators = 3;
  double rate_per_s = 6000.0;  ///< offered rate over all generators
  std::size_t max_batch = 32;
  double publish_interval_s = 0.5;
  std::size_t obs_pool = 1024;
  std::size_t obs_dim = 64;
};

/// The serving-scale policy {64,256,256,16}, tanh, argmax decode; the
/// weights are drawn from `seed`.
darl::serve::PolicySpec serving_spec(std::uint64_t seed);

/// `count` observations of `dim` uniform(-1, 1) draws from `seed`.
std::vector<darl::Vec> make_observations(std::uint64_t seed, std::size_t count,
                                         std::size_t dim);

/// One scheduled request: seconds after the window opens, and the
/// observation it sends.
struct Arrival {
  double at_s = 0.0;
  std::uint32_t obs_index = 0;
};

/// Per-generator Poisson arrival schedules covering [0, window_s): each
/// generator offers rate / generators requests per second.
std::vector<std::vector<Arrival>> make_schedule(std::uint64_t seed,
                                                const ServeParams& params,
                                                double window_s);

/// One served request as the generator saw it.
struct ServedRecord {
  std::uint32_t obs_index = 0;
  darl::serve::Outcome outcome = darl::serve::Outcome::Ok;
  darl::Vec action;
};

/// Problems with served actions: an Ok action that is not bitwise equal to
/// `expected[obs_index]` (the serve::DirectPolicy answer). Non-Ok requests
/// are failures, counted by the caller, not wrong answers.
std::vector<std::string> check_served(const std::vector<darl::Vec>& expected,
                                      const std::vector<ServedRecord>& records);

// --- statistics ------------------------------------------------------------

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Linear-interpolation percentiles (obs::percentile) of `samples`.
Summary summarize(const std::vector<double>& samples);

double median(const std::vector<double>& samples);

/// Summaries of `values` grouped by `at_s` into consecutive `slice_s`-long
/// slices (empty slices skipped).
std::vector<Summary> slice_summaries(const std::vector<double>& at_s,
                                     const std::vector<double>& values,
                                     double slice_s);

}  // namespace perfbench
