// perfbench/src/tests.cpp
//
// Self-tests of the benchmark's own logic (workloads.hpp): seeded inputs
// repeat, seeds change draws but never the mix of work, the percentile
// summary, and that the correctness checks catch a perturbed trial record,
// training result or served action. run.py runs this binary after every
// build and refuses to report if it fails.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "darl/core/airdrop_study.hpp"
#include "darl/serve/policy_store.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = darl::core;

int g_failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

std::string describe(const std::vector<core::LearningConfiguration>& configs) {
  std::string out;
  for (const auto& c : configs) out += c.describe() + ";";
  return out;
}

bool same_schedule(const std::vector<std::vector<Arrival>>& a,
                   const std::vector<std::vector<Arrival>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].size() != b[g].size()) return false;
    for (std::size_t i = 0; i < a[g].size(); ++i) {
      if (a[g][i].at_s != b[g][i].at_s || a[g][i].obs_index != b[g][i].obs_index) {
        return false;
      }
    }
  }
  return true;
}

void test_same_seed_same_inputs() {
  const ServeParams params;
  EXPECT(same_schedule(make_schedule(7, params, 1.0), make_schedule(7, params, 1.0)));
  EXPECT(make_observations(7, 32, 64) == make_observations(7, 32, 64));
  EXPECT(serving_spec(7).net_params == serving_spec(7).net_params);
  for (Workload w : {Workload::CampaignSac, Workload::CampaignPpoDist}) {
    EXPECT(describe(campaign_configs(w)) == describe(campaign_configs(w)));
  }
}

void test_seed_changes_draws_not_mix() {
  const ServeParams params;
  const auto a = make_schedule(1, params, 2.0);
  const auto b = make_schedule(2, params, 2.0);
  EXPECT(!same_schedule(a, b));
  EXPECT(a.size() == params.generators && b.size() == params.generators);
  EXPECT(make_observations(1, 32, 64) != make_observations(2, 32, 64));
  EXPECT(serving_spec(1).net_params != serving_spec(2).net_params);
  EXPECT(serving_spec(1).sizes == serving_spec(2).sizes);
  // The trial list takes no seed at all; the per-trial training seeds do.
  EXPECT(campaign_configs(Workload::CampaignSac).size() == 3);
  EXPECT(campaign_configs(Workload::CampaignPpoDist).size() == 3);
  EXPECT(campaign_configs(Workload::ServePoisson).empty());
  EXPECT(rep_seed(1, 0) != rep_seed(2, 0));
}

void test_schedule_shape() {
  ServeParams params;
  const double window = 10.0;
  const auto schedule = make_schedule(3, params, window);
  std::size_t total = 0;
  for (const auto& gen : schedule) {
    double last = 0.0;
    for (const Arrival& a : gen) {
      EXPECT(a.at_s > last && a.at_s < window);
      EXPECT(a.obs_index < params.obs_pool);
      last = a.at_s;
    }
    total += gen.size();
  }
  // Poisson count at 60000 expected arrivals: +-3% is > 7 sigma.
  const double expected = params.rate_per_s * window;
  EXPECT(std::abs(static_cast<double>(total) - expected) < 0.03 * expected);
}

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 100; i >= 0; --i) xs.push_back(i);  // 0..100, unsorted
  const Summary s = summarize(xs);
  EXPECT(s.count == 101);
  EXPECT(s.p50 == 50.0 && s.p90 == 90.0 && s.p99 == 99.0);
  EXPECT(std::abs(s.p999 - 99.9) < 1e-9);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(median({5.0}) == 5.0);

  // Per-second slices: one slow second moves its own slice only.
  std::vector<double> at;
  std::vector<double> lat;
  for (int i = 0; i < 300; ++i) {
    at.push_back(i * 0.01);  // 3 s of arrivals
    lat.push_back(i >= 100 && i < 200 ? 1000.0 : 10.0);
  }
  const auto slices = slice_summaries(at, lat, 1.0);
  EXPECT(slices.size() == 3);
  EXPECT(slices[0].p50 == 10.0 && slices[1].p50 == 1000.0 && slices[2].p50 == 10.0);
  EXPECT(slices[0].count == 100 && slices[2].count == 100);
}

core::TrialRecord good_trial(const core::CaseStudyDef& def) {
  core::TrialRecord t;
  t.config = campaign_configs(Workload::CampaignSac).front();
  for (const auto& m : def.metrics.defs()) t.metrics[m.name] = 1.25;
  return t;
}

void test_trial_checks() {
  const auto def = core::make_airdrop_case_study();
  const std::vector<core::TrialRecord> good{good_trial(def)};
  EXPECT(check_trials(def, good).empty());

  auto failed = good;
  failed[0].status = core::TrialStatus::Failed;
  failed[0].error = "boom";
  EXPECT(!check_trials(def, failed).empty());

  auto nan = good;
  nan[0].metrics["Reward"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT(!check_trials(def, nan).empty());

  auto missing = good;
  missing[0].metrics.erase("PowerConsumption");
  EXPECT(!check_trials(def, missing).empty());

  // One ulp in one metric changes the digest; wall-clock diagnostics don't.
  auto ulp = good;
  ulp[0].metrics["Reward"] = std::nextafter(1.25, 2.0);
  EXPECT(trial_table_digest(def, ulp) != trial_table_digest(def, good));
  auto wall = good;
  wall[0].metrics["WallSeconds"] = 99.0;
  wall[0].wall_seconds = 99.0;
  EXPECT(trial_table_digest(def, wall) == trial_table_digest(def, good));
}

void test_train_result_compare() {
  darl::frameworks::TrainResult a;
  a.reward = -0.5;
  a.iterations = 4;
  a.final_policy = {0.1, 0.2, 0.3};
  a.wall_seconds = 1.0;
  auto b = a;
  b.wall_seconds = 2.0;  // host time is not part of the contract
  EXPECT(compare_train_results(a, b).empty());
  b.final_policy[2] = std::nextafter(0.3, 1.0);
  EXPECT(!compare_train_results(a, b).empty());
  auto c = a;
  c.iterations = 5;
  EXPECT(!compare_train_results(a, c).empty());
}

void test_served_checks() {
  const std::vector<darl::Vec> expected{{3.0}, {7.0}};
  std::vector<ServedRecord> records{{0, darl::serve::Outcome::Ok, {3.0}},
                                    {1, darl::serve::Outcome::Ok, {7.0}},
                                    {1, darl::serve::Outcome::RejectedFull, {}}};
  EXPECT(check_served(expected, records).empty());
  records[1].action[0] = 6.0;
  EXPECT(!check_served(expected, records).empty());
  records[1].action = {7.0, 0.0};
  EXPECT(!check_served(expected, records).empty());
  records[1] = {9, darl::serve::Outcome::Ok, {7.0}};
  EXPECT(!check_served(expected, records).empty());
}

}  // namespace

int main() {
  test_same_seed_same_inputs();
  test_seed_changes_draws_not_mix();
  test_schedule_shape();
  test_percentiles();
  test_trial_checks();
  test_train_result_compare();
  test_served_checks();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_tests: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
