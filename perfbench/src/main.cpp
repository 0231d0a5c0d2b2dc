// perfbench/src/main.cpp
//
// darl_perfbench: runs one benchmark workload against the darl libraries,
// checks its outputs, and prints one JSON line with every metric (the last
// line of stdout). perfbench/run.py builds this binary and turns that line
// into the benchmark's result. Human-readable diagnostics (per-workload
// names such as campaign_s or serve_p99_us) are printed above it.
//
//   darl_perfbench --workload campaign-sac|campaign-ppo-dist|serve-poisson
//                  --seed N --seconds S --trace 0|1 --worker-bin PATH
//
// --trace 0 measures the end-to-end metrics with every instrument off.
// --trace 1 alternates untraced and traced repetitions of the same work
// (metrics registry on, the benchmark's own timers around each layer's
// public entry points), replays one iteration of each layer at the
// workload's shapes, and prints the per-layer metrics plus the tracing
// overhead. A layer the workload does not exercise is measured on a short
// probe of the workload that does, so every per-layer metric has a value.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "darl/common/log.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/core/explorer.hpp"
#include "darl/core/ranking.hpp"
#include "darl/frameworks/backend.hpp"
#include "darl/frameworks/distributed.hpp"
#include "darl/frameworks/worker.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/linalg/thread_pool.hpp"
#include "darl/net/wire.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"
#include "darl/obs/metrics.hpp"
#include "darl/rl/checkpoint.hpp"
#include "darl/rl/evaluate.hpp"
#include "darl/rl/factory.hpp"
#include "darl/serve/router.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#else
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace perfbench;
using darl::Matrix;
using darl::Rng;
using darl::Stopwatch;
using darl::Vec;
namespace core = darl::core;
namespace frameworks = darl::frameworks;
namespace serve = darl::serve;
using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 3;

struct Args {
  Workload workload = Workload::CampaignSac;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_bin;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "darl_perfbench: %s\nusage: darl_perfbench --workload "
               "campaign-sac|campaign-ppo-dist|serve-poisson --seed N "
               "--seconds S --trace 0|1 --worker-bin PATH\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage(("unknown workload " + value).c_str());
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--worker-bin") {
      args.worker_bin = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.worker_bin.empty()) usage("--worker-bin is required");
  return args;
}

// --- result collection -----------------------------------------------------

/// Metrics, diagnostics and check failures of one run.
class Result {
 public:
  void metric(const std::string& name, double value) {
    metrics_[name] = value;
    print(name, value);
  }
  /// A diagnostic: printed for people, not part of the JSON metrics.
  void note(const std::string& name, double value) { print(name, value); }
  void error(const std::string& what) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    errors_.push_back(what);
  }
  void errors(const std::vector<std::string>& list) {
    for (const auto& e : list) error(e);
  }
  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::string json(const std::string& digest) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (errors_.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"digest\": \"" << digest << "\", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      out << (first ? "" : ", ") << '"' << name << "\": ";
      if (std::isfinite(value)) {
        out << value;
      } else {
        out << "null";
      }
      first = false;
    }
    out << "}}";
    return out.str();
  }

 private:
  static void print(const std::string& name, double value) {
    std::printf("  %-36s %.6g\n", name.c_str(), value);
  }
  std::map<std::string, double> metrics_;
  std::vector<std::string> errors_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Durations recorded around calls into a layer, by name (traced runs).
class Timings {
 public:
  void add(const std::string& name, double seconds) { samples_[name].push_back(seconds); }
  double mean(const std::string& name) const {
    const auto it = samples_.find(name);
    if (it == samples_.end() || it->second.empty()) return 0.0;
    double s = 0.0;
    for (double v : it->second) s += v;
    return s / static_cast<double>(it->second.size());
  }
  /// Time `fn` and record it under `name`.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    Stopwatch sw;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, sw.seconds());
    } else {
      auto out = fn();
      add(name, sw.seconds());
      return out;
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Sum of every registry counter called `name`, over all label sets.
double counter_total(const std::string& name) {
  const auto snap = darl::obs::Registry::global().snapshot();
  double total = 0.0;
  for (const auto& [key, value] : snap.counters) {
    const auto id = snap.ids.find(key);
    if (id != snap.ids.end() && id->second.name == name) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

// --- warm-up ---------------------------------------------------------------

/// Start the GEMM pool singleton and grow this thread's packing buffers to
/// the training and serving shapes, so the first timed call pays neither.
void warm_kernels() {
  darl::linalg::ThreadPool::instance();
  for (std::size_t rows : {1, 4, 64, 128}) {
    for (std::size_t inner : {64, 256}) {
      Matrix a(rows, inner, 0.5);
      Matrix b(inner, inner, 0.25);
      Matrix c(rows, inner, 0.0);
      Matrix::gemm(1.0, a, false, b, true, c);
      Matrix::gemm(1.0, a, false, b, false, c);
    }
  }
}

// --- campaigns -------------------------------------------------------------

struct TrialCall {
  core::LearningConfiguration config;
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  core::MetricValues metrics;
};

struct CampaignRep {
  double campaign_s = 0.0;
  bool ranked = false;  ///< every Ok trial got a rank and the front is non-empty
  std::vector<core::TrialRecord> trials;
  std::vector<TrialCall> calls;
  std::string digest;
};

/// One full Study run over the fixed trial list: trials (train + eval),
/// Pareto ranking and the trial-table digest, all inside the timed span.
/// `evaluate` is wrapped so each trial's wall time, seed and metrics are
/// recorded (core.trial_s; the seed feeds the bitwise re-run check).
CampaignRep run_campaign(const core::CaseStudyDef& base,
                         const std::vector<core::LearningConfiguration>& configs,
                         std::uint64_t seed) {
  CampaignRep rep;
  core::CaseStudyDef def = base;
  def.evaluate = [&rep, inner = base.evaluate](
                     const core::LearningConfiguration& config, double fraction,
                     std::uint64_t trial_seed) {
    Stopwatch sw;
    core::MetricValues metrics = inner(config, fraction, trial_seed);
    rep.calls.push_back({config, trial_seed, sw.seconds(), metrics});
    return metrics;
  };
  Stopwatch wall;
  core::Study study(def, std::make_unique<core::FixedListSearch>(configs),
                    {.seed = seed,
                     .log_progress = false,
                     .on_trial_failure = core::FailurePolicy::Skip});
  study.run();
  const auto ranked = core::ParetoRanking().rank(def.metrics, study.metric_table());
  const auto front = study.pareto_trials();
  rep.digest = trial_table_digest(def, study.trials());
  rep.campaign_s = wall.seconds();
  rep.ranked = ranked.size() == study.metric_table().size() && !front.empty();
  rep.trials = study.trials();
  return rep;
}

std::size_t failed_trials(const std::vector<core::TrialRecord>& trials) {
  return static_cast<std::size_t>(std::count_if(
      trials.begin(), trials.end(), [](const auto& t) { return !t.ok(); }));
}

bool is_distributed(const core::LearningConfiguration& c) {
  return c.get_categorical(core::kParamFramework) == "RLlib" &&
         c.get_integer(core::kParamNodes) > 1;
}

struct CampaignOutcome {
  std::vector<double> campaign_s;         ///< untraced repetitions
  std::vector<double> traced_campaign_s;  ///< traced repetitions
  double timesteps = 0.0;                 ///< untraced, all trials
  double backend_wall_s = 0.0;            ///< untraced, all trials
  double learn_s = 0.0;                   ///< untraced, all trials
  std::vector<double> trial_s;            ///< untraced wrapped evaluate walls
  std::vector<double> dist_wall_s;        ///< distributed trial, per rep
  std::vector<double> traced_trial_s;
  std::vector<double> traced_overhead_s;
  double traced_dist_wall_s = 0.0;
  std::size_t traced_dist_trials = 0;
  double traced_net_bytes = 0.0;
  std::string digest;
};

/// Repeat the campaign for `seconds` (alternating untraced and traced
/// repetitions when `trace`), checking every repetition's trials and that
/// all repetitions produced the same trial table.
CampaignOutcome measure_campaign(const core::CaseStudyDef& def,
                                 const core::AirdropStudyOptions& options,
                                 const std::vector<core::LearningConfiguration>& configs,
                                 std::uint64_t seed, double seconds, bool trace,
                                 Result& result, CampaignRep& last) {
  CampaignOutcome out;
  Stopwatch window;
  std::size_t reps = 0;
  double last_rep_s = 0.0;
  // Stop when the next repetition would end nearer past `seconds` than
  // before it, so a run measures ~`seconds` however long a repetition is.
  while (reps == 0 || (trace && reps < 2) ||
         window.seconds() + 0.5 * last_rep_s < seconds) {
    const bool traced = trace && reps % 2 == 1;
    double bytes_before = 0.0;
    if (traced) {
      darl::obs::set_metrics_enabled(true);
      bytes_before = counter_total("net.bytes_sent") + counter_total("net.bytes_received");
    }
    CampaignRep rep = run_campaign(def, configs, seed);
    last_rep_s = rep.campaign_s;
    if (traced) {
      out.traced_net_bytes += counter_total("net.bytes_sent") +
                              counter_total("net.bytes_received") - bytes_before;
      darl::obs::set_metrics_enabled(false);
    }
    ++reps;
    result.count(rep.trials.size(), failed_trials(rep.trials));
    result.errors(check_trials(def, rep.trials));
    if (!rep.ranked) result.error("Pareto ranking did not cover the campaign's trials");
    if (out.digest.empty()) {
      out.digest = rep.digest;
    } else if (rep.digest != out.digest) {
      result.error("trial-table digest changed between repetitions: " +
                   out.digest + " then " + rep.digest);
    }
    double trials_s = 0.0;
    for (const auto& call : rep.calls) {
      trials_s += call.wall_s;
      if (traced) {
        out.traced_trial_s.push_back(call.wall_s);
        if (is_distributed(call.config)) {
          out.traced_dist_wall_s += call.metrics.at("WallSeconds");
          ++out.traced_dist_trials;
        }
        continue;
      }
      out.timesteps += static_cast<double>(trial_timesteps(options));
      out.backend_wall_s += call.metrics.at("WallSeconds");
      out.learn_s += call.metrics.at("LearnSeconds");
      out.trial_s.push_back(call.wall_s);
      if (is_distributed(call.config)) {
        out.dist_wall_s.push_back(call.metrics.at("WallSeconds"));
      }
    }
    if (traced) {
      out.traced_campaign_s.push_back(rep.campaign_s);
      out.traced_overhead_s.push_back(rep.campaign_s - trials_s);
    } else {
      out.campaign_s.push_back(rep.campaign_s);
    }
    last = std::move(rep);
  }
  return out;
}

/// Bitwise check of the multi-process runtime, outside the timed region:
/// the distributed trial's request re-run through DistributedRllibBackend
/// and in-process RllibBackend must give identical TrainResults, and the
/// re-run must reproduce the campaign's own trial metrics (which proves
/// trial_request mirrors the case study). Returns the iteration count.
std::size_t check_distributed(const core::AirdropStudyOptions& options,
                              const CampaignRep& rep, Result& result) {
  for (const auto& call : rep.calls) {
    if (!is_distributed(call.config)) continue;
    const auto request = trial_request(options, call.config, rep_seed(call.seed, 0));
    const auto local = frameworks::make_backend(frameworks::FrameworkKind::RayRllib)
                           ->run(request);
    const auto remote = frameworks::make_distributed_backend(options.distributed)
                            ->run(request);
    for (const auto& p : compare_train_results(local, remote)) {
      result.error("distributed vs in-process RLlib: " + p);
    }
    const double reward = call.metrics.at("Reward");
    const double staleness = call.metrics.at("NetStaleness");
    if (std::memcmp(&reward, &local.reward, sizeof(double)) != 0 ||
        std::memcmp(&staleness, &local.net_staleness, sizeof(double)) != 0) {
      result.error("re-run of the distributed trial does not reproduce the "
                   "campaign's Reward/NetStaleness");
    }
    if (local.timesteps != options.total_timesteps) {
      result.error("distributed trial trained " + std::to_string(local.timesteps) +
                   " timesteps, expected " + std::to_string(options.total_timesteps));
    }
    return std::max<std::size_t>(1, remote.iterations);
  }
  result.error("the campaign ran no distributed trial");
  return 0;
}

// --- serving ---------------------------------------------------------------

struct ServeFixture {
  serve::PolicySpec spec;
  std::vector<Vec> observations;
  std::vector<Vec> expected;  ///< serve::DirectPolicy answer per observation
  std::unique_ptr<serve::PolicyStore> store;
  std::unique_ptr<serve::Router> router;
};

std::unique_ptr<ServeFixture> make_serve_fixture(std::uint64_t seed,
                                                 const ServeParams& params) {
  auto fx = std::make_unique<ServeFixture>();
  fx->spec = serving_spec(seed);
  fx->observations = make_observations(seed, params.obs_pool, params.obs_dim);
  serve::DirectPolicy direct(fx->spec);
  fx->expected.reserve(fx->observations.size());
  for (const Vec& obs : fx->observations) fx->expected.push_back(direct.act(obs));
  fx->store = std::make_unique<serve::PolicyStore>();
  fx->store->publish(fx->spec);
  serve::RouterConfig cfg;
  cfg.shards = 1;
  cfg.shard.max_batch = params.max_batch;
  cfg.shard.gather = true;
  cfg.shard.queue_capacity = 4096;
  cfg.shard.workers = 1;
  fx->router = std::make_unique<serve::Router>(*fx->store, cfg);
  // Warm the dispatcher's replica and its batch workspaces with concurrent
  // traffic, as the generators will send it.
  std::vector<std::thread> warm;
  for (std::size_t g = 0; g < params.generators; ++g) {
    warm.emplace_back([&fx, g] {
      for (std::uint64_t r = 0; r < 64; ++r) {
        fx->router->serve("", darl::splitmix64((g << 32) + r),
                          fx->observations[(g * 64 + r) % fx->observations.size()]);
      }
    });
  }
  for (auto& t : warm) t.join();
  return fx;
}

struct ServeWindow {
  std::vector<double> arrival_s;   ///< scheduled arrival, per request
  std::vector<double> latency_us;  ///< from the scheduled arrival
  std::vector<double> lag_us;      ///< generator lateness at send
  std::vector<double> publish_us;
  std::vector<ServedRecord> records;
  std::size_t ok = 0;
};

/// Open-loop window: each generator thread sleeps to its next scheduled
/// arrival and sends it; the main thread re-publishes the same weights at
/// a fixed interval (a write beside the reads).
ServeWindow run_serve_window(ServeFixture& fx, const ServeParams& params,
                             const std::vector<std::vector<Arrival>>& schedule,
                             double window_s) {
  const std::size_t n = schedule.size();
  std::vector<ServeWindow> per_gen(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    threads.emplace_back([&, g] {
      // Without this the default 50 us timer slack shows up as generator
      // lateness, and so as request latency that is not darl's.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      ServeWindow& w = per_gen[g];
      w.arrival_s.reserve(schedule[g].size());
      w.latency_us.reserve(schedule[g].size());
      w.lag_us.reserve(schedule[g].size());
      w.records.reserve(schedule[g].size());
      std::uint64_t r = 0;
      for (const Arrival& a : schedule[g]) {
        std::this_thread::sleep_until(at(a.at_s));
        const double sent_s = since(Clock::now());
        serve::Response response =
            fx.router->serve("", darl::splitmix64((g << 32) + r++),
                             fx.observations[a.obs_index]);
        const double done_s = since(Clock::now());
        w.lag_us.push_back((sent_s - a.at_s) * 1e6);
        w.arrival_s.push_back(a.at_s);
        w.latency_us.push_back((done_s - a.at_s) * 1e6);
        if (response.outcome == serve::Outcome::Ok) ++w.ok;
        w.records.push_back({a.obs_index, response.outcome, std::move(response.action)});
      }
    });
  }
  ServeWindow out;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (double t = params.publish_interval_s; t < window_s; t += params.publish_interval_s) {
    std::this_thread::sleep_until(at(t));
    serve::PolicySpec copy = fx.spec;
    Stopwatch sw;
    fx.store->publish(std::move(copy));
    out.publish_us.push_back(sw.seconds() * 1e6);
  }
  for (auto& t : threads) t.join();
  for (auto& w : per_gen) {
    out.arrival_s.insert(out.arrival_s.end(), w.arrival_s.begin(), w.arrival_s.end());
    out.latency_us.insert(out.latency_us.end(), w.latency_us.begin(), w.latency_us.end());
    out.lag_us.insert(out.lag_us.end(), w.lag_us.begin(), w.lag_us.end());
    std::move(w.records.begin(), w.records.end(), std::back_inserter(out.records));
    out.ok += w.ok;
  }
  return out;
}

ServeParams serve_params() {
  ServeParams params;
  // Load comes from one process with no more threads than cores.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  params.generators = std::min(params.generators, cores);
  return params;
}

/// Mean rows per executed micro-batch, from the serve.batch_rows histograms.
double batch_rows_mean() {
  const auto snap = darl::obs::Registry::global().snapshot();
  double sum = 0.0;
  double count = 0.0;
  for (const auto& [key, h] : snap.histograms) {
    const auto id = snap.ids.find(key);
    if (id != snap.ids.end() && id->second.name == "serve.batch_rows") {
      sum += h.sum;
      count += static_cast<double>(h.count);
    }
  }
  return count > 0.0 ? sum / count : 0.0;
}

struct SlicedLatency {
  double p50_us = 0.0;
  double p90_us = 0.0;
};

/// Latency percentiles per second of arrivals, then the median over the
/// window's seconds: a second in which the host stalled the threads moves
/// one slice, not the result. Prints the per-second values.
SlicedLatency sliced_latency(const ServeWindow& w) {
  std::vector<double> p50;
  std::vector<double> p90;
  for (const Summary& slice : slice_summaries(w.arrival_s, w.latency_us, 1.0)) {
    p50.push_back(slice.p50);
    p90.push_back(slice.p90);
  }
  std::printf("per-second p50 us:");
  for (double v : p50) std::printf(" %.0f", v);
  std::printf("\nper-second p90 us:");
  for (double v : p90) std::printf(" %.0f", v);
  std::printf("\n");
  return {median(p50), median(p90)};
}

/// Check and account one serving window.
void account_window(const ServeFixture& fx, const ServeWindow& w, Result& result) {
  result.count(w.records.size(), w.records.size() - w.ok);
  result.errors(check_served(fx.expected, w.records));
}

// --- layer replays (traced runs) ------------------------------------------

/// Repeat `fn` until ~`budget_s` has passed (at least `min_calls` times);
/// returns the mean seconds per call.
template <typename Fn>
double mean_call_s(Fn&& fn, double budget_s = 0.02, int min_calls = 5) {
  Stopwatch sw;
  int calls = 0;
  while (calls < min_calls || sw.seconds() < budget_s) {
    fn();
    ++calls;
  }
  return sw.seconds() / calls;
}

void replay_linalg(Result& result) {
  struct Shape {
    const char* flavour;
    std::size_t m, k, n;
  };
  // Training shapes (64-unit hidden layers at minibatch 64 and 128:
  // forward NT, weight-gradient TN, input-gradient NN) and the serving
  // policy's small-row NT shapes.
  const Shape shapes[] = {{"NT", 64, 64, 64},  {"NT", 128, 64, 64},
                          {"TN", 64, 64, 64},  {"NN", 64, 64, 64},
                          {"NT", 1, 64, 256},  {"NT", 1, 256, 256},
                          {"NT", 4, 256, 256}, {"NT", 1, 256, 16}};
  Rng rng(3);
  for (const Shape& s : shapes) {
    const bool ta = s.flavour[0] == 'T';
    const bool tb = s.flavour[1] == 'T';
    Matrix a(ta ? s.k : s.m, ta ? s.m : s.k);
    Matrix b(tb ? s.n : s.k, tb ? s.k : s.n);
    for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
    for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
    Matrix c(s.m, s.n, 0.0);
    const double per_call = mean_call_s([&] {
      c.fill(0.0);
      Matrix::gemm(1.0, a, ta, b, tb, c);
    });
    const std::string shape = std::string(s.flavour) + "." + std::to_string(s.m) +
                              "x" + std::to_string(s.k) + "x" + std::to_string(s.n);
    result.metric("linalg.gemm_us." + shape, per_call * 1e6);
    result.metric("linalg.gflops." + shape,
                  2.0 * static_cast<double>(s.m * s.k * s.n) / per_call * 1e-9);
  }
}

void replay_serving_nn(Result& result, std::uint64_t seed) {
  const serve::PolicySpec spec = serving_spec(seed);
  Rng rng(5);
  darl::nn::Mlp net(spec.sizes, spec.activation, rng);
  net.set_flat_params(spec.net_params);
  double total = 0.0;
  for (std::size_t rows = 1; rows <= 4; ++rows) {
    Matrix x(rows, spec.sizes.front(), 0.3);
    total += mean_call_s([&] { net.evaluate_batch(x); });
  }
  result.metric("nn.evaluate_batch_us", total / 4.0 * 1e6);
}

void replay_env(Result& result) {
  for (int rk : {3, 5, 8}) {
    darl::airdrop::AirdropConfig cfg = core::AirdropStudyOptions().base_env;
    cfg.rk_order = rk == 3   ? darl::ode::RkOrder::Order3
                   : rk == 5 ? darl::ode::RkOrder::Order5
                             : darl::ode::RkOrder::Order8;
    auto env = darl::airdrop::make_airdrop_factory(cfg)();
    env->seed(11);
    env->reset();
    Rng rng(13);
    const double evals_before = counter_total("ode.rhs_evals");
    constexpr int kSteps = 2000;
    Stopwatch sw;
    for (int i = 0; i < kSteps; ++i) {
      const Vec action{static_cast<double>(rng.index(3))};
      if (env->step(action).done()) env->reset();
    }
    const double per_step = sw.seconds() / kSteps;
    const std::string suffix = ".rk" + std::to_string(rk);
    result.metric("env.step_us" + suffix, per_step * 1e6);
    result.metric("ode.rhs_evals_per_step" + suffix,
                  (counter_total("ode.rhs_evals") - evals_before) / kSteps);
  }
}

/// One iteration of each trial configuration through the public layer
/// functions the backends call: RolloutWorker::sync/collect,
/// Algorithm::train (the second iteration, past SAC's warm-up),
/// RolloutActor::act_batch, rl::evaluate_policy, and the learner network's
/// Mlp forward/backward + Adam at the trial's minibatch.
void replay_trials(Result& result, const std::vector<core::LearningConfiguration>& configs,
                   const core::AirdropStudyOptions& options, std::uint64_t seed) {
  Timings t;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const auto& config = configs[ci];
    const auto request = trial_request(options, config, rep_seed(seed, ci));
    auto probe = request.env_factory();
    const std::size_t obs_dim = probe->observation_space().dim();
    const darl::env::ActionSpace action_space = probe->action_space();
    auto algo = darl::rl::make_algorithm(request.algo, obs_dim, action_space,
                                         Rng(request.seed).split(1).seed());
    const bool sb = config.get_categorical(core::kParamFramework) == "StableBaselines";
    const std::size_t n_workers =
        request.deployment.nodes * request.deployment.cores_per_node;
    const std::size_t per_worker =
        sb ? request.steps_per_env
           : std::max<std::size_t>(1, request.train_batch_total / n_workers);
    std::vector<std::unique_ptr<frameworks::RolloutWorker>> workers;
    for (std::size_t i = 0; i < n_workers; ++i) {
      workers.push_back(std::make_unique<frameworks::RolloutWorker>(
          i, request.env_factory(), algo->make_actor(),
          Rng(request.seed).split(100 + i).seed()));
    }
    std::vector<darl::rl::WorkerBatch> batches;
    for (int it = 0; it < 2; ++it) {
      const Vec params = algo->policy_params();
      for (auto& w : workers) t.time("sync", [&] { w->sync(params); });
      batches.clear();
      for (auto& w : workers) {
        batches.push_back(t.time("collect", [&] { return w->collect(per_worker); }));
      }
      Stopwatch sw;
      algo->train(batches);
      if (it == 1) t.add("train", sw.seconds());
    }
    auto actor = algo->make_actor();
    std::vector<Vec> obs;
    for (std::size_t i = 0; i < 4; ++i) {
      obs.push_back(batches[0].transitions[i].obs);
    }
    std::vector<darl::rl::ActOutput> acts(obs.size());
    Rng act_rng(17);
    t.add("act_batch", mean_call_s([&] { actor->act_batch(obs, act_rng, acts); }));
    auto eval_env = request.env_factory();
    eval_env->seed(19);
    Rng eval_rng(23);
    for (int ep = 0; ep < 2; ++ep) {
      t.time("eval", [&] {
        darl::rl::evaluate_policy(*actor, *eval_env, 1, eval_rng, /*stochastic=*/false);
      });
    }

    // The learner's policy network at this trial's minibatch.
    const bool sac = request.algo.kind == darl::rl::AlgoKind::SAC;
    const std::size_t head = sac ? 2 * action_space.action_dim() : action_space.discrete().n();
    const std::size_t minibatch =
        sac ? request.algo.sac.batch_size : request.algo.ppo.minibatch_size;
    Rng net_rng(29);
    darl::nn::Mlp net({obs_dim, 64, 64, head},
                      sac ? darl::nn::Activation::ReLU : darl::nn::Activation::Tanh,
                      net_rng);
    darl::nn::Adam adam(net.params(), 3e-4);
    Matrix x(minibatch, obs_dim, 0.1);
    Matrix grad(minibatch, head, 1e-3);
    t.add("forward", mean_call_s([&] { net.forward_batch(x); }));
    t.add("backward", mean_call_s([&] {
      net.forward_batch(x);
      net.backward_batch(grad);
    }) - t.mean("forward"));
    t.add("adam", mean_call_s([&] { adam.step(); }));
  }
  result.metric("frameworks.sync_us", t.mean("sync") * 1e6);
  result.metric("frameworks.collect_us", t.mean("collect") * 1e6);
  result.metric("frameworks.eval_s", t.mean("eval"));
  result.metric("rl.train_ms", t.mean("train") * 1e3);
  result.metric("rl.act_batch_us", t.mean("act_batch") * 1e6);
  result.metric("nn.forward_batch_us", t.mean("forward") * 1e6);
  result.metric("nn.backward_batch_us", t.mean("backward") * 1e6);
  result.metric("nn.adam_step_us", t.mean("adam") * 1e6);
}

/// Wire codecs at the distributed trial's message sizes: one WeightsMsg
/// (checkpoint text of the PPO policy) and one worker's BatchMsg.
void replay_net(Result& result, const core::AirdropStudyOptions& options,
                std::uint64_t seed) {
  const auto config = campaign_configs(Workload::CampaignPpoDist).front();
  const auto request = trial_request(options, config, seed);
  auto probe = request.env_factory();
  const std::size_t obs_dim = probe->observation_space().dim();
  auto algo = darl::rl::make_algorithm(request.algo, obs_dim, probe->action_space(),
                                       Rng(seed).split(1).seed());
  const std::size_t n_workers =
      request.deployment.nodes * request.deployment.cores_per_node;
  frameworks::RolloutWorker worker(0, request.env_factory(), algo->make_actor(),
                                   Rng(seed).split(100).seed());
  worker.sync(algo->policy_params());

  darl::rl::Checkpoint ckpt;
  ckpt.kind = darl::rl::AlgoKind::PPO;
  ckpt.obs_dim = obs_dim;
  ckpt.action_dim = 1;
  ckpt.params = algo->policy_params();
  std::ostringstream text;
  darl::rl::save_checkpoint(text, ckpt);
  darl::net::WeightsMsg weights{1, text.str()};

  darl::net::BatchMsg batch;
  batch.worker = 0;
  batch.version = 1;
  batch.transitions = worker.collect(request.train_batch_total / n_workers).transitions;
  batch.episodes = worker.episodes();
  batch.steps = batch.transitions.size();

  std::string wire;
  result.metric("net.encode_us.weights",
                mean_call_s([&] { wire = darl::net::encode_weights(weights); }) * 1e6);
  result.note("net.weights_bytes", static_cast<double>(wire.size()));
  result.metric("net.decode_us.weights",
                mean_call_s([&] { darl::net::decode_weights(wire); }) * 1e6);
  result.metric("net.encode_us.batch",
                mean_call_s([&] { wire = darl::net::encode_batch_msg(batch); }) * 1e6);
  result.note("net.batch_bytes", static_cast<double>(wire.size()));
  result.metric("net.decode_us.batch",
                mean_call_s([&] { darl::net::decode_batch_msg(wire); }) * 1e6);
}

/// A short distributed run (for workloads that have no distributed trial):
/// iteration time and wire bytes per iteration.
void probe_distributed(Result& result, const std::string& worker_bin, std::uint64_t seed) {
  const auto options = campaign_options(Workload::CampaignPpoDist, worker_bin);
  const auto config = campaign_configs(Workload::CampaignPpoDist).front();
  const auto request = trial_request(options, config, seed);
  darl::obs::set_metrics_enabled(true);
  const double before = counter_total("net.bytes_sent") + counter_total("net.bytes_received");
  const auto r = frameworks::make_distributed_backend(options.distributed)->run(request);
  const double bytes = counter_total("net.bytes_sent") +
                       counter_total("net.bytes_received") - before;
  darl::obs::set_metrics_enabled(false);
  const double iters = static_cast<double>(std::max<std::size_t>(1, r.iterations));
  result.metric("frameworks.dist_iter_ms", r.wall_seconds / iters * 1e3);
  result.metric("net.bytes_per_iter", bytes / iters);
}

void serve_layer_metrics(Result& result, const ServeWindow& w, double rows_mean) {
  const Summary lag = summarize(w.lag_us);
  result.metric("serve.publish_us", median(w.publish_us));
  result.metric("serve.batch_rows_mean", rows_mean);
  result.metric("serve.gen_lag_p50_us", lag.p50);
  result.metric("serve.gen_lag_p99_us", lag.p99);
}

/// A short traced serving window (for workloads that do not serve).
void probe_serving(Result& result, std::uint64_t seed) {
  const ServeParams params = serve_params();
  auto fx = make_serve_fixture(seed, params);
  const auto schedule = make_schedule(seed, params, 2.0);
  darl::obs::Registry::global().reset();
  darl::obs::set_metrics_enabled(true);
  const ServeWindow w = run_serve_window(*fx, params, schedule, 2.0);
  const double rows = batch_rows_mean();
  darl::obs::set_metrics_enabled(false);
  fx->router->shutdown();
  account_window(*fx, w, result);
  serve_layer_metrics(result, w, rows);
}

/// A one-trial study (for workloads that run no campaign).
void probe_campaign(Result& result, const std::string& worker_bin, std::uint64_t seed) {
  const auto options = campaign_options(Workload::CampaignPpoDist, worker_bin);
  const auto def = core::make_airdrop_case_study(options);
  const auto configs = std::vector{campaign_configs(Workload::CampaignPpoDist).back()};
  darl::obs::set_metrics_enabled(true);
  const CampaignRep rep = run_campaign(def, configs, seed);
  darl::obs::set_metrics_enabled(false);
  result.count(rep.trials.size(), failed_trials(rep.trials));
  result.errors(check_trials(def, rep.trials));
  double trials_s = 0.0;
  for (const auto& c : rep.calls) trials_s += c.wall_s;
  result.metric("core.trial_s", trials_s / static_cast<double>(rep.calls.size()));
  result.metric("core.overhead_s", rep.campaign_s - trials_s);
}

// --- workloads -------------------------------------------------------------

void run_campaign_workload(const Args& args, Result& result, std::string& digest) {
  const auto configs = campaign_configs(args.workload);
  const auto options = campaign_options(args.workload, args.worker_bin);
  std::vector<double> setups;
  std::unique_ptr<core::CaseStudyDef> def;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch sw;
    def = std::make_unique<core::CaseStudyDef>(core::make_airdrop_case_study(options));
    warm_kernels();
    // A half-budget run of the first trial: first-touch allocations, the
    // learner's workspaces and (campaign-ppo-dist) the actor binary's
    // first exec are paid here, not in the first timed repetition.
    def->evaluate(configs.front(), 0.5, args.seed);
    setups.push_back(sw.seconds());
  }

  CampaignRep last;
  const CampaignOutcome out = measure_campaign(*def, options, configs, args.seed,
                                               args.seconds, args.trace, result, last);
  digest = out.digest;
  const std::size_t dist_iters = args.workload == Workload::CampaignPpoDist
                                     ? check_distributed(options, last, result)
                                     : 0;
  std::printf("%s: %zu untraced repetitions of %zu trials, digest %s\n",
              workload_name(args.workload), out.campaign_s.size(), configs.size(),
              out.digest.c_str());
  std::printf("campaign_s per repetition:");
  for (double v : out.campaign_s) std::printf(" %.3f", v);
  std::printf("\ntrial_s:");
  for (double v : out.trial_s) std::printf(" %.3f", v);
  std::printf("\n");
  const double campaign_s = median(out.campaign_s);
  const double steps_per_s =
      out.backend_wall_s > 0.0 ? out.timesteps / out.backend_wall_s : 0.0;
  result.note("campaign_s", campaign_s);
  result.note("train_steps_per_s", steps_per_s);
  result.note("learn_share", out.learn_s / out.backend_wall_s);
  if (dist_iters > 0) {
    result.note("dist_iter_ms", median(out.dist_wall_s) / dist_iters * 1e3);
  }
  if (!args.trace) {
    result.metric("setup_s", median(setups));
    const Summary trial = summarize(out.trial_s);
    result.metric("p50_ms", trial.p50 * 1e3);
    result.metric("p90_ms", trial.p90 * 1e3);
    result.metric("throughput_per_s", steps_per_s);
    result.metric("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Per-layer metrics: observed on the traced repetitions where this
  // workload exercises the layer, replayed or probed otherwise.
  result.metric("core.trial_s", median(out.traced_trial_s));
  result.metric("core.overhead_s", median(out.traced_overhead_s));
  result.metric("obs.trace_overhead_pct",
                (median(out.traced_campaign_s) / campaign_s - 1.0) * 100.0);
  if (dist_iters > 0 && out.traced_dist_trials > 0) {
    const double iters = static_cast<double>(dist_iters * out.traced_dist_trials);
    result.metric("frameworks.dist_iter_ms", out.traced_dist_wall_s / iters * 1e3);
    result.metric("net.bytes_per_iter", out.traced_net_bytes / iters);
  } else {
    probe_distributed(result, args.worker_bin, args.seed);
  }
  darl::obs::set_metrics_enabled(true);
  replay_trials(result, configs, options, args.seed);
  replay_env(result);
  darl::obs::set_metrics_enabled(false);
  replay_net(result, options, args.seed);
  replay_linalg(result);
  replay_serving_nn(result, args.seed);
  probe_serving(result, args.seed);
}

void run_serve_workload(const Args& args, Result& result) {
  const ServeParams params = serve_params();
  std::vector<double> setups;
  std::unique_ptr<ServeFixture> fx;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fx.reset();
    Stopwatch sw;
    warm_kernels();
    fx = make_serve_fixture(args.seed, params);
    setups.push_back(sw.seconds());
  }
  std::printf("serve-poisson: %zu generators, %.0f req/s offered, max_batch %zu\n",
              params.generators, params.rate_per_s, params.max_batch);

  if (!args.trace) {
    const auto schedule = make_schedule(args.seed, params, args.seconds);
    const ServeWindow w = run_serve_window(*fx, params, schedule, args.seconds);
    fx->router->shutdown();
    account_window(*fx, w, result);
    const Summary lat = summarize(w.latency_us);
    const Summary lag = summarize(w.lag_us);
    const double achieved = static_cast<double>(w.ok) / args.seconds;
    const SlicedLatency sliced = sliced_latency(w);
    result.note("serve_p50_us", sliced.p50_us);
    result.note("serve_p90_us", sliced.p90_us);
    result.note("serve_p50_us (pooled)", lat.p50);
    result.note("serve_p90_us (pooled)", lat.p90);
    result.note("serve_p99_us (diagnostic)", lat.p99);
    result.note("serve_p99.9_us (diagnostic)", lat.p999);
    result.note("serve_achieved_rps", achieved);
    result.note("serve_requests", static_cast<double>(lat.count));
    result.note("gen_lag_p50_us", lag.p50);
    result.note("gen_lag_p99_us", lag.p99);
    result.metric("setup_s", median(setups));
    result.metric("p50_ms", sliced.p50_us * 1e-3);
    result.metric("p90_ms", sliced.p90_us * 1e-3);
    result.metric("throughput_per_s", achieved);
    result.metric("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Alternate untraced and traced windows over the same schedule.
  const double window_s = args.seconds / 4.0;
  const auto schedule = make_schedule(args.seed, params, window_s);
  std::vector<double> untraced_p50;
  std::vector<double> traced_p50;
  ServeWindow traced_window;
  double rows_mean = 0.0;
  for (int i = 0; i < 4; ++i) {
    const bool traced = i % 2 == 1;
    if (traced) {
      darl::obs::Registry::global().reset();
      darl::obs::set_metrics_enabled(true);
    }
    ServeWindow w = run_serve_window(*fx, params, schedule, window_s);
    account_window(*fx, w, result);
    (traced ? traced_p50 : untraced_p50).push_back(sliced_latency(w).p50_us);
    if (traced) {
      rows_mean = batch_rows_mean();
      darl::obs::set_metrics_enabled(false);
      traced_window = std::move(w);
    }
  }
  fx->router->shutdown();
  serve_layer_metrics(result, traced_window, rows_mean);
  result.metric("obs.trace_overhead_pct",
                (median(traced_p50) / median(untraced_p50) - 1.0) * 100.0);
  replay_serving_nn(result, args.seed);
  replay_linalg(result);

  // Layers serving does not touch: replay both campaigns' trials.
  auto configs = campaign_configs(Workload::CampaignSac);
  for (const auto& c : campaign_configs(Workload::CampaignPpoDist)) configs.push_back(c);
  const auto options = campaign_options(Workload::CampaignPpoDist, args.worker_bin);
  darl::obs::set_metrics_enabled(true);
  replay_trials(result, configs, options, args.seed);
  replay_env(result);
  darl::obs::set_metrics_enabled(false);
  replay_net(result, options, args.seed);
  probe_distributed(result, args.worker_bin, args.seed);
  probe_campaign(result, args.worker_bin, args.seed);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (PERFBENCH_SANITIZED) {
    std::fprintf(stderr, "darl_perfbench: refusing to report from a sanitizer build\n");
    return 3;
  }
  darl::set_log_level(darl::LogLevel::Error);
  // Campaign arithmetic stays on the exactly-rounded kernels (the
  // trial-table digest depends on it), as darl_study pins it.
  darl::set_fast_math(false);
  darl::obs::set_metrics_enabled(false);

  Result result;
  std::string digest;
  try {
    if (is_campaign(args.workload)) {
      run_campaign_workload(args, result, digest);
    } else {
      run_serve_workload(args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "darl_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.json(digest).c_str());
  return 0;
}
