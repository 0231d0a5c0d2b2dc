// Microbenchmarks: environment step throughput — the airdrop simulator per
// Runge-Kutta order (the CPU-heavy part the paper's cluster spends its time
// on) and the classic-control environments (CartPole, Pendulum, GridWorld)
// for reference.

#include <benchmark/benchmark.h>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/env/cartpole.hpp"
#include "darl/env/gridworld.hpp"
#include "darl/env/pendulum.hpp"

namespace {

using namespace darl;

void BM_AirdropStep(benchmark::State& state) {
  airdrop::AirdropConfig cfg;
  cfg.rk_order = static_cast<ode::RkOrder>(state.range(0));
  cfg.altitude_min = 100.0;
  cfg.altitude_max = 400.0;
  airdrop::AirdropEnv env(cfg);
  env.seed(1);
  env.reset();
  const Vec action{2.0};
  for (auto _ : state) {
    const env::StepResult r = env.step(action);
    benchmark::DoNotOptimize(r.reward);
    if (r.done()) env.reset();
  }
  state.counters["cost_units_per_step"] =
      env.take_compute_cost() / static_cast<double>(state.iterations());
}

void BM_CartPoleStep(benchmark::State& state) {
  env::CartPoleEnv env;
  env.seed(2);
  env.reset();
  for (auto _ : state) {
    const env::StepResult r = env.step(Vec{1.0});
    benchmark::DoNotOptimize(r.reward);
    if (r.done()) env.reset();
  }
}

void BM_PendulumStep(benchmark::State& state) {
  env::PendulumEnv env;
  env.seed(3);
  env.reset();
  for (auto _ : state) {
    const env::StepResult r = env.step(Vec{0.5});
    benchmark::DoNotOptimize(r.reward);
  }
}

void BM_GridWorldStep(benchmark::State& state) {
  env::GridWorldEnv env;
  env.seed(5);
  env.reset();
  Rng rng(5);
  for (auto _ : state) {
    const env::StepResult r = env.step({static_cast<double>(rng.index(4))});
    benchmark::DoNotOptimize(r.reward);
    if (r.done()) env.reset();
  }
}

}  // namespace

BENCHMARK(BM_AirdropStep)->Arg(3)->Arg(5)->Arg(8);
BENCHMARK(BM_CartPoleStep);
BENCHMARK(BM_PendulumStep);
BENCHMARK(BM_GridWorldStep);
