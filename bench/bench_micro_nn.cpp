// Microbenchmarks: neural substrate — MLP forward/backward at the policy
// sizes the study uses, optimizer steps, and distribution sampling.

#include <benchmark/benchmark.h>

#include "darl/common/rng.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/nn/distributions.hpp"
#include "darl/nn/mlp.hpp"
#include "darl/nn/optimizer.hpp"

namespace {

using namespace darl;

void BM_MlpForward(benchmark::State& state) {
  Rng rng(1);
  const auto h = static_cast<std::size_t>(state.range(0));
  nn::Mlp net({12, h, h, 3}, nn::Activation::Tanh, rng);
  const Vec x(12, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.evaluate(x).data());
  }
  state.counters["flops"] = net.flops_per_forward();
}

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(2);
  const auto h = static_cast<std::size_t>(state.range(0));
  nn::Mlp net({12, h, h, 3}, nn::Activation::Tanh, rng);
  const Vec x(12, 0.3);
  const Vec g{1.0, -1.0, 0.5};
  for (auto _ : state) {
    net.forward(x);
    benchmark::DoNotOptimize(net.backward(g).data());
  }
}

void BM_AdamStep(benchmark::State& state) {
  Rng rng(3);
  nn::Mlp net({12, 64, 64, 3}, nn::Activation::Tanh, rng);
  nn::Adam opt(net.params(), 3e-4);
  net.forward(Vec(12, 0.1));
  net.backward(Vec{1.0, 1.0, 1.0});
  for (auto _ : state) {
    opt.step();
  }
  state.counters["params"] = static_cast<double>(net.param_count());
}

void BM_CategoricalSample(benchmark::State& state) {
  Rng rng(4);
  const Vec logits{0.3, -0.5, 1.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Categorical::sample(logits, rng));
  }
}

void BM_SquashedGaussianSample(benchmark::State& state) {
  Rng rng(5);
  const Vec mean{0.1}, log_std{-0.5};
  for (auto _ : state) {
    const auto d = nn::SquashedGaussian::sample(mean, log_std, rng);
    benchmark::DoNotOptimize(d.log_prob);
  }
}

}  // namespace

BENCHMARK(BM_MlpForward)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_MlpForwardBackward)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_AdamStep);
BENCHMARK(BM_CategoricalSample);
BENCHMARK(BM_SquashedGaussianSample);
