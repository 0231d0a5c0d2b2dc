// Microbenchmarks: neural substrate — MLP forward/backward at the policy
// sizes the study uses, optimizer steps, and distribution sampling.

#include <benchmark/benchmark.h>

#include "darl/common/rng.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/linalg/thread_pool.hpp"
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

// Batched inference: one evaluate_batch call over `batch` observation rows.
// Args: {hidden width, batch rows}.
void BM_MlpForwardBatch(benchmark::State& state) {
  Rng rng(6);
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  nn::Mlp net({12, h, h, 3}, nn::Activation::Tanh, rng);
  const Matrix x(b, 12, 0.3);
  net.evaluate_batch(x);  // size the workspaces outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.evaluate_batch(x).data().data());
  }
  const double flops =
      net.flops_per_forward() * static_cast<double>(b);
  state.counters["flops/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// Batched training step kernels: forward_batch + backward_batch over
// `batch` rows. Args: {hidden width, batch rows}.
void BM_MlpForwardBackwardBatch(benchmark::State& state) {
  Rng rng(7);
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  nn::Mlp net({12, h, h, 3}, nn::Activation::Tanh, rng);
  const Matrix x(b, 12, 0.3);
  const Matrix g(b, 3, 0.5);
  net.forward_batch(x);
  net.backward_batch(g);  // size the workspaces outside the timed loop
  for (auto _ : state) {
    net.zero_grad();
    net.forward_batch(x);
    benchmark::DoNotOptimize(net.backward_batch(g).data().data());
  }
  const double flops =
      3.0 * net.flops_per_forward() * static_cast<double>(b);
  state.counters["flops/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// The batched training step under a swept linalg::ThreadPool width.
// Args: {hidden width, batch rows, threads}. The pool is reconfigured at
// benchmark entry (a quiescent point) and restored afterwards; results
// are bitwise-identical across widths, only the wall clock moves.
void BM_MlpForwardBackwardBatchThreads(benchmark::State& state) {
  Rng rng(7);
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  linalg::ThreadPool::instance().configure(threads);
  nn::Mlp net({12, h, h, 3}, nn::Activation::Tanh, rng);
  const Matrix x(b, 12, 0.3);
  const Matrix g(b, 3, 0.5);
  net.forward_batch(x);
  net.backward_batch(g);  // size the workspaces outside the timed loop
  for (auto _ : state) {
    net.zero_grad();
    net.forward_batch(x);
    benchmark::DoNotOptimize(net.backward_batch(g).data().data());
  }
  const double flops =
      3.0 * net.flops_per_forward() * static_cast<double>(b);
  state.counters["flops/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  linalg::ThreadPool::instance().configure(linalg::env_thread_width());
}

// Faithful replica of the pre-batching per-sample implementation: plain
// matvec per layer (one serial accumulator chain per output), a copy of
// every layer input, fresh Vec allocations per call, and the activation
// derivative recomputed from the pre-activation in backward. This is what
// one training sample cost before the batched kernels landed, kept here as
// the speedup baseline for BM_MlpForwardBackwardBatch.
struct ReferenceMlp {
  std::vector<Matrix> w;
  std::vector<Vec> b;
  std::vector<Matrix> gw;
  std::vector<Vec> gb;
  std::vector<Vec> inputs, pre;

  ReferenceMlp(const std::vector<std::size_t>& sizes, Rng& rng) {
    const std::size_t layers = sizes.size() - 1;
    for (std::size_t l = 0; l < layers; ++l) {
      Matrix m(sizes[l + 1], sizes[l]);
      m.randomize_kaiming(rng);
      w.push_back(std::move(m));
      b.emplace_back(sizes[l + 1], 0.0);
      gw.emplace_back(sizes[l + 1], sizes[l], 0.0);
      gb.emplace_back(sizes[l + 1], 0.0);
    }
    inputs.resize(layers);
    pre.resize(layers);
  }

  Vec forward(const Vec& x) {
    Vec a = x;
    for (std::size_t l = 0; l < w.size(); ++l) {
      inputs[l] = a;
      Vec z = w[l].matvec(a);
      axpy(1.0, b[l], z);
      pre[l] = z;
      if (l + 1 < w.size()) {
        for (double& v : z) v = std::tanh(v);
      }
      a = std::move(z);
    }
    return a;
  }

  Vec backward(const Vec& grad_output) {
    Vec delta = grad_output;
    for (std::size_t li = w.size(); li-- > 0;) {
      if (li + 1 < w.size()) {
        for (std::size_t i = 0; i < delta.size(); ++i) {
          const double t = std::tanh(pre[li][i]);
          delta[i] *= 1.0 - t * t;
        }
      }
      gw[li].add_outer(1.0, delta, inputs[li]);
      axpy(1.0, delta, gb[li]);
      delta = w[li].matvec_t(delta);
    }
    return delta;
  }

  void zero_grad() {
    for (auto& g : gw) g.fill(0.0);
    for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);
  }
};

void BM_MlpForwardBackwardPerSampleLoop(benchmark::State& state) {
  Rng rng(7);
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  ReferenceMlp net({12, h, h, 3}, rng);
  const Vec x(12, 0.3);
  const Vec g(3, 0.5);
  for (auto _ : state) {
    net.zero_grad();
    for (std::size_t i = 0; i < b; ++i) {
      net.forward(x);
      benchmark::DoNotOptimize(net.backward(g).data());
    }
  }
  nn::Mlp shape_twin({12, h, h, 3}, nn::Activation::Tanh, rng);
  const double flops =
      3.0 * shape_twin.flops_per_forward() * static_cast<double>(b);
  state.counters["flops/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// The current per-sample API (batch-of-1 wrappers over the batched
// kernels), issued `batch` times — shows how much of the win comes from
// the kernels alone versus actually batching the call.
void BM_MlpForwardBackwardWrapperLoop(benchmark::State& state) {
  Rng rng(7);
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto b = static_cast<std::size_t>(state.range(1));
  nn::Mlp net({12, h, h, 3}, nn::Activation::Tanh, rng);
  const Vec x(12, 0.3);
  const Vec g(3, 0.5);
  for (auto _ : state) {
    net.zero_grad();
    for (std::size_t i = 0; i < b; ++i) {
      net.forward(x);
      benchmark::DoNotOptimize(net.backward(g).data());
    }
  }
  const double flops =
      3.0 * net.flops_per_forward() * static_cast<double>(b);
  state.counters["flops/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
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
BENCHMARK(BM_MlpForwardBatch)
    ->Args({64, 1})
    ->Args({64, 7})
    ->Args({64, 64})
    ->Args({128, 64});
BENCHMARK(BM_MlpForwardBackwardBatch)
    ->Args({64, 1})
    ->Args({64, 7})
    ->Args({64, 64})
    ->Args({128, 64});
BENCHMARK(BM_MlpForwardBackwardBatchThreads)
    ->Args({64, 64, 1})
    ->Args({64, 64, 2})
    ->Args({64, 64, 4})
    ->Args({64, 64, 8})
    ->Args({128, 256, 1})
    ->Args({128, 256, 4});
BENCHMARK(BM_MlpForwardBackwardPerSampleLoop)->Args({64, 64})->Args({128, 64});
BENCHMARK(BM_MlpForwardBackwardWrapperLoop)->Args({64, 64})->Args({128, 64});
BENCHMARK(BM_AdamStep);
BENCHMARK(BM_CategoricalSample);
BENCHMARK(BM_SquashedGaussianSample);
