#include "darl/nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "darl/common/error.hpp"
#include "darl/linalg/simd.hpp"

namespace darl::nn {

Adam::Adam(std::vector<ParamRef> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  DARL_CHECK(!params_.empty(), "optimizer with no parameters");
  DARL_CHECK(lr > 0.0, "learning rate must be positive");
  for (const auto& p : params_) {
    DARL_CHECK(p.value != nullptr && p.grad != nullptr, "null ParamRef");
    DARL_CHECK(p.value->size() == p.grad->size(),
               "param/grad size mismatch for '" << p.name << "'");
  }
  DARL_CHECK(beta1 >= 0.0 && beta1 < 1.0, "beta1 out of [0,1)");
  DARL_CHECK(beta2 >= 0.0 && beta2 < 1.0, "beta2 out of [0,1)");
  DARL_CHECK(eps > 0.0, "eps must be positive");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->size(), 0.0);
    v_.emplace_back(p.value->size(), 0.0);
  }
}

void Adam::zero_grad() {
  for (auto& p : params_) std::fill(p.grad->begin(), p.grad->end(), 0.0);
}

void Adam::set_learning_rate(double lr) {
  DARL_CHECK(lr > 0.0, "learning rate must be positive");
  lr_ = lr;
}

namespace {

/// Adam's per-element constants for one step.
struct AdamStepCoeffs {
  double beta1, beta2, bc1, bc2, lr, eps;
};

/// One Adam update over a tensor of n elements, four lanes at a time. Each
/// lane runs the scalar tail's operations in the same order, and
/// lane-wise div and sqrt are correctly rounded like their scalar forms,
/// so every element gets the scalar bits. (This file builds with
/// -fno-math-errno, so std::sqrt needs no errno path and vectorizes.)
DARL_SIMD_CLONES void adam_update(double* w, double* m, double* v, const double* g,
                                  std::size_t n, const AdamStepCoeffs& k) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    simd::V4d gv;
    simd::V4d mv;
    simd::V4d vv;
    simd::V4d wv;
    std::memcpy(&gv, g + j, sizeof gv);
    std::memcpy(&mv, m + j, sizeof mv);
    std::memcpy(&vv, v + j, sizeof vv);
    std::memcpy(&wv, w + j, sizeof wv);
    mv = k.beta1 * mv + (1.0 - k.beta1) * gv;
    vv = k.beta2 * vv + (1.0 - k.beta2) * gv * gv;
    const simd::V4d mhat = mv / k.bc1;
    const simd::V4d vhat = vv / k.bc2;
    simd::V4d root;
    DARL_SIMD_UNROLL
    for (int l = 0; l < 4; ++l) root[l] = std::sqrt(vhat[l]);
    wv -= k.lr * mhat / (root + k.eps);
    std::memcpy(m + j, &mv, sizeof mv);
    std::memcpy(v + j, &vv, sizeof vv);
    std::memcpy(w + j, &wv, sizeof wv);
  }
  for (; j < n; ++j) {
    m[j] = k.beta1 * m[j] + (1.0 - k.beta1) * g[j];
    v[j] = k.beta2 * v[j] + (1.0 - k.beta2) * g[j] * g[j];
    const double mhat = m[j] / k.bc1;
    const double vhat = v[j] / k.bc2;
    w[j] -= k.lr * mhat / (std::sqrt(vhat) + k.eps);
  }
}

}  // namespace

void Adam::step() {
  ++t_;
  const AdamStepCoeffs k{beta1_,
                         beta2_,
                         1.0 - std::pow(beta1_, static_cast<double>(t_)),
                         1.0 - std::pow(beta2_, static_cast<double>(t_)),
                         lr_,
                         eps_};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Vec& w = *params_[i].value;
    adam_update(w.data(), m_[i].data(), v_[i].data(), params_[i].grad->data(),
                w.size(), k);
  }
}

double clip_grad_norm(const std::vector<ParamRef>& params, double max_norm) {
  DARL_CHECK(max_norm > 0.0, "max_norm must be positive");
  double sq = 0.0;
  for (const auto& p : params) {
    for (double g : *p.grad) sq += g * g;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (auto& p : params) {
      for (double& g : *p.grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace darl::nn
