#include "darl/linalg/matrix.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/linalg/simd.hpp"
#include "darl/linalg/thread_pool.hpp"

namespace darl {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  DARL_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

double& Matrix::at(std::size_t r, std::size_t c) {
  DARL_CHECK(r < rows_ && c < cols_,
             "matrix index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  DARL_CHECK(r < rows_ && c < cols_,
             "matrix index (" << r << "," << c << ") out of " << rows_ << "x" << cols_);
  return (*this)(r, c);
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  DARL_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

DARL_SIMD_CLONES void Matrix::fill(double value) {
  for (double& v : data_) v = value;
}

Vec Matrix::matvec(const Vec& x) const {
  DARL_CHECK(x.size() == cols_, "matvec: x has " << x.size() << ", cols " << cols_);
  Vec y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

Vec Matrix::matvec_t(const Vec& x) const {
  DARL_CHECK(x.size() == rows_, "matvec_t: x has " << x.size() << ", rows " << rows_);
  Vec y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

void Matrix::add_outer(double alpha, const Vec& u, const Vec& v) {
  DARL_CHECK(u.size() == rows_ && v.size() == cols_,
             "add_outer shape mismatch: u " << u.size() << ", v " << v.size()
                                            << " vs " << rows_ << "x" << cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double* row = data_.data() + r * cols_;
    const double au = alpha * u[r];
    for (std::size_t c = 0; c < cols_; ++c) row[c] += au * v[c];
  }
}

void Matrix::add_scaled(double alpha, const Matrix& other) {
  DARL_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

namespace {

using simd::V4d;

// ---------------------------------------------------------------------------
// GEMM kernels (DESIGN.md §16).
//
// Every path below accumulates each C element over the contraction index t
// in ascending order — one multiply, then one add, per term — in a chain
// seeded from the C value already in memory. That is the chain
// reference_gemm in tests/test_linalg.cpp spells out. Register tiling,
// operand packing, the vector width and the row partition only decide
// which chains run side by side, never the terms of one chain or their
// order, so all of them are bitwise-neutral. Only the opt-in fast-math
// tier (one fused multiply-add per term) rounds differently, and only by
// the documented divergence bound.
// ---------------------------------------------------------------------------

/// m*n*k volume below which gemm stays on the calling thread: chunk
/// handoff costs more than it saves (batch-1 serve latency must not
/// regress). 64x64x64 (the training batch shape) sits above it.
constexpr std::size_t kParallelMinVolume = 131072;

/// NT output rows below which packing op(B) costs more than the packed
/// kernel saves; small shapes use the dot-product serving kernel.
constexpr std::size_t kNtPackMinRows = 8;

/// Fast-math tier switch. Enabled only when DARL_FAST_MATH=1 AND the CPU
/// has AVX2+FMA; darl_study force-disables it so campaign CSVs are exempt
/// by construction.
bool cpu_has_fast_math() {
#if DARL_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool fast_math_env_default() {
  const char* raw = std::getenv("DARL_FAST_MATH");
  return raw != nullptr && raw[0] == '1' && cpu_has_fast_math();
}

std::atomic<bool> g_fast_math{fast_math_env_default()};

/// Per-thread packing scratch for the transposed copy of op(B). Thread-local
/// (gemm may run concurrently from serve replicas and parallel trials);
/// grows to the largest k x n seen and then stops allocating. Growth lives
/// here, outside the kernel bodies, per the darl_lint no-alloc-in-kernel
/// rule.
double* pack_workspace(std::size_t need) {
  thread_local Vec buf;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

/// dst (k x n row-major) = B^T, with B n x k row-major. Pure layout
/// change: every value is copied, none recomputed. Four rows of B go
/// together, so each dst row takes one contiguous 4-wide write per t.
void pack_b_transposed(const double* b_base, std::size_t b_stride,
                       std::size_t n, std::size_t k, double* dst) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* b0 = b_base + j * b_stride;
    const double* b1 = b0 + b_stride;
    const double* b2 = b1 + b_stride;
    const double* b3 = b2 + b_stride;
    for (std::size_t t = 0; t < k; ++t) {
      double* d = dst + t * n + j;
      d[0] = b0[t];
      d[1] = b1[t];
      d[2] = b2[t];
      d[3] = b3[t];
    }
  }
  for (; j < n; ++j) {
    const double* brow = b_base + j * b_stride;
    for (std::size_t t = 0; t < k; ++t) dst[t * n + j] = brow[t];
  }
}

/// One product C += alpha * op(A) * B. op(A)(r, t) is a[r*a_rs + t*a_ts],
/// so a row-major A (NN, NT) and a transposed one (TN, TT) are the same
/// kernel with the strides swapped. B is row-major k x n: the caller's B,
/// or op(B) = B^T packed by pack_b_transposed.
struct GemmArgs {
  double alpha = 1.0;
  const double* a = nullptr;
  std::size_t a_rs = 0;
  std::size_t a_ts = 0;
  const double* b = nullptr;
  std::size_t ldb = 0;
  double* c = nullptr;
  std::size_t ldc = 0;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  bool fused = false;
};

/// The A factor of one term: alpha * a, or a itself at unit alpha, where
/// 1.0 * a == a exactly.
template <bool Unit>
DARL_SIMD_INLINE double a_term(double alpha, const double* p) {
  return Unit ? *p : alpha * *p;
}

/// acc += a * b lane-wise: rounded after the multiply and after the add,
/// or once per term in the fused fast-math tier.
template <bool Fused>
DARL_SIMD_INLINE void mul_add(V4d& acc, const V4d& a, const V4d& b) {
  if constexpr (Fused) {
    DARL_SIMD_UNROLL
    for (int l = 0; l < 4; ++l) acc[l] = std::fma(a[l], b[l], acc[l]);
  } else {
    acc += a * b;
  }
}

/// Microkernel: an MR x 4*NV tile of C (rows r.., columns j..) stays in
/// registers for the whole contraction. Per t, NV vectors of B row t meet
/// MR broadcast A terms; each lane is one element's chain.
template <std::size_t MR, std::size_t NV, bool Unit, bool Fused>
DARL_SIMD_INLINE void tile(const GemmArgs& g, std::size_t r, std::size_t j) {
  V4d acc[MR][NV];
  DARL_SIMD_UNROLL
  for (std::size_t i = 0; i < MR; ++i) {
    DARL_SIMD_UNROLL
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&acc[i][v], g.c + (r + i) * g.ldc + j + 4 * v, sizeof(V4d));
    }
  }
  const double* pa = g.a + r * g.a_rs;
  const double* pb = g.b + j;
  for (std::size_t t = 0; t < g.k; ++t, pa += g.a_ts, pb += g.ldb) {
    V4d bv[NV];
    DARL_SIMD_UNROLL
    for (std::size_t v = 0; v < NV; ++v) std::memcpy(&bv[v], pb + 4 * v, sizeof(V4d));
    DARL_SIMD_UNROLL
    for (std::size_t i = 0; i < MR; ++i) {
      const double ai = a_term<Unit>(g.alpha, pa + i * g.a_rs);
      const V4d av = {ai, ai, ai, ai};
      DARL_SIMD_UNROLL
      for (std::size_t v = 0; v < NV; ++v) mul_add<Fused>(acc[i][v], av, bv[v]);
    }
  }
  DARL_SIMD_UNROLL
  for (std::size_t i = 0; i < MR; ++i) {
    DARL_SIMD_UNROLL
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(g.c + (r + i) * g.ldc + j + 4 * v, &acc[i][v], sizeof(V4d));
    }
  }
}

/// Narrow-column tile: NC (< 4) columns of four rows, one vector per
/// column whose lanes are the four rows' independent chains — the shape
/// of an output head (n = 1, 2) and of the n % 4 tail.
template <std::size_t NC, bool Unit, bool Fused>
DARL_SIMD_INLINE void tile_cols(const GemmArgs& g, std::size_t r, std::size_t j) {
  const std::size_t rs = g.a_rs;
  double* pc = g.c + r * g.ldc + j;
  V4d acc[NC];
  DARL_SIMD_UNROLL
  for (std::size_t c = 0; c < NC; ++c) {
    const double lanes[4] = {pc[c], pc[g.ldc + c], pc[2 * g.ldc + c],
                             pc[3 * g.ldc + c]};
    std::memcpy(&acc[c], lanes, sizeof(V4d));
  }
  const double* pa = g.a + r * rs;
  const double* pb = g.b + j;
  for (std::size_t t = 0; t < g.k; ++t, pa += g.a_ts, pb += g.ldb) {
    const V4d av = {a_term<Unit>(g.alpha, pa), a_term<Unit>(g.alpha, pa + rs),
                    a_term<Unit>(g.alpha, pa + 2 * rs),
                    a_term<Unit>(g.alpha, pa + 3 * rs)};
    DARL_SIMD_UNROLL
    for (std::size_t c = 0; c < NC; ++c) {
      mul_add<Fused>(acc[c], av, V4d{pb[c], pb[c], pb[c], pb[c]});
    }
  }
  DARL_SIMD_UNROLL
  for (std::size_t c = 0; c < NC; ++c) {
    DARL_SIMD_UNROLL
    for (std::size_t i = 0; i < 4; ++i) pc[i * g.ldc + c] = acc[c][i];
  }
}

/// One element's chain, for the corner left by a row tail and a column
/// tail.
template <bool Unit, bool Fused>
DARL_SIMD_INLINE void element(const GemmArgs& g, std::size_t r, std::size_t j) {
  double acc = g.c[r * g.ldc + j];
  const double* pa = g.a + r * g.a_rs;
  const double* pb = g.b + j;
  for (std::size_t t = 0; t < g.k; ++t, pa += g.a_ts, pb += g.ldb) {
    const double ai = a_term<Unit>(g.alpha, pa);
    if constexpr (Fused) {
      acc = std::fma(ai, *pb, acc);
    } else {
      acc += ai * *pb;
    }
  }
  g.c[r * g.ldc + j] = acc;
}

/// Tile C rows [r0, r1) — any range, so the pool may split rows anywhere:
/// 4-row blocks across 8-, 4- and narrow-column tiles, then single rows.
template <bool Unit, bool Fused>
DARL_SIMD_INLINE void tile_rows(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  std::size_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    std::size_t j = 0;
    for (; j + 8 <= g.n; j += 8) tile<4, 2, Unit, Fused>(g, r, j);
    if (j + 4 <= g.n) {
      tile<4, 1, Unit, Fused>(g, r, j);
      j += 4;
    }
    switch (g.n - j) {
      case 3: tile_cols<3, Unit, Fused>(g, r, j); break;
      case 2: tile_cols<2, Unit, Fused>(g, r, j); break;
      case 1: tile_cols<1, Unit, Fused>(g, r, j); break;
      default: break;
    }
  }
  for (; r < r1; ++r) {
    std::size_t j = 0;
    for (; j + 8 <= g.n; j += 8) tile<1, 2, Unit, Fused>(g, r, j);
    if (j + 4 <= g.n) {
      tile<1, 1, Unit, Fused>(g, r, j);
      j += 4;
    }
    for (; j < g.n; ++j) element<Unit, Fused>(g, r, j);
  }
}

template <bool Fused>
DARL_SIMD_INLINE void gemm_rows_impl(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  if (g.alpha == 1.0) {
    tile_rows<true, Fused>(g, r0, r1);
  } else {
    tile_rows<false, Fused>(g, r0, r1);
  }
}

DARL_SIMD_CLONES void gemm_rows(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  gemm_rows_impl<false>(g, r0, r1);
}

/// The fast-math tier: the same kernel with a fused op, compiled for
/// AVX2+FMA. Reachable only when fast_math_active(), which requires both.
#if DARL_SIMD_X86
__attribute__((target("avx2,fma")))
#endif
void gemm_rows_fused(const GemmArgs& g, std::size_t r0, std::size_t r1) {
  gemm_rows_impl<true>(g, r0, r1);
}

/// Register-blocked dot-product NT kernel for small outputs (m below
/// kNtPackMinRows): four C columns share one ascending-t pass, each with
/// its own scalar chain. This is the serving kernel: packing would cost
/// as much as the whole product at these sizes. Always scalar — the
/// fast-math tier only covers the packed shapes.
void nt_small(double alpha, const double* a_base, std::size_t a_stride,
              const double* b_base, std::size_t b_stride, std::size_t m,
              std::size_t n, std::size_t k, double* c_base,
              std::size_t c_stride) {
  for (std::size_t r = 0; r < m; ++r) {
    const double* pa = a_base + r * a_stride;
    double* crow = c_base + r * c_stride;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* pb0 = b_base + (j + 0) * b_stride;
      const double* pb1 = b_base + (j + 1) * b_stride;
      const double* pb2 = b_base + (j + 2) * b_stride;
      const double* pb3 = b_base + (j + 3) * b_stride;
      double acc0 = crow[j + 0];
      double acc1 = crow[j + 1];
      double acc2 = crow[j + 2];
      double acc3 = crow[j + 3];
      for (std::size_t t = 0; t < k; ++t) {
        const double av = alpha * pa[t];
        acc0 += av * pb0[t];
        acc1 += av * pb1[t];
        acc2 += av * pb2[t];
        acc3 += av * pb3[t];
      }
      crow[j + 0] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const double* pb = b_base + j * b_stride;
      double acc = crow[j];
      for (std::size_t t = 0; t < k; ++t) acc += (alpha * pa[t]) * pb[t];
      crow[j] = acc;
    }
  }
}

/// Fixed tile ownership: worker w of `width` owns C rows
/// [m*w/width, m*(w+1)/width) — contiguous, disjoint, and a pure function
/// of (w, width), so the schedule (and every write) is identical across
/// runs and across threaded vs inline execution.
void gemm_chunk(void* vctx, std::size_t w, std::size_t width) {
  const GemmArgs& g = *static_cast<const GemmArgs*>(vctx);
  const std::size_t r0 = (g.m * w) / width;
  const std::size_t r1 = (g.m * (w + 1)) / width;
  if (r0 >= r1) return;
  if (g.fused) {
    gemm_rows_fused(g, r0, r1);
  } else {
    gemm_rows(g, r0, r1);
  }
}

/// Route a product through the pool when its volume clears the parallel
/// threshold, inline otherwise. Inline is chunk (0, 1) — the whole row
/// range in one call.
void dispatch_chunks(GemmArgs& g) {
  linalg::ThreadPool& pool = linalg::ThreadPool::instance();
  if (pool.width() > 1 && g.m * g.n * g.k >= kParallelMinVolume) {
    pool.run(&gemm_chunk, &g);
  } else {
    gemm_chunk(&g, 0, 1);
  }
}

}  // namespace

void set_fast_math(bool on) {
  g_fast_math.store(on && cpu_has_fast_math(), std::memory_order_relaxed);
}

bool fast_math_active() {
  return g_fast_math.load(std::memory_order_relaxed);
}

void Matrix::gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                  bool trans_b, Matrix& c) {
  const std::size_t m = trans_a ? a.cols_ : a.rows_;
  const std::size_t kdim = trans_a ? a.rows_ : a.cols_;
  const std::size_t n = trans_b ? b.rows_ : b.cols_;
  const std::size_t bk = trans_b ? b.cols_ : b.rows_;
  DARL_CHECK(kdim == bk, "gemm inner-dimension mismatch: op(A) is "
                             << m << "x" << kdim << ", op(B) is " << bk << "x"
                             << n);
  DARL_CHECK(c.rows_ == m && c.cols_ == n,
             "gemm output shape mismatch: C is " << c.rows_ << "x" << c.cols_
                                                 << ", expected " << m << "x"
                                                 << n);
  if (!trans_a && trans_b && m < kNtPackMinRows) {
    // C += alpha * A * B^T at serving batch sizes (Z = X * W^T).
    nt_small(alpha, a.data_.data(), a.cols_, b.data_.data(), b.cols_, m, n,
             kdim, c.data_.data(), c.cols_);
    return;
  }
  GemmArgs g;
  g.alpha = alpha;
  g.a = a.data_.data();
  g.a_rs = trans_a ? 1 : a.cols_;
  g.a_ts = trans_a ? a.cols_ : 1;
  if (trans_b) {
    // op(B) = B^T (the forward pass's W^T): packed once into a k x n
    // panel — layout only, no arithmetic.
    double* pack = pack_workspace(kdim * n);
    pack_b_transposed(b.data_.data(), b.cols_, n, kdim, pack);
    g.b = pack;
    g.ldb = n;
  } else {
    g.b = b.data_.data();
    g.ldb = b.cols_;
  }
  g.c = c.data_.data();
  g.ldc = c.cols_;
  g.m = m;
  g.n = n;
  g.k = kdim;
  g.fused = fast_math_active();
  dispatch_chunks(g);
}

Matrix Matrix::multiply(const Matrix& a, const Matrix& b) {
  DARL_CHECK(a.cols_ == b.rows_,
             "multiply shape mismatch: " << a.rows_ << "x" << a.cols_ << " * "
                                         << b.rows_ << "x" << b.cols_);
  Matrix c(a.rows_, b.cols_, 0.0);
  gemm(1.0, a, false, b, false, c);
  return c;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

void Matrix::randomize_kaiming(Rng& rng, double gain) {
  DARL_CHECK(gain > 0.0, "non-positive init gain " << gain);
  const double stddev = gain / std::sqrt(static_cast<double>(cols_));
  for (double& v : data_) v = rng.normal(0.0, stddev);
}

DARL_SIMD_CLONES void add_bias(Matrix& m, const Vec& bias) {
  DARL_CHECK(bias.size() == m.cols(),
             "add_bias: bias has " << bias.size() << ", cols " << m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.row(r);
    for (std::size_t c = 0; c < bias.size(); ++c) row[c] += bias[c];
  }
}

void apply_tanh(Matrix& m) {
  for (double& v : m.data()) v = std::tanh(v);
}

DARL_SIMD_CLONES void apply_relu(Matrix& m) {
  for (double& v : m.data()) v = v > 0.0 ? v : 0.0;
}

namespace {

/// d[i] *= a[i] > 0 ? 1.0 : 0.0 as a compare-and-blend: every lane
/// multiplies, by 1.0 or by 0.0, exactly like the scalar form.
DARL_SIMD_CLONES void relu_grad_kernel(double* d, const double* a, std::size_t n) {
  const V4d one = {1.0, 1.0, 1.0, 1.0};
  const V4d zero = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V4d dv;
    V4d av;
    std::memcpy(&dv, d + i, sizeof(V4d));
    std::memcpy(&av, a + i, sizeof(V4d));
    dv *= av > zero ? one : zero;
    std::memcpy(d + i, &dv, sizeof(V4d));
  }
  for (; i < n; ++i) d[i] *= a[i] > 0.0 ? 1.0 : 0.0;
}

}  // namespace

void scale_by_relu_grad(Matrix& delta, const Matrix& act) {
  DARL_CHECK(delta.rows() == act.rows() && delta.cols() == act.cols(),
             "scale_by_relu_grad shape mismatch");
  relu_grad_kernel(delta.data().data(), act.data().data(), delta.size());
}

}  // namespace darl
