// Unit tests for darl/linalg: vector kernels and the dense matrix.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/common/stats.hpp"
#include "darl/linalg/matrix.hpp"
#include "darl/linalg/thread_pool.hpp"
#include "darl/linalg/vec.hpp"

namespace darl {
namespace {

TEST(Vec, AxpyAddSub) {
  Vec y{1.0, 2.0};
  axpy(2.0, Vec{3.0, 4.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  EXPECT_THROW(axpy(1.0, Vec{1.0}, y), InvalidArgument);

  const Vec s = add({1.0, 2.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(s[1], 6.0);
  const Vec d = sub({1.0, 2.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(d[0], -2.0);
}

TEST(Vec, DotNormScale) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf({-7.0, 2.0}), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf({}), 0.0);
  Vec x{1.0, -2.0};
  scale(x, -2.0);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  const Vec sc = scaled({1.0, 2.0}, 3.0);
  EXPECT_DOUBLE_EQ(sc[1], 6.0);
}

TEST(Vec, HadamardClampFinite) {
  const Vec h = hadamard({2.0, 3.0}, {4.0, -1.0});
  EXPECT_DOUBLE_EQ(h[0], 8.0);
  EXPECT_DOUBLE_EQ(h[1], -3.0);
  const Vec c = clamped({-5.0, 0.5, 5.0}, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(c[0], -1.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_DOUBLE_EQ(c[2], 1.0);
  EXPECT_TRUE(all_finite({1.0, 2.0}));
  EXPECT_FALSE(all_finite({1.0, std::nan("")}));
}

TEST(Vec, RmsNormScaled) {
  // sqrt(mean((x/s)^2)) with x = {3,4}, s = {1,2} -> sqrt((9+4)/2)
  EXPECT_NEAR(rms_norm_scaled({3.0, 4.0}, {1.0, 2.0}), std::sqrt(6.5), 1e-14);
  EXPECT_THROW(rms_norm_scaled({1.0}, {0.0}), InvalidArgument);
  EXPECT_DOUBLE_EQ(rms_norm_scaled({}, {}), 0.0);
}

TEST(Matrix, MatvecAndTranspose) {
  Matrix a(2, 3);
  // [[1,2,3],[4,5,6]]
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      a(r, c) = static_cast<double>(r * 3 + c + 1);
  const Vec y = a.matvec({1.0, 0.0, -1.0});
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  const Vec z = a.matvec_t({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_THROW(a.matvec({1.0}), InvalidArgument);
}

TEST(Matrix, AddOuterAndAddScaled) {
  Matrix a(2, 2, 1.0);
  a.add_outer(2.0, {1.0, 0.0}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(a(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);

  Matrix b(2, 2, 0.5);
  a.add_scaled(2.0, b);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
  Matrix wrong(3, 2);
  EXPECT_THROW(a.add_scaled(1.0, wrong), InvalidArgument);
}

TEST(Matrix, MultiplyAgainstManual) {
  Matrix a(2, 3), b(3, 2);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<double>(i + 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = static_cast<double>(i);
  const Matrix c = Matrix::multiply(a, b);
  // a = [[1,2,3],[4,5,6]]; b = [[0,1],[2,3],[4,5]]
  EXPECT_DOUBLE_EQ(c(0, 0), 16.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 34.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 49.0);
  EXPECT_THROW(Matrix::multiply(a, a), InvalidArgument);
}

TEST(Matrix, BoundsCheckedAccess) {
  Matrix a(2, 2);
  EXPECT_THROW(a.at(2, 0), InvalidArgument);
  EXPECT_THROW(a.at(0, 2), InvalidArgument);
  a.at(1, 1) = 5.0;
  EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
  EXPECT_THROW(Matrix(0, 3), InvalidArgument);
}

TEST(Matrix, KaimingInitStatistics) {
  Rng rng(3);
  Matrix w(64, 256);
  w.randomize_kaiming(rng, 1.0);
  RunningStats s;
  for (double v : w.data()) s.push(v);
  EXPECT_NEAR(s.mean(), 0.0, 0.002);
  EXPECT_NEAR(s.stddev(), 1.0 / 16.0, 0.002);  // gain/sqrt(cols) = 1/16
}

// ---------------------------------------------------------------------------
// Register-blocked / threaded gemm vs. the canonical accumulation chain
//
// Matrix::gemm documents one per-element contract: each C(i, j) is the
// stored value extended by (alpha * a_it) * b_tj terms in ascending t, one
// multiply and one add per term. The reference below is that contract
// written as the plainest possible triple loop. Register tiling, vector
// width, packing, the unit-alpha path and the pool's row partition must all
// be bitwise-invisible against it, at every width, for every flavour, on
// shapes chosen to stress the edges: prime dims, the 4-row blocks and
// their remainder, the 8-, 4- and narrow-column tiles (output heads of 1
// and 2 columns, every n % 8 remainder), k = 1, and m below the NT packing
// cutoff. Three shapes clear the pool's volume threshold, so widths 2 to 4
// split their rows at places that are not multiples of 4.

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal(0.0, 1.0);
  return m;
}

void reference_gemm(double alpha, const Matrix& a, bool trans_a,
                    const Matrix& b, bool trans_b, Matrix& c) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c(i, j);
      for (std::size_t t = 0; t < k; ++t) {
        const double a_it = trans_a ? a(t, i) : a(i, t);
        const double b_tj = trans_b ? b(j, t) : b(t, j);
        acc += (alpha * a_it) * b_tj;
      }
      c(i, j) = acc;
    }
  }
}

struct GemmShape {
  std::size_t m, n, k;
};

/// Run one flavour over the edge-case shape set at alpha 1 (the unit-alpha
/// path) and -0.75, at pool widths 1 to 4, and demand bitwise equality
/// with the reference chain every time.
void check_flavour_bitwise(bool trans_a, bool trans_b) {
  std::vector<GemmShape> shapes = {
      {13, 17, 71},   // prime dims
      {3, 5, 2},      // fewer rows than one 4-row block
      {67, 31, 64},   // odd m/n, every tile kind
      {9, 129, 130},  // long contraction, one column past the 8-wide tiles
      {1, 64, 64},    // single output row (NT: below the packing cutoff)
      {64, 1, 64},    // one-column output head
      {66, 2, 64},    // two-column head, m % 4 == 2
      {2, 64, 16},    // two-row TN weight gradient of a head
      {12, 9, 1},     // k = 1
      {8, 3, 7},      // NT at exactly the packing cutoff
      {129, 3, 340},  // narrow columns, split over the pool
  };
  for (std::size_t n = 16; n < 24; ++n) shapes.push_back({11, n, 5});  // n % 8
  linalg::ThreadPool& pool = linalg::ThreadPool::instance();
  Rng rng(17);
  for (const GemmShape& s : shapes) {
    const Matrix a = trans_a ? random_matrix(s.k, s.m, rng)
                             : random_matrix(s.m, s.k, rng);
    const Matrix b = trans_b ? random_matrix(s.n, s.k, rng)
                             : random_matrix(s.k, s.n, rng);
    const Matrix c0 = random_matrix(s.m, s.n, rng);  // nonzero seed values
    for (const double alpha : {1.0, -0.75}) {
      Matrix expected = c0;
      reference_gemm(alpha, a, trans_a, b, trans_b, expected);
      for (std::size_t width = 1; width <= 4; ++width) {
        pool.configure(width);
        Matrix c = c0;
        Matrix::gemm(alpha, a, trans_a, b, trans_b, c);
        for (std::size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(c.data()[i], expected.data()[i])
              << "flavour " << (trans_a ? "T" : "N") << (trans_b ? "T" : "N")
              << " shape " << s.m << "x" << s.n << "x" << s.k << " alpha "
              << alpha << " width " << width << " element " << i;
        }
      }
    }
  }
  pool.configure(linalg::env_thread_width());
}

TEST(GemmBitwise, NtMatchesReferenceChainAtAllWidths) {
  check_flavour_bitwise(false, true);
}

TEST(GemmBitwise, TnMatchesReferenceChainAtAllWidths) {
  check_flavour_bitwise(true, false);
}

TEST(GemmBitwise, NnMatchesReferenceChainAtAllWidths) {
  check_flavour_bitwise(false, false);
}

TEST(GemmBitwise, TtMatchesReferenceChain) {
  check_flavour_bitwise(true, true);
}

// The serving contract at the gemm level: row i of a batched NT product
// equals the same row computed as a batch of one (the small-m dot kernel),
// bitwise — rows are independent, so batching is invisible per sample.
TEST(GemmBitwise, NtBatchedRowsEqualPerRowProducts) {
  Rng rng(23);
  const std::size_t m = 64, n = 33, k = 67;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c(m, n, 0.0);
  Matrix::gemm(1.0, a, false, b, true, c);
  for (std::size_t i = 0; i < m; ++i) {
    Matrix arow(1, k);
    std::copy(a.row(i), a.row(i) + k, arow.data().begin());
    Matrix crow(1, n, 0.0);
    Matrix::gemm(1.0, arow, false, b, true, crow);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c(i, j), crow(0, j)) << "row " << i << " col " << j;
    }
  }
}

// Regression: configure() after a threaded run must restart the epoch
// along with the workers. A stale epoch woke freshly spawned workers
// straight into the previous run's task_/ctx_ — a dangling pointer to a
// returned stack frame (crashed the width-sweep bench). Alternate widths
// with parallel-sized runs between every reconfigure; each run must still
// match the reference chain, and the sanitizer trees watch the rest.
TEST(GemmBitwise, ReconfigureAfterThreadedRunStaysSound) {
  linalg::ThreadPool& pool = linalg::ThreadPool::instance();
  Rng rng(31);
  const std::size_t m = 64, n = 64, k = 64;  // above the parallel cutoff
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix c0 = random_matrix(m, n, rng);
  Matrix expected = c0;
  reference_gemm(1.0, a, false, b, true, expected);
  for (const std::size_t width : {std::size_t{4}, std::size_t{2},
                                  std::size_t{4}, std::size_t{1},
                                  std::size_t{4}}) {
    pool.configure(width);
    Matrix c = c0;
    Matrix::gemm(1.0, a, false, b, true, c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c.data()[i], expected.data()[i])
          << "width " << width << " element " << i;
    }
  }
  pool.configure(linalg::env_thread_width());
}

// The fast-math tier is opt-in, exempt from the bitwise contract, and
// bounded: each element may differ from the exactly-rounded result only by
// the fused-rounding slack k * u * sum_t |alpha * a_it * b_tj| (DESIGN.md
// §16). On hardware without AVX2+FMA set_fast_math(true) stays off and the
// diff is exactly zero, which the bound also accepts.
TEST(GemmBitwise, FastMathStaysWithinDivergenceBound) {
  Rng rng(29);
  const std::size_t m = 32, n = 48, k = 96;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix exact(m, n, 0.0);
  Matrix::gemm(1.0, a, false, b, true, exact);
  set_fast_math(true);
  Matrix fused(m, n, 0.0);
  Matrix::gemm(1.0, a, false, b, true, fused);
  set_fast_math(false);
  const double u = 0x1p-52;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double mag = 0.0;
      for (std::size_t t = 0; t < k; ++t) mag += std::abs(a(i, t) * b(j, t));
      ASSERT_LE(std::abs(fused(i, j) - exact(i, j)),
                static_cast<double>(k) * u * mag)
          << "element (" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace darl
