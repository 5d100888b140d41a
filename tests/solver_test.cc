// Golden-equivalence tests for the shared RidgeSolver engine.
//
// The refactor that moved every trainer onto RidgeSolver promises bitwise
// identical results to the per-trainer solve loops it replaced. These tests
// keep local copies of the pre-refactor arithmetic (normal equations and
// per-column damped LSQR, exactly as they lived in core/srda.cc) and
// require MaxAbsDiff == 0 against the engine on fixed-seed data, dense and
// sparse, at several thread counts.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/linear_operator.h"
#include "linalg/lsqr.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"
#include "sparse/sparse_matrix.h"
#include "tests/dense_rows.h"
#include "tests/serial_lsqr.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) x(i, j) = rng.NextGaussian();
  }
  return x;
}

// Random sparse matrix with ~30% density (zeros give the sparse kernels'
// zero-skip branch coverage).
SparseMatrix RandomSparse(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  SparseMatrixBuilder builder(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.3) builder.Add(i, j, rng.NextGaussian());
    }
  }
  return std::move(builder).Build();
}

// Verbatim copy of the pre-refactor dense normal-equations path
// (core/srda.cc, SolveNormalEquations).
bool ReferenceNormalEquations(const Matrix& x, const Matrix& responses,
                              double alpha, Matrix* projection, Vector* bias) {
  const int m = x.rows();
  const int n = x.cols();
  const int d = responses.cols();
  const Vector mean = ColumnMeans(x);
  Matrix centered = x;
  SubtractRowVector(mean, &centered);
  Cholesky chol;
  if (n <= m) {
    Matrix gram = Gram(centered);
    AddDiagonal(alpha, &gram);
    if (!chol.Factor(gram)) return false;
    *projection = chol.SolveMatrix(MultiplyTransposedA(centered, responses));
  } else {
    Matrix gram = OuterGram(centered);
    AddDiagonal(alpha, &gram);
    if (!chol.Factor(gram)) return false;
    const Matrix dual = chol.SolveMatrix(responses);
    *projection = MultiplyTransposedA(centered, dual);
  }
  *bias = Vector(d);
  const Vector mean_projected = MultiplyTransposed(*projection, mean);
  for (int j = 0; j < d; ++j) (*bias)[j] = -mean_projected[j];
  return true;
}

// Verbatim copy of the pre-refactor per-column LSQR path on the implicitly
// centered operator (core/srda.cc, SolveWithLsqr), minus the thread pool:
// each column was the unchanged serial recurrence (tests/serial_lsqr.h), so
// a plain loop is the same arithmetic.
void ReferenceLsqrCentered(const LinearOperator& data, const Matrix& responses,
                           double alpha, int max_iterations, Matrix* projection,
                           Vector* bias, int* total_iterations) {
  const int m = data.rows();
  const int n = data.cols();
  const int d = responses.cols();
  Vector mean = ApplyTransposedColumn(data, Vector(m, 1.0));
  Scale(1.0 / m, &mean);
  const CenterColumnsOperator centered(&data, &mean);
  LsqrOptions lsqr_options;
  lsqr_options.max_iterations = max_iterations;
  lsqr_options.damp = std::sqrt(alpha);
  lsqr_options.atol = 1e-10;
  lsqr_options.btol = 1e-10;
  *projection = Matrix(n, d);
  *bias = Vector(d);
  *total_iterations = 0;
  for (int j = 0; j < d; ++j) {
    const LsqrResult result =
        SerialLsqr(centered, responses.Col(j), lsqr_options);
    *total_iterations += result.iterations;
    for (int i = 0; i < n; ++i) (*projection)(i, j) = result.x[i];
    (*bias)[j] = -Dot(mean, result.x);
  }
}

TEST(RidgeSolverTest, PrimalNormalEquationsMatchGoldenBitwise) {
  const Matrix x = RandomMatrix(40, 12, 7);  // m > n: primal Gram.
  const Matrix responses = RandomMatrix(40, 3, 8);
  Matrix golden_projection;
  Vector golden_bias;
  ASSERT_TRUE(ReferenceNormalEquations(x, responses, 0.05, &golden_projection,
                                       &golden_bias));
  RidgeSolver solver(&x);
  const RidgeSolution solution = solver.Solve(responses, 0.05);
  ASSERT_TRUE(solution.ok);
  EXPECT_EQ(0.0, MaxAbsDiff(solution.coefficients, golden_projection));
  EXPECT_EQ(0.0, MaxAbsDiff(solution.bias, golden_bias));
  EXPECT_EQ(0, solution.total_lsqr_iterations);
}

TEST(RidgeSolverTest, DualNormalEquationsMatchGoldenBitwise) {
  const Matrix x = RandomMatrix(15, 50, 9);  // n > m: dual Gram (Eqn. 21).
  const Matrix responses = RandomMatrix(15, 2, 10);
  Matrix golden_projection;
  Vector golden_bias;
  ASSERT_TRUE(ReferenceNormalEquations(x, responses, 0.7, &golden_projection,
                                       &golden_bias));
  RidgeSolver solver(&x);
  const RidgeSolution solution = solver.Solve(responses, 0.7);
  ASSERT_TRUE(solution.ok);
  EXPECT_EQ(0.0, MaxAbsDiff(solution.coefficients, golden_projection));
  EXPECT_EQ(0.0, MaxAbsDiff(solution.bias, golden_bias));
}

TEST(RidgeSolverTest, DenseLsqrMatchesGoldenBitwise) {
  const Matrix x = RandomMatrix(30, 14, 11);
  const Matrix responses = RandomMatrix(30, 3, 12);
  const DenseRows data_rows(&x);
  const LinearOperator& data = data_rows.op;
  Matrix golden_projection;
  Vector golden_bias;
  int golden_iterations = 0;
  ReferenceLsqrCentered(data, responses, 0.2, 25, &golden_projection,
                        &golden_bias, &golden_iterations);
  RidgeSolver solver(&x);
  RidgeSolveOptions options;
  options.method = RidgeMethod::kLsqr;
  options.lsqr_iterations = 25;
  const RidgeSolution solution = solver.Solve(responses, 0.2, options);
  ASSERT_TRUE(solution.ok);
  EXPECT_EQ(0.0, MaxAbsDiff(solution.coefficients, golden_projection));
  EXPECT_EQ(0.0, MaxAbsDiff(solution.bias, golden_bias));
  EXPECT_EQ(golden_iterations, solution.total_lsqr_iterations);
}

TEST(RidgeSolverTest, SparseLsqrMatchesGoldenBitwise) {
  const SparseMatrix x = RandomSparse(35, 20, 13);
  const Matrix responses = RandomMatrix(35, 3, 14);
  const SparseOperator data(&x);
  Matrix golden_projection;
  Vector golden_bias;
  int golden_iterations = 0;
  ReferenceLsqrCentered(data, responses, 0.4, 30, &golden_projection,
                        &golden_bias, &golden_iterations);
  RidgeSolver solver(&data);
  RidgeSolveOptions options;
  options.lsqr_iterations = 30;
  const RidgeSolution solution = solver.Solve(responses, 0.4, options);
  ASSERT_TRUE(solution.ok);
  EXPECT_EQ(0.0, MaxAbsDiff(solution.coefficients, golden_projection));
  EXPECT_EQ(0.0, MaxAbsDiff(solution.bias, golden_bias));
  EXPECT_EQ(golden_iterations, solution.total_lsqr_iterations);
}

TEST(RidgeSolverTest, GramBindingMatchesDirectCholesky) {
  const Matrix x = RandomMatrix(20, 20, 17);
  Matrix base = Gram(x);  // SPD after the ridge shift.
  const Matrix responses = RandomMatrix(20, 3, 18);
  Matrix shifted = base;
  AddDiagonal(0.6, &shifted);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(shifted));
  const Matrix golden = chol.SolveMatrix(responses);
  RidgeSolver solver = RidgeSolver::FromGram(std::move(base));
  const RidgeSolution solution = solver.Solve(responses, 0.6);
  ASSERT_TRUE(solution.ok);
  EXPECT_EQ(0.0, MaxAbsDiff(solution.coefficients, golden));
  EXPECT_EQ(0, solution.bias.size());
}

TEST(LsqrBatchTest, MatchesPerColumnLsqrBitwise) {
  const SparseMatrix x = RandomSparse(40, 22, 19);
  const SparseOperator data(&x);
  const Matrix b = RandomMatrix(40, 4, 20);
  LsqrOptions options;
  options.max_iterations = 35;
  options.damp = 0.3;
  const std::vector<LsqrResult> batched = LsqrBatch(data, b, options);
  ASSERT_EQ(4u, batched.size());
  for (int j = 0; j < 4; ++j) {
    const LsqrResult serial = SerialLsqr(data, b.Col(j), options);
    EXPECT_EQ(0.0, MaxAbsDiff(batched[static_cast<size_t>(j)].x, serial.x))
        << "column " << j;
    EXPECT_EQ(serial.iterations, batched[static_cast<size_t>(j)].iterations)
        << "column " << j;
    EXPECT_EQ(serial.residual_norm,
              batched[static_cast<size_t>(j)].residual_norm)
        << "column " << j;
    EXPECT_EQ(serial.converged, batched[static_cast<size_t>(j)].converged)
        << "column " << j;
  }
}

TEST(LsqrBatchTest, MixedConvergenceMatchesSerial) {
  // Columns that converge at different iterations exercise the freeze/pack
  // logic: the batch must keep late columns running bitwise-identically
  // after early ones drop out.
  const Matrix dense = RandomMatrix(30, 10, 21);
  const DenseRows data_rows(&dense);
  const LinearOperator& data = data_rows.op;
  Matrix b = RandomMatrix(30, 3, 22);
  // Make column 0 exactly solvable (in the range of A) so it converges fast.
  const Vector seed_x = RandomMatrix(10, 1, 23).Col(0);
  const Vector ax = ApplyColumn(data, seed_x);
  for (int i = 0; i < 30; ++i) b(i, 0) = ax[i];
  LsqrOptions options;
  options.max_iterations = 60;
  const std::vector<LsqrResult> batched = LsqrBatch(data, b, options);
  for (int j = 0; j < 3; ++j) {
    const LsqrResult serial = SerialLsqr(data, b.Col(j), options);
    EXPECT_EQ(0.0, MaxAbsDiff(batched[static_cast<size_t>(j)].x, serial.x))
        << "column " << j;
    EXPECT_EQ(serial.iterations, batched[static_cast<size_t>(j)].iterations)
        << "column " << j;
  }
}

TEST(RidgeSolverTest, ResultsIdenticalAcrossThreadCounts) {
  const SparseMatrix sparse = RandomSparse(60, 30, 24);
  const SparseOperator data(&sparse);
  const Matrix dense = RandomMatrix(50, 25, 25);
  const Matrix responses_sparse = RandomMatrix(60, 3, 26);
  const Matrix responses_dense = RandomMatrix(50, 3, 27);

  Matrix lsqr_coeffs[2], ne_coeffs[2];
  Vector lsqr_bias[2], ne_bias[2];
  const int thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    SetGlobalThreadCount(thread_counts[t]);
    RidgeSolver lsqr_solver(&data);
    const RidgeSolution lsqr = lsqr_solver.Solve(responses_sparse, 0.1);
    ASSERT_TRUE(lsqr.ok);
    lsqr_coeffs[t] = lsqr.coefficients;
    lsqr_bias[t] = lsqr.bias;
    RidgeSolver ne_solver(&dense);
    const RidgeSolution ne = ne_solver.Solve(responses_dense, 0.1);
    ASSERT_TRUE(ne.ok);
    ne_coeffs[t] = ne.coefficients;
    ne_bias[t] = ne.bias;
  }
  SetGlobalThreadCount(0);  // Restore the environment default.
  EXPECT_EQ(0.0, MaxAbsDiff(lsqr_coeffs[0], lsqr_coeffs[1]));
  EXPECT_EQ(0.0, MaxAbsDiff(lsqr_bias[0], lsqr_bias[1]));
  EXPECT_EQ(0.0, MaxAbsDiff(ne_coeffs[0], ne_coeffs[1]));
  EXPECT_EQ(0.0, MaxAbsDiff(ne_bias[0], ne_bias[1]));
}

TEST(RidgeSolverTest, GramCacheReuseMatchesFreshSolver) {
  // One solver sweeping alpha1 -> alpha2 -> alpha1 must give exactly the
  // answers of a fresh solver per alpha: the cache only skips the Gram
  // product, never changes it.
  const Matrix x = RandomMatrix(30, 16, 28);
  const Matrix responses = RandomMatrix(30, 3, 29);
  RidgeSolver sweeping(&x);
  const double alphas[3] = {0.05, 2.0, 0.05};
  for (double alpha : alphas) {
    const RidgeSolution swept = sweeping.Solve(responses, alpha);
    RidgeSolver fresh(&x);
    const RidgeSolution direct = fresh.Solve(responses, alpha);
    ASSERT_TRUE(swept.ok);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(0.0, MaxAbsDiff(swept.coefficients, direct.coefficients))
        << "alpha " << alpha;
    EXPECT_EQ(0.0, MaxAbsDiff(swept.bias, direct.bias)) << "alpha " << alpha;
  }
}

TEST(RidgeSolverTest, FactorAtCachesAndRecovers) {
  Matrix x(6, 3);  // All zeros: the Gram is singular at alpha == 0.
  RidgeSolver solver(&x);
  EXPECT_EQ(nullptr, solver.FactorAt(0.0));
  const RidgeSolution failed = solver.Solve(Matrix(6, 2), 0.0);
  EXPECT_FALSE(failed.ok);
  // The same solver recovers at a positive alpha.
  const Cholesky* factor = solver.FactorAt(1.0);
  ASSERT_NE(nullptr, factor);
  EXPECT_EQ(factor, solver.FactorAt(1.0));  // Cached: same object back.
  const RidgeSolution solved = solver.Solve(Matrix(6, 2), 1.0);
  EXPECT_TRUE(solved.ok);
}

Matrix DropRows(const Matrix& x, const std::vector<int>& rows) {
  Matrix kept(x.rows() - static_cast<int>(rows.size()), x.cols());
  int out = 0;
  size_t next = 0;
  for (int i = 0; i < x.rows(); ++i) {
    if (next < rows.size() && rows[next] == i) {
      ++next;
      continue;
    }
    for (int j = 0; j < x.cols(); ++j) kept(out, j) = x(i, j);
    ++out;
  }
  return kept;
}

// Byte-for-byte equality of two solutions' coefficients and bias.
void ExpectSameBits(const RidgeSolution& got, const RidgeSolution& want) {
  ASSERT_EQ(got.coefficients.rows(), want.coefficients.rows());
  ASSERT_EQ(got.coefficients.cols(), want.coefficients.cols());
  ASSERT_EQ(got.bias.size(), want.bias.size());
  EXPECT_EQ(0, std::memcmp(got.coefficients.data(), want.coefficients.data(),
                           sizeof(double) * got.coefficients.rows() *
                               got.coefficients.cols()));
  EXPECT_EQ(0, std::memcmp(got.bias.data(), want.bias.data(),
                           sizeof(double) * got.bias.size()));
}

TEST(RidgeSolverTest, ExcludeRowsPrimalMatchesFreshSolverOnSubset) {
  // The held-out-rows solver is a fresh solver on the kept rows, so every
  // alpha of a sweep gives that solver's bits. m > n keeps it primal.
  const Matrix x = RandomMatrix(40, 12, 41);
  const Matrix responses = RandomMatrix(34, 3, 42);
  const std::vector<int> fold = {3, 7, 8, 19, 25, 31};
  const Matrix kept = DropRows(x, fold);
  RidgeSolver parent(&x);
  RidgeSolver child = parent.ExcludeRows(fold);
  for (double alpha : {0.05, 2.0, 0.05}) {
    const RidgeSolution fold_solution = child.Solve(responses, alpha);
    RidgeSolver fresh(&kept);
    const RidgeSolution direct = fresh.Solve(responses, alpha);
    ASSERT_TRUE(fold_solution.ok);
    ASSERT_TRUE(direct.ok);
    SCOPED_TRACE(alpha);
    ExpectSameBits(fold_solution, direct);
  }
}

TEST(RidgeSolverTest, ExcludeRowsDualMatchesFreshSolverOnSubset) {
  // n > m puts the kept rows on the dual side through GramSide::kAuto.
  // Boundary indices (first and last row) included.
  const Matrix x = RandomMatrix(15, 50, 43);
  const Matrix responses = RandomMatrix(11, 2, 44);
  const std::vector<int> fold = {0, 4, 9, 14};
  const Matrix kept = DropRows(x, fold);
  RidgeSolver parent(&x);
  RidgeSolver child = parent.ExcludeRows(fold);
  for (double alpha : {0.1, 1.5}) {
    const RidgeSolution fold_solution = child.Solve(responses, alpha);
    RidgeSolver fresh(&kept);
    const RidgeSolution direct = fresh.Solve(responses, alpha);
    ASSERT_TRUE(fold_solution.ok);
    ASSERT_TRUE(direct.ok);
    SCOPED_TRACE(alpha);
    ExpectSameBits(fold_solution, direct);
  }
}

TEST(RidgeSolverTest, ExcludeRowsPreservesFailureContract) {
  // Excluding enough rows makes the kept rows' Gram singular: at
  // alpha == 0 FactorAt returns nullptr and Solve reports ok == false,
  // exactly like a fresh solver. A positive alpha then solves with the
  // fresh solver's bits.
  const Matrix x = RandomMatrix(14, 10, 45);
  const std::vector<int> fold = {1, 2, 5, 6, 8, 10, 11, 13};
  const Matrix kept = DropRows(x, fold);  // 6 rows < 10 cols: singular Gram.
  RidgeSolver parent(&x);
  RidgeSolver child = parent.ExcludeRows(fold);
  EXPECT_EQ(nullptr, child.FactorAt(0.0));
  const RidgeSolution failed = child.Solve(Matrix(6, 2), 0.0);
  EXPECT_FALSE(failed.ok);
  const Matrix responses = RandomMatrix(6, 2, 46);
  const RidgeSolution recovered = child.Solve(responses, 0.5);
  ASSERT_TRUE(recovered.ok);
  RidgeSolver fresh(&kept);
  const RidgeSolution direct = fresh.Solve(responses, 0.5);
  ASSERT_TRUE(direct.ok);
  ExpectSameBits(recovered, direct);
}

TEST(RidgeSolverDeathTest, ExcludeRowsRejectsUnsortedRows) {
  const Matrix x = RandomMatrix(8, 4, 47);
  RidgeSolver parent(&x);
  EXPECT_DEATH(parent.ExcludeRows({3, 1}), "sorted");
}

TEST(RidgeSolverTest, DenseAccessorsExposeCenteredData) {
  const Matrix x = RandomMatrix(12, 5, 30);
  RidgeSolver solver(&x);
  const Vector golden_mean = ColumnMeans(x);
  Matrix golden_centered = x;
  SubtractRowVector(golden_mean, &golden_centered);
  EXPECT_EQ(0.0, MaxAbsDiff(solver.mean(), golden_mean));
  EXPECT_EQ(0.0, MaxAbsDiff(solver.centered(), golden_centered));
}

}  // namespace
}  // namespace srda
