// Google-benchmark microbenchmarks for the numeric kernels every algorithm
// in the library is built from: dense products, Gram matrices, Cholesky,
// the symmetric eigensolver, SVD, QR, sparse mat-vec, and LSQR.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"
#include "linalg/linear_operator.h"
#include "linalg/lsqr.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "matrix/blas.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

Matrix RandomSpd(int n, Rng* rng) {
  Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = Gram(a);
  AddDiagonal(1.0, &spd);
  return spd;
}

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Gram(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const Matrix a = RandomMatrix(2 * n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gram(a));
  }
}
BENCHMARK(BM_Gram)->Arg(64)->Arg(128)->Arg(256);

void BM_Cholesky(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Matrix spd = RandomSpd(n, &rng);
  for (auto _ : state) {
    Cholesky chol;
    benchmark::DoNotOptimize(chol.Factor(spd));
  }
}
BENCHMARK(BM_Cholesky)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(680)
    ->Arg(1024);

void BM_SymmetricEigen(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const Matrix spd = RandomSpd(n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricEigen(spd));
  }
}
// 680 is perfbench faces_dense's dual Gram (the LDA baseline's eigen
// stage); 512 and 1024 bracket it with power-of-two row strides.
BENCHMARK(BM_SymmetricEigen)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(680)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_ThinSvd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const Matrix a = RandomMatrix(4 * n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ThinSvd(a));
  }
}
BENCHMARK(BM_ThinSvd)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(512)
    ->Arg(680)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_CholeskyRank1Update(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(16);
  const Matrix spd = RandomSpd(n, &rng);
  Cholesky chol;
  chol.Factor(spd);
  const Matrix factor = chol.factor();
  Vector v(n);
  for (int i = 0; i < n; ++i) v[i] = rng.NextGaussian();
  for (auto _ : state) {
    Matrix work = factor;
    CholeskyRank1Update(&work, v);
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_CholeskyRank1Update)->Arg(64)->Arg(256)->Arg(1024);

void BM_ThinQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  const Matrix a = RandomMatrix(4 * n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ThinQr(a));
  }
}
BENCHMARK(BM_ThinQr)->Arg(32)->Arg(64)->Arg(128);

void BM_SparseMatVec(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 10000;
  Rng rng(7);
  SparseMatrixBuilder builder(m, n);
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < 100; ++k) {
      builder.Add(i, static_cast<int>(rng.NextUint64Bounded(n)),
                  rng.NextGaussian());
    }
  }
  const SparseMatrix sparse = std::move(builder).Build();
  Matrix x(n, 1);
  for (int j = 0; j < n; ++j) x(j, 0) = rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse.MultiplyDense(x));
  }
  state.SetItemsProcessed(state.iterations() * sparse.NumNonZeros());
}
BENCHMARK(BM_SparseMatVec)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_Lsqr(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 5000;
  Rng rng(8);
  SparseMatrixBuilder builder(m, n);
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < 80; ++k) {
      builder.Add(i, static_cast<int>(rng.NextUint64Bounded(n)),
                  rng.NextGaussian());
    }
  }
  const SparseMatrix sparse = std::move(builder).Build();
  Matrix b(m, 1);
  for (int i = 0; i < m; ++i) b(i, 0) = rng.NextGaussian();
  const SparseOperator op(&sparse);
  LsqrOptions options;
  options.max_iterations = 15;
  options.damp = 1.0;
  options.atol = 0.0;
  options.btol = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LsqrBatch(op, b, options));
  }
}
BENCHMARK(BM_Lsqr)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace srda

BENCHMARK_MAIN();
