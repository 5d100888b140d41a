// Tests for the rank-k Cholesky update/downdate engine.

#include <cmath>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/cholesky_update.h"
#include "matrix/blas.h"
#include "matrix/blocking.h"

namespace srda {
namespace {

// Random symmetric positive-definite matrix: A^T A + I.
Matrix RandomSpd(int n, Rng* rng) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng->NextGaussian();
  }
  Matrix spd = Gram(a);
  AddDiagonal(1.0, &spd);
  return spd;
}

Matrix RandomRows(int k, int n, Rng* rng) {
  Matrix v(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) v(i, j) = rng->NextGaussian();
  }
  return v;
}

// Reference: factor G - V^T V (or + for updates) from scratch.
Matrix RebuiltFactor(const Matrix& g, const Matrix& v, double sign) {
  Matrix target = g;
  const Matrix vtv = MultiplyTransposedA(v, v);
  for (int i = 0; i < target.rows(); ++i) {
    for (int j = 0; j < target.cols(); ++j) {
      target(i, j) += sign * vtv(i, j);
    }
  }
  Cholesky chol;
  EXPECT_TRUE(chol.Factor(target));
  return chol.factor();
}

void ExpectDowndateMatchesRebuild(int n, int k, uint64_t seed) {
  Rng rng(seed);
  // G = V^T V + (SPD base): guarantees G - V^T V stays safely positive
  // definite for any k, including k = n - 1.
  const Matrix v = RandomRows(k, n, &rng);
  Matrix g = RandomSpd(n, &rng);
  const Matrix vtv = MultiplyTransposedA(v, v);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) g(i, j) += vtv(i, j);
  }
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(g));
  Matrix downdated = chol.factor();
  ASSERT_TRUE(CholeskyRankKDowndate(&downdated, v));
  const Matrix rebuilt = RebuiltFactor(g, v, -1.0);
  EXPECT_LT(MaxAbsDiff(downdated, rebuilt), 1e-8)
      << "n=" << n << " k=" << k;
}

TEST(CholeskyRankKDowndateTest, MatchesRebuildRank1) {
  ExpectDowndateMatchesRebuild(/*n=*/12, /*k=*/1, /*seed=*/11);
}

TEST(CholeskyRankKDowndateTest, MatchesRebuildRankNMinus1) {
  ExpectDowndateMatchesRebuild(/*n=*/12, /*k=*/11, /*seed=*/12);
}

TEST(CholeskyRankKDowndateTest, MatchesRebuildFoldLargerThanBlock) {
  // k exceeds the factorization panel width BlockConfig::nb, the adversarial
  // "fold larger than block" shape of a real CV fold.
  const int nb = GetBlockConfig().nb;
  ExpectDowndateMatchesRebuild(/*n=*/nb + 32, /*k=*/nb + 6, /*seed=*/13);
}

TEST(CholeskyRankKUpdateTest, MatchesRebuild) {
  Rng rng(21);
  const int n = 16;
  const Matrix g = RandomSpd(n, &rng);
  const Matrix v = RandomRows(5, n, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(g));
  Matrix updated = chol.factor();
  CholeskyRankKUpdate(&updated, v);
  const Matrix rebuilt = RebuiltFactor(g, v, 1.0);
  EXPECT_LT(MaxAbsDiff(updated, rebuilt), 1e-8);
}

TEST(CholeskyRankKUpdateTest, RankOneMatchesRank1Update) {
  // The panel sweep applies the same rotation chain as the original rank-1
  // routine; it multiplies by a precomputed reciprocal where the rank-1
  // code divides, so agreement is to rounding, not bit for bit.
  Rng rng(22);
  const int n = 20;
  const Matrix g = RandomSpd(n, &rng);
  Matrix v(1, n);
  Vector v1(n);
  for (int j = 0; j < n; ++j) {
    const double value = rng.NextGaussian();
    v(0, j) = value;
    v1[j] = value;
  }
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(g));
  Matrix sweep = chol.factor();
  Matrix reference = chol.factor();
  CholeskyRankKUpdate(&sweep, v);
  CholeskyRank1Update(&reference, v1);
  EXPECT_LT(MaxAbsDiff(sweep, reference), 1e-12);
}

TEST(CholeskyRankKDowndateTest, UpdateThenDowndateRoundTrips) {
  Rng rng(23);
  const int n = 10;
  const Matrix g = RandomSpd(n, &rng);
  const Matrix v = RandomRows(3, n, &rng);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(g));
  Matrix factor = chol.factor();
  CholeskyRankKUpdate(&factor, v);
  ASSERT_TRUE(CholeskyRankKDowndate(&factor, v));
  EXPECT_LT(MaxAbsDiff(factor, chol.factor()), 1e-8);
}

TEST(CholeskyRankKDowndateTest, NearSingularDowndateFails) {
  // G = v v^T + delta I with tiny delta: removing v leaves a numerically
  // singular matrix, so the condition monitor must refuse instead of
  // producing a garbage factor.
  Rng rng(24);
  const int n = 8;
  Matrix v = RandomRows(1, n, &rng);
  Matrix g = MultiplyTransposedA(v, v);
  AddDiagonal(1e-12, &g);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(g));
  Matrix factor = chol.factor();
  EXPECT_FALSE(CholeskyRankKDowndate(&factor, v));
}

TEST(CholeskyRankKDowndateTest, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(25);
  const int n = 96;
  const int k = 9;
  const Matrix v = RandomRows(k, n, &rng);
  Matrix g = RandomSpd(n, &rng);
  const Matrix vtv = MultiplyTransposedA(v, v);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) g(i, j) += vtv(i, j);
  }
  SetGlobalThreadCount(1);
  Cholesky chol;
  ASSERT_TRUE(chol.Factor(g));
  Matrix serial = chol.factor();
  ASSERT_TRUE(CholeskyRankKDowndate(&serial, v));
  SetGlobalThreadCount(4);
  Cholesky chol4;
  ASSERT_TRUE(chol4.Factor(g));
  Matrix threaded = chol4.factor();
  const bool ok = CholeskyRankKDowndate(&threaded, v);
  SetGlobalThreadCount(1);
  ASSERT_TRUE(ok);
  EXPECT_EQ(MaxAbsDiff(serial, threaded), 0.0);
}

}  // namespace
}  // namespace srda
