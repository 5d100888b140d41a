// Reference kernels: the unblocked serial loops that the library's blocked
// level-3 kernels (matrix/blas.h) and blocked Cholesky (linalg/cholesky.h)
// replaced. Agreement tests pin the blocked kernels against these, and
// bench_table1_complexity's kernel sweep (BENCH_kernel_blocking.json)
// measures the blocking speedup from them. They are built into a test/bench
// support library only; nothing in src/ calls them.

#ifndef SRDA_TESTS_NAIVE_KERNELS_H_
#define SRDA_TESTS_NAIVE_KERNELS_H_

#include "matrix/matrix.h"

namespace srda {
namespace naive {

Matrix Multiply(const Matrix& a, const Matrix& b);
Matrix MultiplyTransposedA(const Matrix& a, const Matrix& b);
Matrix MultiplyTransposedB(const Matrix& a, const Matrix& b);
Matrix Gram(const Matrix& a);
Matrix OuterGram(const Matrix& a);

// The serial column-by-column factorization. Writes the lower-triangular
// factor into `l` and returns false on a non-positive pivot, like
// Cholesky::Factor.
bool CholeskyFactor(const Matrix& a, Matrix* l);

}  // namespace naive
}  // namespace srda

#endif  // SRDA_TESTS_NAIVE_KERNELS_H_
