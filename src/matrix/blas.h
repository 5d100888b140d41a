// BLAS-like dense kernels.
//
// These free functions implement the handful of level-1/2/3 operations the
// library needs. Inner loops use raw row pointers (no per-element bounds
// checks); shapes are validated once per call.
//
// The level-3 kernels (Multiply, MultiplyTransposedA/B, Gram, OuterGram)
// are cache-blocked: the reduction dimension streams in packed K-panels
// against register-unrolled output tiles, with tile shapes from
// matrix/blocking.h (BlockConfig). Every output element accumulates
// its k-terms in one fixed ascending chain, so results are bitwise
// identical for any tile shape and any thread count. The unblocked
// originals live in tests/naive_kernels.h for agreement tests and the
// blocked-vs-naive bench sweep. All kernels report flop counts to
// common/flops.h's runtime counter.

#ifndef SRDA_MATRIX_BLAS_H_
#define SRDA_MATRIX_BLAS_H_

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// Returns x . y (sizes must match).
double Dot(const Vector& x, const Vector& y);

// y += alpha * x.
void Axpy(double alpha, const Vector& x, Vector* y);

// x *= alpha.
void Scale(double alpha, Vector* x);

// Euclidean norm, computed with scaling to avoid overflow.
double Norm2(const Vector& x);

// Largest absolute entry (0 for the empty vector).
double NormInf(const Vector& x);

// y = A * x  (A is m x n, x has n entries, y gets m entries).
Vector Multiply(const Matrix& a, const Vector& x);

// y = A^T * x  (A is m x n, x has m entries, y gets n entries).
Vector MultiplyTransposed(const Matrix& a, const Vector& x);

// C = A * B (shapes must agree).
Matrix Multiply(const Matrix& a, const Matrix& b);

// C = A^T * B.
Matrix MultiplyTransposedA(const Matrix& a, const Matrix& b);

// C = A * B^T.
Matrix MultiplyTransposedB(const Matrix& a, const Matrix& b);

// C = A^T * A (n x n, symmetric; both triangles are filled).
Matrix Gram(const Matrix& a);

// ---- Chain-continuing accumulate kernels (out-of-core streaming) --------
//
// Each of these adds into an existing output, seeding every element's
// running accumulator from the value already stored there — exactly what
// the blocked kernels do between K-panels. Streaming the row blocks of a
// tall matrix through them top-to-bottom therefore produces bit-for-bit
// the same result as one call on the full matrix, at any block size and
// thread count: pausing and resuming a sequential reduction chain changes
// no operations.

// C += A^T * B (C is a.cols() x b.cols(), pre-sized by the caller).
void MultiplyTransposedAAccumulate(const Matrix& a, const Matrix& b,
                                   Matrix* c);

// Upper triangle of C += A^T * A. Stream all row blocks, then call
// SymmetrizeFromUpper once; Gram() is exactly that sequence on one block.
void GramAccumulateUpper(const Matrix& a, Matrix* c);

// Copies the strict upper triangle onto the lower triangle.
void SymmetrizeFromUpper(Matrix* c);

// sums += per-column sums of A: the ColumnMeans accumulation without the
// final 1/m scale, so a streamed mean matches the in-RAM one bitwise.
void ColumnSumsAccumulate(const Matrix& a, Vector* sums);

// C = A * A^T (m x m, symmetric; both triangles are filled).
Matrix OuterGram(const Matrix& a);

// M += alpha * I (M must be square).
void AddDiagonal(double alpha, Matrix* m);

// Column means of A as a length-n vector.
Vector ColumnMeans(const Matrix& a);

// Subtracts `center` from every row of A in place (center.size() == cols).
void SubtractRowVector(const Vector& center, Matrix* a);

// max_ij |A(i,j) - B(i,j)|; shapes must match.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

// max_i |x[i] - y[i]|; sizes must match.
double MaxAbsDiff(const Vector& x, const Vector& y);

}  // namespace srda

#endif  // SRDA_MATRIX_BLAS_H_
