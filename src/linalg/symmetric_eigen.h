// Dense symmetric eigendecomposition.
//
// Two classical stages: Householder reduction to tridiagonal form with
// accumulated transformations (EISPACK tred2) followed by the implicit-shift
// QL iteration (EISPACK tql2). O(n^3) with a small constant — this is the
// dense eigensolver whose cost dominates classical LDA, the baseline the
// paper's SRDA avoids. The loops walk rows of the row-major matrix and the
// QL rotations are applied to transposed 32-row panels; every element
// keeps EISPACK's operation order, so the results are bitwise independent
// of the SIMD dispatch level (DESIGN.md §4k). The solver is serial.

#ifndef SRDA_LINALG_SYMMETRIC_EIGEN_H_
#define SRDA_LINALG_SYMMETRIC_EIGEN_H_

#include "matrix/matrix.h"
#include "matrix/vector.h"

namespace srda {

// Eigenvalues in ascending order; eigenvectors(:, j) is the unit eigenvector
// for eigenvalues[j]. `converged` is false if the QL iteration failed for
// some eigenvalue (practically never for symmetric input).
struct SymmetricEigenResult {
  Vector eigenvalues;
  Matrix eigenvectors;
  bool converged = false;
};

// Decomposes the symmetric matrix `a` (only its values are read; symmetry is
// assumed, the strictly-upper triangle is mirrored from the lower one).
SymmetricEigenResult SymmetricEigen(const Matrix& a);

}  // namespace srda

#endif  // SRDA_LINALG_SYMMETRIC_EIGEN_H_
