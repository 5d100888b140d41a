// By-name dispatch over the dense discriminant trainers.
//
// Every trainer in src/core fits the same shape of artifact — a
// LinearEmbedding — but each exposes its own Fit function, options struct,
// and model type. This registry collapses the six dense trainers behind one
// entry point so the tools and the model store (src/model) handle "an
// algorithm" as a string: srda, lda, rlda, idr_qr, fisherfaces, semi_srda.
// (PCA is excluded: it is an unsupervised preprocessor, not a discriminant
// trainer, and produces no class structure to hang a classifier head on.)
//
// The srda entry carries its solver diagnostics (LSQR convergence records)
// through TrainResult so callers keep the reporting the dedicated FitSrda
// path had.

#ifndef SRDA_CORE_TRAINERS_H_
#define SRDA_CORE_TRAINERS_H_

#include <string>
#include <vector>

#include "core/embedding.h"
#include "core/srda.h"
#include "matrix/matrix.h"

namespace srda {

// Options shared across every dense trainer; fields that do not apply to a
// given trainer are ignored (alpha feeds srda/rlda/semi_srda, the solver
// knobs feed srda only).
struct TrainerOptions {
  double alpha = 1.0;
  SrdaSolver solver = SrdaSolver::kNormalEquations;
  int lsqr_iterations = 20;
};

struct TrainResult {
  LinearEmbedding embedding;
  // SRDA solver diagnostics; empty/zero for every other trainer.
  int total_lsqr_iterations = 0;
  std::vector<RidgeRhsDiagnostics> lsqr_diagnostics;
};

// The registered trainer names, in canonical order.
const std::vector<std::string>& DenseTrainerNames();

// True when `name` names a registered dense trainer.
bool IsDenseTrainer(const std::string& name);

// Fits trainer `name` on dense data (rows are samples, labels compact in
// [0, num_classes)). Aborts on an unknown name or a failed fit; use
// IsDenseTrainer to validate user input first.
TrainResult TrainDenseByName(const std::string& name, const Matrix& x,
                             const std::vector<int>& labels, int num_classes,
                             const TrainerOptions& options = {});

}  // namespace srda

#endif  // SRDA_CORE_TRAINERS_H_
