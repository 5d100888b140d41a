#include "core/trainers.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/fisherfaces.h"
#include "core/idr_qr.h"
#include "core/lda.h"
#include "core/rlda.h"
#include "core/semi_supervised_srda.h"

namespace srda {

const std::vector<std::string>& DenseTrainerNames() {
  static const std::vector<std::string>* const names =
      new std::vector<std::string>{"srda",        "lda",         "rlda",
                                   "idr_qr",      "fisherfaces", "semi_srda"};
  return *names;
}

bool IsDenseTrainer(const std::string& name) {
  const std::vector<std::string>& names = DenseTrainerNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

TrainResult TrainDenseByName(const std::string& name, const Matrix& x,
                             const std::vector<int>& labels, int num_classes,
                             const TrainerOptions& options) {
  TrainResult result;
  if (name == "srda") {
    SrdaOptions srda_options;
    srda_options.alpha = options.alpha;
    srda_options.solver = options.solver;
    srda_options.lsqr_iterations = options.lsqr_iterations;
    SrdaModel model = FitSrda(x, labels, num_classes, srda_options);
    SRDA_CHECK(model.converged) << "SRDA training failed";
    result.embedding = std::move(model.embedding);
    result.total_lsqr_iterations = model.total_lsqr_iterations;
    result.lsqr_diagnostics = std::move(model.lsqr_diagnostics);
    return result;
  }
  if (name == "lda") {
    LdaModel model = FitLda(x, labels, num_classes);
    SRDA_CHECK(model.converged) << "LDA training failed";
    result.embedding = std::move(model.embedding);
    return result;
  }
  if (name == "rlda") {
    RldaOptions rlda_options;
    rlda_options.alpha = options.alpha;
    RldaModel model = FitRlda(x, labels, num_classes, rlda_options);
    SRDA_CHECK(model.converged) << "RLDA training failed";
    result.embedding = std::move(model.embedding);
    return result;
  }
  if (name == "idr_qr") {
    IdrQrModel model = FitIdrQr(x, labels, num_classes);
    SRDA_CHECK(model.converged) << "IDR/QR training failed";
    result.embedding = std::move(model.embedding);
    return result;
  }
  if (name == "fisherfaces") {
    FisherfacesModel model = FitFisherfaces(x, labels, num_classes);
    SRDA_CHECK(model.converged) << "Fisherfaces training failed";
    result.embedding = std::move(model.embedding);
    return result;
  }
  if (name == "semi_srda") {
    SemiSupervisedSrdaOptions semi_options;
    semi_options.alpha = options.alpha;
    SemiSupervisedSrdaModel model =
        FitSemiSupervisedSrda(x, labels, num_classes, semi_options);
    SRDA_CHECK(model.converged) << "semi-supervised SRDA training failed";
    result.embedding = std::move(model.embedding);
    return result;
  }
  SRDA_CHECK(false) << "unknown trainer '" << name << "'";
  return result;
}

}  // namespace srda
