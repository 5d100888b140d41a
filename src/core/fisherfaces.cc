#include "core/fisherfaces.h"

#include "common/check.h"
#include "core/lda.h"
#include "core/pca.h"
#include "dataset/dataset.h"
#include "matrix/blas.h"

namespace srda {

FisherfacesModel FitFisherfaces(const Matrix& x,
                                const std::vector<int>& labels,
                                int num_classes,
                                const FisherfacesOptions& options) {
  SRDA_CHECK_GT(num_classes, 1) << "need at least two classes";
  SRDA_CHECK_EQ(static_cast<int>(labels.size()), x.rows())
      << "label count mismatch";
  SRDA_CHECK_GE(options.pca_components, 0);

  FisherfacesModel model;

  // Stage 1: PCA to m - c dimensions (or the caller's choice), which is the
  // classical recipe making the reduced S_w nonsingular.
  PcaOptions pca_options;
  pca_options.max_components = options.pca_components > 0
                                   ? options.pca_components
                                   : std::max(1, x.rows() - num_classes);
  const PcaModel pca = FitPca(x, pca_options);
  if (!pca.converged || pca.embedding.output_dim() == 0) return model;
  model.pca_components_used = pca.embedding.output_dim();

  // Stage 2: LDA in the PCA space.
  const Matrix reduced = pca.embedding.Transform(x);
  const LdaModel lda = FitLda(reduced, labels, num_classes);
  if (!lda.converged) return model;
  model.num_directions = lda.num_directions;

  // Compose: y = W_lda^T (W_pca^T x + b_pca) + b_lda
  //            = (W_pca W_lda)^T x + (W_lda^T b_pca + b_lda).
  Matrix projection =
      Multiply(pca.embedding.projection(), lda.embedding.projection());
  Vector bias =
      MultiplyTransposed(lda.embedding.projection(), pca.embedding.bias());
  for (int d = 0; d < bias.size(); ++d) bias[d] += lda.embedding.bias()[d];

  model.embedding = LinearEmbedding(std::move(projection), std::move(bias));
  model.converged = true;
  return model;
}

}  // namespace srda
