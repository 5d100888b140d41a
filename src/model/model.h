// The versioned model store: one serializable artifact for every trainer.
//
// Every LinearEmbedding-producing trainer in src/core (SRDA, LDA, RLDA,
// IDR/QR, Fisherfaces, semi-supervised SRDA) reduces to the same deployable
// object: an affine embedding, a classifier head in the embedded space, the
// compact -> raw label map of the training file, and provenance describing
// how the model was trained. model::SrdaModel is that object; codec.h
// persists it in two interchangeable formats (versioned text for
// inspection/migration, native-layout binary for zero-parse serving) and
// serve/serving.h scores traffic against it.
//
// Naming note: srda::SrdaModel (core/srda.h) is the *fit result* of the
// SRDA trainer — embedding plus solver diagnostics that die with the
// process. srda::model::SrdaModel is the durable artifact all trainers
// share. Files using both qualify explicitly.

#ifndef SRDA_MODEL_MODEL_H_
#define SRDA_MODEL_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/embedding.h"
#include "matrix/matrix.h"

namespace srda {
namespace model {

// Classifier heads a model file can carry. Only the nearest-centroid head
// exists today; the enum is serialized so new heads extend the format
// without a version bump invalidating old files.
enum class HeadKind : int {
  kCentroid = 0,
};

// How the model came to be: enough to reproduce or audit a training run.
struct Provenance {
  std::string trainer;  // "srda", "lda", "rlda", "idr_qr", ...
  double alpha = 0.0;   // ridge penalty (0 when the trainer has none)
  uint64_t seed = 0;    // kept for format stability; always written as 0
};

struct SrdaModel {
  LinearEmbedding embedding;
  HeadKind head = HeadKind::kCentroid;
  Matrix centroids;             // num_classes x output_dim, embedded space
  std::vector<int> raw_labels;  // compact id -> raw file label, size classes
  Provenance provenance;

  int input_dim() const { return embedding.input_dim(); }
  int output_dim() const { return embedding.output_dim(); }
  int num_classes() const { return centroids.rows(); }

  // The raw (original-file) label behind compact class id `compact`.
  int raw_label(int compact) const;

  // Maps a whole prediction vector of compact ids to raw labels.
  std::vector<int> ToRawLabels(const std::vector<int>& compact) const;

  // Aborts (SRDA_CHECK) unless the embedding, head, and label map agree:
  // centroids match the embedding output width, raw_labels has one entry
  // per class and is strictly ascending (the reader compaction invariant).
  void Validate() const;
};

// Assembles the canonical model from a trained embedding: fits the centroid
// head on the embedded training data and fills the label map / provenance.
// `raw_labels` may be empty (datasets built in memory), meaning raw ==
// compact; it is materialized as the identity so every saved model carries
// an explicit map.
SrdaModel BuildModel(const LinearEmbedding& embedding,
                     const Matrix& embedded_train,
                     const std::vector<int>& labels, int num_classes,
                     std::vector<int> raw_labels, Provenance provenance);

}  // namespace model
}  // namespace srda

#endif  // SRDA_MODEL_MODEL_H_
