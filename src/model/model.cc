#include "model/model.h"

#include <numeric>
#include <utility>

#include "classify/classifiers.h"
#include "common/check.h"

namespace srda {
namespace model {
namespace {

// raw == compact when the training data never went through a file reader.
std::vector<int> IdentityLabels(int num_classes) {
  std::vector<int> labels(static_cast<size_t>(num_classes));
  std::iota(labels.begin(), labels.end(), 0);
  return labels;
}

}  // namespace

int SrdaModel::raw_label(int compact) const {
  SRDA_CHECK(compact >= 0 && compact < num_classes())
      << "class id " << compact << " out of " << num_classes();
  return raw_labels[static_cast<size_t>(compact)];
}

std::vector<int> SrdaModel::ToRawLabels(const std::vector<int>& compact) const {
  std::vector<int> raw;
  raw.reserve(compact.size());
  for (int id : compact) raw.push_back(raw_label(id));
  return raw;
}

void SrdaModel::Validate() const {
  SRDA_CHECK(input_dim() > 0 && output_dim() > 0)
      << "model has an empty embedding";
  SRDA_CHECK(head == HeadKind::kCentroid) << "unknown classifier head";
  SRDA_CHECK_EQ(centroids.cols(), output_dim())
      << "centroid dimension must match the embedding output";
  SRDA_CHECK_GT(centroids.rows(), 1) << "model needs at least two classes";
  SRDA_CHECK_EQ(static_cast<int>(raw_labels.size()), centroids.rows())
      << "raw-label map must have one entry per class";
  for (size_t k = 1; k < raw_labels.size(); ++k) {
    SRDA_CHECK_LT(raw_labels[k - 1], raw_labels[k])
        << "raw labels must be strictly ascending (reader compaction order)";
  }
}

SrdaModel BuildModel(const LinearEmbedding& embedding,
                     const Matrix& embedded_train,
                     const std::vector<int>& labels, int num_classes,
                     std::vector<int> raw_labels, Provenance provenance) {
  CentroidClassifier head;
  head.Fit(embedded_train, labels, num_classes);
  SrdaModel model;
  model.embedding = embedding;
  model.centroids = head.centroids();
  model.raw_labels = raw_labels.empty() ? IdentityLabels(model.num_classes())
                                        : std::move(raw_labels);
  model.provenance = std::move(provenance);
  model.Validate();
  return model;
}

}  // namespace model
}  // namespace srda
