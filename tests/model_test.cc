// Tests for the versioned model store (src/model): every trainer's output
// round-trips through both codecs bitwise, the legacy format still loads,
// and malformed files abort with a located message.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/rng.h"
#include "core/trainers.h"
#include "matrix/blas.h"
#include "model/codec.h"
#include "model/model.h"

namespace srda {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct Blobs {
  Matrix x;
  std::vector<int> labels;
  int num_classes = 0;
};

// Well-separated gaussian blobs so every trainer converges and predictions
// are far from decision boundaries.
Blobs MakeBlobs(int rows, int cols, int classes, uint64_t seed) {
  Blobs data;
  data.x = Matrix(rows, cols);
  data.num_classes = classes;
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const int label = i % classes;
    data.labels.push_back(label);
    for (int j = 0; j < cols; ++j) {
      data.x(i, j) = 6.0 * (j % classes == label) + rng.NextGaussian();
    }
  }
  return data;
}

std::vector<int> PredictWith(const model::SrdaModel& m, const Matrix& x) {
  CentroidClassifier classifier;
  classifier.SetCentroids(m.centroids);
  return m.ToRawLabels(classifier.ScoreBatch(m.embedding.Transform(x)));
}

void ExpectBitwiseEqual(const model::SrdaModel& a, const model::SrdaModel& b) {
  EXPECT_EQ(MaxAbsDiff(a.embedding.projection(), b.embedding.projection()),
            0.0);
  EXPECT_EQ(MaxAbsDiff(a.embedding.bias(), b.embedding.bias()), 0.0);
  EXPECT_EQ(MaxAbsDiff(a.centroids, b.centroids), 0.0);
  EXPECT_EQ(a.raw_labels, b.raw_labels);
  EXPECT_EQ(a.provenance.trainer, b.provenance.trainer);
  EXPECT_EQ(a.provenance.alpha, b.provenance.alpha);
  EXPECT_EQ(a.provenance.seed, b.provenance.seed);
}

// --- Tentpole acceptance: all six trainers round-trip both codecs --------

class TrainerRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TrainerRoundTripTest, SavedModelReproducesPredictionsBitwise) {
  const std::string trainer = GetParam();
  const Blobs train = MakeBlobs(60, 7, 3, 42);
  TrainerOptions options;
  options.alpha = 0.5;
  const TrainResult fit = TrainDenseByName(trainer, train.x, train.labels,
                                           train.num_classes, options);
  model::Provenance provenance;
  provenance.trainer = trainer;
  provenance.alpha = options.alpha;
  const model::SrdaModel original = model::BuildModel(
      fit.embedding, fit.embedding.Transform(train.x), train.labels,
      train.num_classes, {}, provenance);

  const Blobs queries = MakeBlobs(25, 7, 3, 43);
  const std::vector<int> expected = PredictWith(original, queries.x);

  for (const model::Codec codec :
       {model::Codec::kText, model::Codec::kBinary}) {
    const std::string path = TempPath(
        "model-" + trainer +
        (codec == model::Codec::kBinary ? ".srdm" : ".txt"));
    model::Save(original, path, codec);
    const model::SrdaModel loaded = model::Load(path);
    ExpectBitwiseEqual(original, loaded);
    EXPECT_EQ(PredictWith(loaded, queries.x), expected);
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrainers, TrainerRoundTripTest,
                         ::testing::ValuesIn(DenseTrainerNames()),
                         [](const auto& info) { return info.param; });

// --- Text codec precision (satellite 1) ----------------------------------

TEST(TextCodecTest, AdversarialDoublesRoundTripExactly) {
  // Coefficients chosen to lose bits under anything below max_digits10:
  // irrational-ish fractions, denormal-adjacent magnitudes, and values whose
  // shortest exact decimal needs all 17 digits.
  Matrix projection(4, 2);
  projection(0, 0) = 1.0 / 3.0;
  projection(0, 1) = 0.1 + 0.2;  // 0.30000000000000004
  projection(1, 0) = std::numeric_limits<double>::epsilon();
  projection(1, 1) = 1.0 + std::numeric_limits<double>::epsilon();
  projection(2, 0) = 1e-300;
  projection(2, 1) = -1e300;
  projection(3, 0) = 0.49999999999999994;  // largest double below 0.5
  projection(3, 1) = 123456789.123456789;
  model::Provenance provenance;
  provenance.trainer = "adversarial";
  provenance.alpha = 1.0 / 3.0;  // alpha must round-trip exactly too
  model::SrdaModel original;
  original.embedding =
      LinearEmbedding(projection, Vector{1.0 / 7.0, -2.0 / 3.0});
  original.centroids =
      Matrix::FromRows({{1e-17, 2.0 / 3.0}, {3.0000000000000004, -1e-300}});
  original.raw_labels = {0, 1};
  original.provenance = provenance;
  original.Validate();

  const std::string path = TempPath("precision.txt");
  model::SaveText(original, path);
  const model::SrdaModel loaded = model::Load(path);
  ExpectBitwiseEqual(original, loaded);
  std::remove(path.c_str());
}

TEST(TextCodecTest, HeaderCarriesProvenance) {
  const Blobs train = MakeBlobs(30, 5, 2, 7);
  TrainerOptions options;
  const TrainResult fit =
      TrainDenseByName("srda", train.x, train.labels, train.num_classes);
  model::Provenance provenance;
  provenance.trainer = "srda";
  provenance.alpha = 1.0;
  provenance.seed = 0x5eed5eedULL;
  const model::SrdaModel m = model::BuildModel(
      fit.embedding, fit.embedding.Transform(train.x), train.labels,
      train.num_classes, {}, provenance);
  const std::string path = TempPath("provenance.txt");
  model::SaveText(m, path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("srda-model 2"), std::string::npos);
  EXPECT_NE(content.find("trainer srda"), std::string::npos);
  EXPECT_NE(content.find("seed " + std::to_string(0x5eed5eedULL)),
            std::string::npos);
  const model::SrdaModel loaded = model::Load(path);
  EXPECT_EQ(loaded.provenance.seed, 0x5eed5eedULL);
  std::remove(path.c_str());
}

// --- Raw-label mapping (satellite 3) --------------------------------------

TEST(RawLabelTest, GappedLabelsSurviveBothCodecs) {
  const Blobs train = MakeBlobs(40, 6, 3, 11);
  const TrainResult fit =
      TrainDenseByName("lda", train.x, train.labels, train.num_classes);
  // Training file used raw ids {3, 7, 42}, compacted to {0, 1, 2}.
  const model::SrdaModel original = model::BuildModel(
      fit.embedding, fit.embedding.Transform(train.x), train.labels,
      train.num_classes, {3, 7, 42}, {});
  EXPECT_EQ(original.raw_label(2), 42);
  EXPECT_EQ(original.ToRawLabels({2, 0, 1}), (std::vector<int>{42, 3, 7}));
  for (const model::Codec codec :
       {model::Codec::kText, model::Codec::kBinary}) {
    const std::string path = TempPath("gapped.model");
    model::Save(original, path, codec);
    const model::SrdaModel loaded = model::Load(path);
    EXPECT_EQ(loaded.raw_labels, (std::vector<int>{3, 7, 42}));
    // Every served prediction must come back in raw space.
    for (int raw : PredictWith(loaded, train.x)) {
      EXPECT_TRUE(raw == 3 || raw == 7 || raw == 42);
    }
    std::remove(path.c_str());
  }
}

// --- Error paths (satellite 4) --------------------------------------------

model::SrdaModel MakeSmallModel() {
  model::SrdaModel m;
  m.embedding =
      LinearEmbedding(Matrix::FromRows({{1.0}, {0.5}, {-0.5}}), Vector{0.0});
  m.centroids = Matrix::FromRows({{-1.0}, {1.0}});
  m.raw_labels = {0, 1};
  m.Validate();
  return m;
}

void TruncateFile(const std::string& path, int64_t keep_bytes) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes(static_cast<size_t>(keep_bytes));
  in.read(bytes.data(), keep_bytes);
  ASSERT_EQ(in.gcount(), keep_bytes);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), keep_bytes);
}

TEST(ModelStoreDeathTest, TruncatedBinaryAborts) {
  const std::string path = TempPath("truncated.srdm");
  model::SaveBinary(MakeSmallModel(), path);
  TruncateFile(path, 100);
  EXPECT_DEATH(model::Load(path), "truncated");
  std::remove(path.c_str());
}

TEST(ModelStoreDeathTest, TruncatedTextAborts) {
  const std::string path = TempPath("truncated.txt");
  model::SaveText(MakeSmallModel(), path);
  TruncateFile(path, 85);  // cuts inside the projection section
  EXPECT_DEATH(model::Load(path), "truncated\\.txt");
  std::remove(path.c_str());
}

TEST(ModelStoreDeathTest, WrongMagicAborts) {
  const std::string path = TempPath("wrong-magic.txt");
  {
    std::ofstream out(path);
    out << "definitely not a model\n";
  }
  EXPECT_DEATH(model::Load(path), "not an srda model file");
  std::remove(path.c_str());
}

TEST(ModelStoreDeathTest, TextVersionMismatchAborts) {
  const std::string path = TempPath("future-version.txt");
  {
    std::ofstream out(path);
    out << "srda-model 99\ntrainer lda\n";
  }
  EXPECT_DEATH(model::Load(path), "unsupported model version 99");
  std::remove(path.c_str());
}

TEST(ModelStoreDeathTest, BinaryVersionMismatchAborts) {
  const std::string path = TempPath("future-version.srdm");
  model::SaveBinary(MakeSmallModel(), path);
  {
    // The version int32 sits right after the 4-byte magic.
    std::fstream patch(path,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(4);
    const int32_t future = 99;
    patch.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  EXPECT_DEATH(model::Load(path), "unsupported model version 99");
  std::remove(path.c_str());
}

TEST(ModelStoreDeathTest, DimensionMismatchCentroidsAbort) {
  model::SrdaModel bad = MakeSmallModel();
  bad.centroids = Matrix(2, 3);  // wider than the 1-d embedding output
  EXPECT_DEATH(model::Save(bad, TempPath("bad.txt"), model::Codec::kText),
               "centroid dimension");
  EXPECT_DEATH(model::Save(bad, TempPath("bad.srdm"), model::Codec::kBinary),
               "centroid dimension");
}

TEST(ModelStoreDeathTest, NonAscendingRawLabelsAbort) {
  model::SrdaModel bad = MakeSmallModel();
  bad.raw_labels = {5, 5};
  EXPECT_DEATH(bad.Validate(), "strictly ascending");
}

}  // namespace
}  // namespace srda
