// Reproduces Figure 5: SRDA's test error as a function of the regularization
// parameter alpha, plotted against the flat LDA and IDR/QR reference lines,
// on eight panels: PIE (10, 30 train), Isolet (50, 90), MNIST (30, 100),
// 20Newsgroups (5%, 10%).
//
// The x-axis is alpha/(1+alpha) on a grid over (0, 1), exactly as in the
// paper. The qualitative claim checked: SRDA beats both references over a
// wide range of alpha, so parameter selection is not critical.
//
// Pass --full for paper-scale datasets and more splits.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classify/classifiers.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/idr_qr.h"
#include "core/lda.h"
#include "core/srda.h"
#include "dataset/digit_generator.h"
#include "dataset/face_generator.h"
#include "dataset/split.h"
#include "dataset/spoken_letter_generator.h"
#include "dataset/text_generator.h"
#include "matrix/blas.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace bench {
namespace {

// alpha/(1+alpha) grid from the paper's plots.
const double kGridRatios[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

struct PanelResult {
  std::string name;
  std::vector<double> srda_errors;  // one per grid point
  double lda_error = 0.0;
  double idr_error = 0.0;
  bool lda_ran = false;
};

// Runs one dense panel: LDA and IDR/QR once per split; the whole SRDA alpha
// grid comes from ONE cached Gram per split — one RidgeSolver bound to the
// split, swept by FitSrda as SelectSrdaAlpha does — so each grid point pays
// only a Cholesky refactorization, producing exactly the normal-equations
// solutions at a fraction of the sweep cost.
PanelResult RunDensePanel(const std::string& name, const DenseDataset& data,
                          int train_per_class, int num_splits, uint64_t seed) {
  PanelResult panel;
  panel.name = name;
  panel.srda_errors.assign(std::size(kGridRatios), 0.0);
  std::vector<double> lda_errors;
  std::vector<double> idr_errors;
  Rng rng(seed);
  for (int s = 0; s < num_splits; ++s) {
    const TrainTestSplit split = StratifiedSplitByCount(
        data.labels, data.num_classes, train_per_class, &rng);
    const DenseDataset train = Subset(data, split.train);
    const DenseDataset test = Subset(data, split.test);
    lda_errors.push_back(
        RunDense(Algorithm::kLda, train, test).error_percent);
    idr_errors.push_back(
        RunDense(Algorithm::kIdrQr, train, test).error_percent);
    RidgeSolver solver(&train.features);
    for (size_t g = 0; g < std::size(kGridRatios); ++g) {
      const double ratio = kGridRatios[g];
      SrdaOptions options;
      options.alpha = ratio / (1.0 - ratio);
      const SrdaModel model =
          FitSrda(&solver, train.labels, train.num_classes, options);
      SRDA_CHECK(model.converged) << "SRDA failed on the alpha grid";
      const LinearEmbedding& embedding = model.embedding;
      CentroidClassifier classifier;
      classifier.Fit(embedding.Transform(train.features), train.labels,
                     train.num_classes);
      panel.srda_errors[g] +=
          100.0 *
          ErrorRate(classifier.Predict(embedding.Transform(test.features)),
                    test.labels) /
          num_splits;
    }
  }
  panel.lda_error = ComputeMeanStd(lda_errors).mean;
  panel.idr_error = ComputeMeanStd(idr_errors).mean;
  panel.lda_ran = true;
  return panel;
}

// Sparse text panel: LDA via a densified train split, SRDA via sparse LSQR.
PanelResult RunTextPanel(const std::string& name, const SparseDataset& data,
                         double fraction, int num_splits, uint64_t seed) {
  PanelResult panel;
  panel.name = name;
  panel.srda_errors.assign(std::size(kGridRatios), 0.0);
  std::vector<double> lda_errors;
  std::vector<double> idr_errors;
  Rng rng(seed);
  for (int s = 0; s < num_splits; ++s) {
    const TrainTestSplit split = StratifiedSplitByFraction(
        data.labels, data.num_classes, fraction, &rng);
    const SparseDataset train = Subset(data, split.train);
    const SparseDataset test = Subset(data, split.test);
    // Dense references on the densified training split.
    const DenseDataset dense_train = Densify(train);
    const DenseDataset dense_test = Densify(test);
    lda_errors.push_back(
        RunDense(Algorithm::kLda, dense_train, dense_test).error_percent);
    idr_errors.push_back(
        RunDense(Algorithm::kIdrQr, dense_train, dense_test).error_percent);
    for (size_t g = 0; g < std::size(kGridRatios); ++g) {
      const double ratio = kGridRatios[g];
      const double alpha = ratio / (1.0 - ratio);
      panel.srda_errors[g] +=
          RunSparseSrda(train, test, alpha).error_percent / num_splits;
    }
  }
  panel.lda_error = ComputeMeanStd(lda_errors).mean;
  panel.idr_error = ComputeMeanStd(idr_errors).mean;
  panel.lda_ran = true;
  return panel;
}

void PrintPanel(const PanelResult& panel) {
  std::cout << "\n-- Figure 5 panel: " << panel.name << " --\n";
  TablePrinter table({"alpha/(1+alpha)", "SRDA error %", "LDA", "IDR/QR"});
  for (size_t g = 0; g < std::size(kGridRatios); ++g) {
    table.AddRow({FormatDouble(kGridRatios[g], 1),
                  FormatDouble(panel.srda_errors[g], 2),
                  FormatDouble(panel.lda_error, 2),
                  FormatDouble(panel.idr_error, 2)});
  }
  table.Print(std::cout);
}

// SRDA should beat both reference lines on a wide alpha range (the paper's
// conclusion: "parameter selection is not a very crucial problem").
bool CheckPanel(const PanelResult& panel) {
  int wins = 0;
  for (double error : panel.srda_errors) {
    if (error <= panel.lda_error + 0.5 && error <= panel.idr_error + 0.5) {
      ++wins;
    }
  }
  return ShapeCheck(wins >= static_cast<int>(std::size(kGridRatios)) / 2,
                    panel.name + ": SRDA at least ties LDA and IDR/QR on >=" +
                        std::to_string(std::size(kGridRatios) / 2) + "/9 of "
                        "the alpha grid");
}

// Times the whole alpha grid two ways on one Isolet-like training set:
// rebuilding the Gram from scratch per grid point (a fresh FitSrda call per
// alpha, the pre-engine behaviour) versus one RidgeSolver whose cached Gram
// is refactored per alpha. The embeddings must be bitwise identical; only
// the time changes. Returns true if the shape check passes (always true
// under --smoke, which skips checks).
bool RunAlphaSweep(bool smoke) {
  SpokenLetterGeneratorOptions options;
  options.examples_per_class = smoke ? 12 : 40;  // 26 * 40 = 1040 samples
  options.num_features = smoke ? 60 : 1024;      // primal Gram is n x n
  const DenseDataset data = GenerateSpokenLetterDataset(options);
  const int n = data.features.cols();
  const int m = data.features.rows();

  std::vector<double> alphas;
  for (double ratio : kGridRatios) alphas.push_back(ratio / (1.0 - ratio));

  // Baseline: every grid point pays the full Gram + factor + solve.
  std::vector<SrdaModel> rebuilt;
  Stopwatch rebuild_watch;
  for (double alpha : alphas) {
    SrdaOptions srda_options;
    srda_options.alpha = alpha;
    rebuilt.push_back(
        FitSrda(data.features, data.labels, data.num_classes, srda_options));
  }
  const double rebuild_seconds = rebuild_watch.ElapsedSeconds();

  // Engine: the Gram is computed once; each further alpha refactors it.
  std::vector<SrdaModel> cached;
  Stopwatch cached_watch;
  RidgeSolver solver(&data.features);
  for (double alpha : alphas) {
    SrdaOptions srda_options;
    srda_options.alpha = alpha;
    cached.push_back(
        FitSrda(&solver, data.labels, data.num_classes, srda_options));
  }
  const double cached_seconds = cached_watch.ElapsedSeconds();

  double max_diff = 0.0;
  for (size_t a = 0; a < alphas.size(); ++a) {
    SRDA_CHECK(rebuilt[a].converged && cached[a].converged);
    max_diff = std::max(
        max_diff, MaxAbsDiff(rebuilt[a].embedding.projection(),
                             cached[a].embedding.projection()));
    max_diff = std::max(max_diff, MaxAbsDiff(rebuilt[a].embedding.bias(),
                                             cached[a].embedding.bias()));
  }
  SRDA_CHECK_EQ(max_diff, 0.0)
      << "cached-Gram sweep must be bitwise identical to rebuilds";

  const double speedup =
      cached_seconds > 0.0 ? rebuild_seconds / cached_seconds : 0.0;
  std::cout << "\n== Gram-reuse alpha sweep (" << m << " x " << n << ", "
            << alphas.size() << " alphas) ==\n";
  TablePrinter table({"strategy", "seconds", "speedup"});
  table.AddRow({"rebuild per alpha", FormatDouble(rebuild_seconds, 4), "1.0"});
  table.AddRow({"cached Gram", FormatDouble(cached_seconds, 4),
                FormatDouble(speedup, 2)});
  table.Print(std::cout);

  if (smoke) return true;
  std::ofstream json("BENCH_alpha_sweep.json");
  json << "{\n  \"experiment\": \"alpha_sweep_gram_reuse\",\n"
       << "  \"samples\": " << m << ",\n"
       << "  \"features\": " << n << ",\n"
       << "  \"num_alphas\": " << alphas.size() << ",\n"
       << "  \"rebuild_seconds\": " << rebuild_seconds << ",\n"
       << "  \"cached_seconds\": " << cached_seconds << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"max_abs_diff\": " << max_diff << "\n}\n";
  std::cout << "wrote BENCH_alpha_sweep.json\n";
  return ShapeCheck(speedup >= 1.5,
                    "cached-Gram alpha sweep at least 1.5x faster than "
                    "rebuilding per alpha");
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool full = HasFlag(argc, argv, "--full");
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const int splits = smoke ? 1 : (full ? 5 : 2);

  std::cout << "Experiment: Figure 5 (model selection for SRDA)\n"
            << "Profile: "
            << (smoke ? "smoke (tiny sizes, no checks)"
                      : (full ? "full" : "small (use --full)"))
            << "\n";

  std::vector<PanelResult> panels;

  {
    FaceGeneratorOptions options;
    options.num_subjects = full ? 68 : 20;
    options.images_per_subject = smoke ? 8 : (full ? 170 : 40);
    options.image_size = full ? 32 : 16;
    const DenseDataset faces = GenerateFaceDataset(options);
    const int train = smoke ? 4 : 10;
    panels.push_back(RunDensePanel(
        "PIE-like (" + std::to_string(train) + " train)", faces, train,
        splits, 51));
    if (!smoke) {
      panels.push_back(
          RunDensePanel("PIE-like (30 train)", faces, 30, splits, 52));
    }
  }
  {
    SpokenLetterGeneratorOptions options;
    options.examples_per_class = smoke ? 12 : (full ? 240 : 120);
    options.num_features = smoke ? 60 : (full ? 617 : 200);
    const DenseDataset isolet = GenerateSpokenLetterDataset(options);
    const int train = smoke ? 6 : 50;
    panels.push_back(RunDensePanel(
        "Isolet-like (" + std::to_string(train) + " train)", isolet, train,
        splits, 53));
    if (!smoke) {
      panels.push_back(
          RunDensePanel("Isolet-like (90 train)", isolet, 90, splits, 54));
    }
  }
  {
    DigitGeneratorOptions options;
    options.examples_per_class = smoke ? 12 : (full ? 400 : 200);
    options.image_size = smoke ? 8 : (full ? 28 : 16);
    const DenseDataset digits = GenerateDigitDataset(options);
    const int train = smoke ? 6 : 30;
    panels.push_back(RunDensePanel(
        "MNIST-like (" + std::to_string(train) + " train)", digits, train,
        splits, 55));
    if (!smoke) {
      panels.push_back(
          RunDensePanel("MNIST-like (100 train)", digits, 100, splits, 56));
    }
  }
  {
    TextGeneratorOptions options;
    options.docs_per_topic = smoke ? 30 : (full ? 947 : 120);
    options.vocabulary_size = smoke ? 2000 : (full ? 26214 : 8000);
    options.topic_vocabulary_size = smoke ? 200 : (full ? 1500 : 500);
    const SparseDataset text = GenerateTextDataset(options);
    const int train_percent = smoke ? 20 : 5;
    panels.push_back(RunTextPanel(
        "20News-like (" + std::to_string(train_percent) + "% train)", text,
        train_percent / 100.0, splits, 57));
    if (!smoke) {
      panels.push_back(
          RunTextPanel("20News-like (10% train)", text, 0.10, splits, 58));
    }
  }

  for (const PanelResult& panel : panels) PrintPanel(panel);
  const bool sweep_ok = RunAlphaSweep(smoke);
  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::cout << "\n== Shape checks vs the paper ==\n";
  bool ok = true;
  int passing_panels = 0;
  for (const PanelResult& panel : panels) {
    if (CheckPanel(panel)) ++passing_panels;
  }
  ok = ShapeCheck(passing_panels >= 6,
                  "SRDA robust to alpha on at least 6 of 8 panels (Figure 5)");
  return (ok && sweep_ok) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
