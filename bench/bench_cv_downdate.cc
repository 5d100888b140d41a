// Cross-validation strategies for SRDA's alpha search, timed on an
// Isolet-scale problem (n = 1024 features, 5 stratified folds, the paper's
// 9-point alpha grid).
//
// Strategies:
//   rebuild per fold    — a fresh FitSrda per (fold, alpha): every grid
//                         point pays its own Gram build and factorization
//                         (the pre-engine CV loop).
//   fold downdates      — one solver bound to the full dataset, every fold
//                         factor derived by a rank-(|fold|+1) downdate of
//                         the parent's cached factor (RidgeSolver::
//                         ExcludeRows). One Gram build for the whole grid.
//   per-fold Gram cache — SelectSrdaAlpha today: one RidgeSolver per
//                         training fold, so each fold builds its Gram once
//                         and refactors per alpha.
//
// All three must agree on the per-alpha CV errors and the selected alpha;
// a separate traced pass proves via the ridge.fold_downdate_hit /
// _fallback counters that every downdate-strategy fold factor came from a
// downdate and none fell back to a rebuild.
//
// Pass --smoke for a seconds-long run without shape checks.

#include <algorithm>
#include <cmath>
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
#include "core/srda.h"
#include "dataset/split.h"
#include "dataset/spoken_letter_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "select/model_selection.h"
#include "solver/ridge_solver.h"

namespace srda {
namespace bench {
namespace {

struct FoldSets {
  std::vector<std::vector<int>> held_out;
  std::vector<DenseDataset> train;
  std::vector<DenseDataset> validation;
};

// Draws the same stratified folds SelectSrdaAlpha draws from this seed, so
// every strategy cross-validates the identical partition.
FoldSets BuildFoldSets(const DenseDataset& dataset, int num_folds,
                       uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::vector<int>> folds =
      StratifiedFolds(dataset.labels, dataset.num_classes, num_folds, &rng);
  FoldSets sets;
  sets.held_out = folds;
  for (int f = 0; f < num_folds; ++f) {
    std::vector<int> train_indices;
    for (int other = 0; other < num_folds; ++other) {
      if (other == f) continue;
      train_indices.insert(train_indices.end(),
                           folds[static_cast<size_t>(other)].begin(),
                           folds[static_cast<size_t>(other)].end());
    }
    std::sort(train_indices.begin(), train_indices.end());
    sets.train.push_back(Subset(dataset, train_indices));
    sets.validation.push_back(Subset(dataset, folds[static_cast<size_t>(f)]));
  }
  return sets;
}

double FoldError(const SrdaModel& model, const DenseDataset& train,
                 const DenseDataset& validation) {
  SRDA_CHECK(model.converged) << "SRDA failed during CV";
  CentroidClassifier classifier;
  classifier.Fit(model.embedding.Transform(train.features), train.labels,
                 train.num_classes);
  return ErrorRate(
      classifier.Predict(model.embedding.Transform(validation.features)),
      validation.labels);
}

AlphaSearchResult Finalize(std::vector<double> errors, int num_folds,
                           const std::vector<double>& alphas) {
  AlphaSearchResult result;
  for (double& error : errors) error /= num_folds;
  result.errors = std::move(errors);
  result.best_index = static_cast<int>(
      std::min_element(result.errors.begin(), result.errors.end()) -
      result.errors.begin());
  result.best_alpha = alphas[static_cast<size_t>(result.best_index)];
  return result;
}

// Pre-engine loop: every (fold, alpha) grid point rebuilds the training
// Gram and refactors from scratch.
AlphaSearchResult RebuildPerFold(const DenseDataset& dataset,
                                 const std::vector<double>& alphas,
                                 int num_folds, uint64_t seed) {
  const FoldSets sets = BuildFoldSets(dataset, num_folds, seed);
  std::vector<double> errors(alphas.size(), 0.0);
  for (size_t a = 0; a < alphas.size(); ++a) {
    for (int f = 0; f < num_folds; ++f) {
      const DenseDataset& train = sets.train[static_cast<size_t>(f)];
      SrdaOptions options;
      options.alpha = alphas[a];
      const SrdaModel model =
          FitSrda(train.features, train.labels, train.num_classes, options);
      errors[a] +=
          FoldError(model, train, sets.validation[static_cast<size_t>(f)]);
    }
  }
  return Finalize(std::move(errors), num_folds, alphas);
}

// Fold-downdate engine: one solver bound to the full dataset, each fold's
// solver derived from it by ExcludeRows. Alpha-outer / fold-inner, so the
// parent factors each grid point once and all k children downdate from it
// before the next alpha evicts the parent's single-entry factor cache.
AlphaSearchResult FoldDowndates(const DenseDataset& dataset,
                                const std::vector<double>& alphas,
                                int num_folds, uint64_t seed) {
  const FoldSets sets = BuildFoldSets(dataset, num_folds, seed);
  RidgeSolver full(&dataset.features);
  std::vector<RidgeSolver> fold_solvers;
  for (int f = 0; f < num_folds; ++f) {
    fold_solvers.push_back(
        full.ExcludeRows(sets.held_out[static_cast<size_t>(f)]));
  }
  std::vector<double> errors(alphas.size(), 0.0);
  for (size_t a = 0; a < alphas.size(); ++a) {
    for (int f = 0; f < num_folds; ++f) {
      const DenseDataset& train = sets.train[static_cast<size_t>(f)];
      SrdaOptions options;
      options.alpha = alphas[a];
      const SrdaModel model =
          FitSrda(&fold_solvers[static_cast<size_t>(f)], train.labels,
                  train.num_classes, options);
      errors[a] +=
          FoldError(model, train, sets.validation[static_cast<size_t>(f)]);
    }
  }
  return Finalize(std::move(errors), num_folds, alphas);
}

double CounterValue(const std::string& name) {
  for (const MetricSnapshot& snapshot :
       MetricsRegistry::Global().Snapshot()) {
    if (snapshot.name == name) return snapshot.value;
  }
  return 0.0;
}

double MaxErrorDiff(const AlphaSearchResult& a, const AlphaSearchResult& b) {
  double max_diff = 0.0;
  for (size_t g = 0; g < a.errors.size(); ++g) {
    max_diff = std::max(max_diff, std::fabs(a.errors[g] - b.errors[g]));
  }
  return max_diff;
}

int Main(int argc, char** argv) {
  BenchObservability obs(argc, argv);
  const bool smoke = HasFlag(argc, argv, "--smoke");

  // 26 * 50 = 1300 samples: every 4/5 training fold keeps 1040 >= 1024
  // rows, so all strategies stay on the primal side and every grid point
  // compares an n x n factor against an n x n downdate.
  SpokenLetterGeneratorOptions options;
  options.examples_per_class = smoke ? 15 : 50;
  options.num_features = smoke ? 48 : 1024;
  const DenseDataset data = GenerateSpokenLetterDataset(options);
  const int m = data.features.rows();
  const int n = data.features.cols();
  const int num_folds = smoke ? 3 : 5;
  const uint64_t seed = 97;

  // The paper's alpha/(1+alpha) grid over (0, 1).
  std::vector<double> alphas;
  const int num_alphas = smoke ? 3 : 9;
  for (int g = 1; g <= num_alphas; ++g) {
    const double ratio = static_cast<double>(g) / (num_alphas + 1);
    alphas.push_back(ratio / (1.0 - ratio));
  }

  std::cout << "Experiment: CV alpha search, fold downdates vs per-fold "
               "Gram cache\n"
            << "Profile: " << (smoke ? "smoke (tiny sizes, no checks)" : "full")
            << "\n"
            << "Dataset: " << m << " x " << n << ", " << num_folds
            << " folds, " << alphas.size() << " alphas\n";

  Stopwatch rebuild_watch;
  const AlphaSearchResult rebuilt =
      RebuildPerFold(data, alphas, num_folds, seed);
  const double rebuild_seconds = rebuild_watch.ElapsedSeconds();

  Stopwatch cached_watch;
  const AlphaSearchResult cached =
      SelectSrdaAlpha(data, alphas, num_folds, seed);
  const double cached_seconds = cached_watch.ElapsedSeconds();

  Stopwatch downdate_watch;
  const AlphaSearchResult downdated =
      FoldDowndates(data, alphas, num_folds, seed);
  const double downdate_seconds = downdate_watch.ElapsedSeconds();

  const double max_diff_rebuild = MaxErrorDiff(rebuilt, downdated);
  const double max_diff_cached = MaxErrorDiff(cached, downdated);
  const double max_diff_cached_rebuild = MaxErrorDiff(cached, rebuilt);
  const double speedup_rebuild =
      downdate_seconds > 0.0 ? rebuild_seconds / downdate_seconds : 0.0;
  const double speedup_cached =
      downdate_seconds > 0.0 ? cached_seconds / downdate_seconds : 0.0;

  TablePrinter table({"strategy", "seconds", "speedup", "best alpha"});
  table.AddRow({"rebuild per fold", FormatDouble(rebuild_seconds, 3), "1.0",
                FormatDouble(rebuilt.best_alpha, 4)});
  table.AddRow({"per-fold Gram cache", FormatDouble(cached_seconds, 3),
                FormatDouble(cached_seconds > 0.0
                                 ? rebuild_seconds / cached_seconds
                                 : 0.0,
                             2),
                FormatDouble(cached.best_alpha, 4)});
  table.AddRow({"fold downdates", FormatDouble(downdate_seconds, 3),
                FormatDouble(speedup_rebuild, 2),
                FormatDouble(downdated.best_alpha, 4)});
  table.Print(std::cout);
  std::cout << "max |CV error diff| vs rebuild: " << max_diff_rebuild
            << " (vs cached Gram: " << max_diff_cached << ")\n";

  // Traced pass: rerun the downdate strategy with the recorder on and
  // prove every fold factor came from a downdate of the parent's. Timing
  // above ran untraced (counters are off when the recorder is off) unless
  // the user asked for a trace; in that case keep their recorder state.
  const bool was_enabled = TraceRecorder::Global().enabled();
  if (!was_enabled) TraceRecorder::Global().SetEnabled(true);
  const double hits_before = CounterValue("ridge.fold_downdate_hit");
  const double fallbacks_before = CounterValue("ridge.fold_downdate_fallback");
  const AlphaSearchResult traced =
      FoldDowndates(data, alphas, num_folds, seed);
  const double hits = CounterValue("ridge.fold_downdate_hit") - hits_before;
  const double fallbacks =
      CounterValue("ridge.fold_downdate_fallback") - fallbacks_before;
  if (!was_enabled) TraceRecorder::Global().SetEnabled(false);
  SRDA_CHECK_EQ(traced.best_index, downdated.best_index)
      << "traced rerun diverged";
  std::cout << "fold factors: " << hits << " downdated, " << fallbacks
            << " rebuilt (condition fallback)\n";

  if (smoke) {
    std::cout << "\n[SMOKE] shape checks skipped\n";
    return 0;
  }

  std::ofstream json("BENCH_cv_downdate.json");
  json << "{\n  \"experiment\": \"cv_fold_downdate\",\n"
       << "  \"samples\": " << m << ",\n"
       << "  \"features\": " << n << ",\n"
       << "  \"num_folds\": " << num_folds << ",\n"
       << "  \"num_alphas\": " << alphas.size() << ",\n"
       << "  \"rebuild_seconds\": " << rebuild_seconds << ",\n"
       << "  \"cached_gram_seconds\": " << cached_seconds << ",\n"
       << "  \"downdate_seconds\": " << downdate_seconds << ",\n"
       << "  \"speedup_vs_rebuild\": " << speedup_rebuild << ",\n"
       << "  \"speedup_vs_cached_gram\": " << speedup_cached << ",\n"
       << "  \"max_error_diff_vs_rebuild\": " << max_diff_rebuild << ",\n"
       << "  \"best_alpha_rebuild\": " << rebuilt.best_alpha << ",\n"
       << "  \"best_alpha_downdate\": " << downdated.best_alpha << ",\n"
       << "  \"best_alpha_cached_gram\": " << cached.best_alpha << ",\n"
       << "  \"fold_downdate_hits\": " << hits << ",\n"
       << "  \"fold_downdate_fallbacks\": " << fallbacks << "\n}\n";
  std::cout << "wrote BENCH_cv_downdate.json\n";

  bool ok = true;
  ok &= ShapeCheck(speedup_rebuild >= 1.5,
                   "fold-downdate CV at least 1.5x faster than rebuilding "
                   "per fold");
  ok &= ShapeCheck(downdated.best_index == rebuilt.best_index,
                   "downdate and rebuild select the same alpha");
  ok &= ShapeCheck(max_diff_rebuild <= 1e-8,
                   "per-alpha CV errors match the rebuild within 1e-8");
  ok &= ShapeCheck(cached.best_index == rebuilt.best_index &&
                       max_diff_cached_rebuild <= 1e-8,
                   "SelectSrdaAlpha (per-fold Gram cache) matches the "
                   "rebuild's alpha and CV errors within 1e-8");
  ok &= ShapeCheck(
      hits == static_cast<double>(num_folds) * alphas.size() &&
          fallbacks == 0.0,
      "every fold x alpha factor came from a downdate (no fallbacks)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace srda

int main(int argc, char** argv) { return srda::bench::Main(argc, argv); }
