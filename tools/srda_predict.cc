// srda_predict: classify a dataset file with a model trained by srda_train.
//
// Usage:
//   srda_predict --model=FILE --data=FILE [--format=csv|libsvm|binary]
//                [--predictions-out=FILE] [--trace-out=FILE] [--metrics]
//                [--metrics-out=FILE]
//
// --trace-out writes a Chrome trace of the load/transform/score phases;
// --metrics prints the run summary; --metrics-out writes a final registry
// snapshot as Prometheus text, whatever the file extension.
//
// The model file may be either model-store codec (versioned text or SRDM
// binary), sniffed from the magic. "binary" data is the seekable SRDB
// container (srda_io). Prints the error rate against the labels stored in
// the data file; --predictions-out writes one predicted label per line in
// the ORIGINAL raw label space of the training file (the model's raw_labels
// map applied to each prediction), so gapped ids like {3, 7} come back out
// as 3 and 7, never 0 and 1. The error rate compares raw against raw for
// the same reason.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "classify/classifiers.h"
#include "common/arg_parser.h"
#include "common/check.h"
#include "io/dataset_io.h"
#include "model/codec.h"
#include "model/model.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace srda {
namespace {

constexpr char kUsage[] =
    "usage: srda_predict --model=FILE --data=FILE "
    "[--format=csv|libsvm|binary]\n"
    "                    [--predictions-out=FILE] [--trace-out=FILE]\n"
    "                    [--metrics] [--metrics-out=FILE]\n"
    "--metrics-out writes Prometheus text whatever the file extension.\n";

// The dataset's compact labels mapped back to the raw ids of the file
// (identity when the dataset carries no map).
std::vector<int> DatasetRawLabels(const std::vector<int>& labels,
                                  const std::vector<int>& raw_labels) {
  std::vector<int> raw(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    raw[i] = raw_labels.empty()
                 ? labels[i]
                 : raw_labels[static_cast<size_t>(labels[i])];
  }
  return raw;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string model_path = args.GetString("model", "");
  const std::string data_path = args.GetString("data", "");
  const std::string format = args.GetString("format", "csv");
  const std::string predictions_path = args.GetString("predictions-out", "");
  const std::string trace_path = args.GetString("trace-out", "");
  const bool print_metrics = args.GetBool("metrics");
  const std::string metrics_out = args.GetString("metrics-out", "");
  SRDA_CHECK(args.UnusedFlags().empty())
      << "unknown flag --" << args.UnusedFlags().front() << "\n" << kUsage;
  SRDA_CHECK(!model_path.empty() && !data_path.empty())
      << "--model and --data are required\n" << kUsage;
  SRDA_CHECK(format == "csv" || format == "libsvm" || format == "binary")
      << "unknown --format=" << format << "\n" << kUsage;

  const bool observe = !trace_path.empty() || print_metrics || TraceEnabled();
  if (observe) {
    TraceRecorder::Global().SetEnabled(true);
    TraceRecorder::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }

  const model::SrdaModel model = model::Load(model_path);

  Matrix embedded;
  std::vector<int> actual_raw;
  {
    TraceSpan span("predict.load_and_embed");
    if (format == "libsvm") {
      const SparseDataset dataset =
          ReadLibSvmFile(data_path, model.input_dim());
      embedded = model.embedding.Transform(dataset.features);
      actual_raw = DatasetRawLabels(dataset.labels, dataset.raw_labels);
    } else {
      const DenseDataset dataset = format == "binary"
                                       ? ReadDenseBinaryFile(data_path)
                                       : ReadDenseCsvFile(data_path);
      SRDA_CHECK_EQ(dataset.features.cols(), model.input_dim())
          << "data width does not match the model";
      embedded = model.embedding.Transform(dataset.features);
      actual_raw = DatasetRawLabels(dataset.labels, dataset.raw_labels);
    }
  }

  CentroidClassifier classifier;
  classifier.SetCentroids(model.centroids);
  std::vector<int> predictions;
  {
    TraceSpan span("predict.score");
    if (span.recording()) {
      span.AddArg("rows", static_cast<double>(embedded.rows()));
    }
    predictions = model.ToRawLabels(classifier.ScoreBatch(embedded));
  }
  std::cout << "classified " << predictions.size() << " samples; error rate "
            << 100.0 * ErrorRate(predictions, actual_raw) << "%\n";

  if (!predictions_path.empty()) {
    std::ofstream out(predictions_path);
    SRDA_CHECK(out.good()) << "cannot open " << predictions_path;
    for (int prediction : predictions) out << prediction << '\n';
    std::cout << "predictions written to " << predictions_path << "\n";
  }
  if (!metrics_out.empty()) {
    // One-shot run: a single exit snapshot, no background thread.
    obs::ExporterOptions exporter_options;
    exporter_options.path = metrics_out;
    obs::Exporter exporter(exporter_options);
    SRDA_CHECK(exporter.WriteSnapshot())
        << "cannot write --metrics-out=" << metrics_out;
    std::cout << "wrote metrics to " << metrics_out << "\n";
  }
  if (observe) {
    PrintRunSummary(std::cout);
    if (!trace_path.empty()) {
      if (TraceRecorder::Global().WriteJsonFile(trace_path)) {
        std::cout << "wrote trace to " << trace_path << "\n";
      } else {
        std::cout << "failed to write trace to " << trace_path << "\n";
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace srda

int main(int argc, char** argv) { return srda::Main(argc, argv); }
