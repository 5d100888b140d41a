// srda_train: train a discriminant model on a dataset file and save it.
//
// Usage:
//   srda_train --data=FILE [--format=csv|libsvm|binary]
//              [--algorithm=srda|lda|rlda|idr_qr|fisherfaces|semi_srda]
//              [--alpha=1.0] [--solver=normal|lsqr] [--lsqr-iterations=20]
//              [--shard-rows=N]
//              [--model-format=text|binary] --model-out=FILE
//
// CSV rows are "label,x1,...,xn"; LibSVM is the standard sparse format;
// binary is the repo's seekable SRDB container (srda_io). Sparse data
// always trains SRDA with LSQR. The saved artifact is a versioned
// model-store file (src/model): the embedding, the nearest-centroid head,
// the compact -> raw label map of the training file, and provenance
// (trainer, alpha; the seed field is always 0). --model-format picks the
// codec: "text" (default, inspectable, migration-friendly) or "binary"
// (native-layout SRDM, zero-parse load for serving). srda_predict and
// srda_serve read either.
//
// --shard-rows=N trains out of core: the dataset streams through a
// RowShardReader in shards of N rows, the dataset never resides in RAM as
// a whole, and the resulting model is bitwise identical to the in-RAM fit
// at any N. SRDA only. CSV and LibSVM files are parsed once into an
// unlinked spill file under TMPDIR (8 B per CSV cell; 12 B per LibSVM
// nonzero plus 8 B per row) that every pass reads back.
//
// --trace-out=FILE writes a Chrome/Perfetto trace of the training run;
// --metrics prints the phase/metrics summary without writing a trace. Either
// flag (or SRDA_TRACE=1 in the environment) enables the trace recorder.
// --metrics-out=FILE snapshots the metrics registry every
// --metrics-interval seconds, as Prometheus text whatever the extension.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "core/srda.h"
#include "core/trainers.h"
#include "io/dataset_io.h"
#include "io/row_shard_reader.h"
#include "linalg/sharded_operator.h"
#include "model/codec.h"
#include "model/model.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace srda {
namespace {

constexpr char kUsage[] =
    "usage: srda_train --data=FILE [--format=csv|libsvm|binary]\n"
    "                  [--algorithm=srda|lda|rlda|idr_qr|fisherfaces|"
    "semi_srda]\n"
    "                  [--alpha=1.0] [--solver=normal|lsqr]\n"
    "                  [--lsqr-iterations=20] [--shard-rows=N]\n"
    "                  [--model-format=text|binary]\n"
    "                  [--trace-out=FILE] [--metrics]\n"
    "                  [--metrics-out=FILE] [--metrics-interval=SEC]\n"
    "                  --model-out=FILE\n"
    "--metrics-out writes Prometheus text whatever the file extension.\n"
    "--shard-rows=N streams the data in N-row shards. CSV and LibSVM files\n"
    "are parsed once into a temporary spill under TMPDIR: 8 B per CSV cell,\n"
    "12 B per LibSVM nonzero plus 8 B per row.\n";

// Prints one line per regression target summarizing how LSQR stopped.
void PrintLsqrDiagnostics(const std::vector<RidgeRhsDiagnostics>& diagnostics,
                          int total_iterations) {
  if (diagnostics.empty()) return;
  std::cout << "LSQR convergence (" << total_iterations
            << " total iterations):\n";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const RidgeRhsDiagnostics& diag = diagnostics[i];
    std::cout << "  rhs " << i << ": " << diag.iterations << " iterations, "
              << "residual " << diag.residual_norm << ", normal residual "
              << diag.normal_residual_norm << ", stop "
              << LsqrStopName(diag.stop) << "\n";
  }
}

// Provenance shared by every training path below.
model::Provenance MakeProvenance(const std::string& algorithm, double alpha) {
  model::Provenance provenance;
  provenance.trainer = algorithm;
  provenance.alpha = alpha;
  return provenance;
}

// SRDA through a RidgeSolver bound to a row shard stream (one pass per
// Gram/RHS build or LSQR iteration), then one more pass embedding every
// shard into one m x (c-1) matrix, the size of the response matrix the fit
// already held. Out-of-core files stream through a RowShardReader; in-RAM
// LibSVM data is one whole-matrix shard. Embedding rows are independent,
// so BuildModel fits the same centroid head, and the model is bitwise
// identical, at any shard size.
model::SrdaModel TrainSrdaOnRows(RowShardSource* source,
                                 const std::vector<int>& labels,
                                 int num_classes,
                                 const std::vector<int>& raw_labels,
                                 double alpha, const std::string& solver,
                                 int lsqr_iterations, bool observe) {
  RidgeSolver ridge(source);
  SrdaOptions options;
  options.alpha = alpha;
  options.solver = source->sparse() || solver == "lsqr"
                       ? SrdaSolver::kLsqr
                       : SrdaSolver::kNormalEquations;
  options.lsqr_iterations = lsqr_iterations;
  const SrdaModel trained = FitSrda(&ridge, labels, num_classes, options);
  SRDA_CHECK(trained.converged) << "SRDA training failed";
  if (observe) {
    PrintLsqrDiagnostics(trained.lsqr_diagnostics,
                         trained.total_lsqr_iterations);
  }

  Matrix embedded(source->rows(), trained.embedding.output_dim());
  ForEachShard(source, [&](const RowShard& shard) {
    const Matrix part = shard.sparse != nullptr
                            ? trained.embedding.Transform(*shard.sparse)
                            : trained.embedding.Transform(*shard.dense);
    std::memcpy(embedded.RowPtr(shard.first_row), part.data(),
                static_cast<size_t>(part.rows()) * part.cols() *
                    sizeof(double));
  });
  return model::BuildModel(trained.embedding, embedded, labels, num_classes,
                           raw_labels, MakeProvenance("srda", alpha));
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string data_path = args.GetString("data", "");
  const std::string model_path = args.GetString("model-out", "");
  const std::string format = args.GetString("format", "csv");
  const std::string algorithm = args.GetString("algorithm", "srda");
  const double alpha = args.GetDouble("alpha", 1.0);
  const std::string solver = args.GetString("solver", "normal");
  const int lsqr_iterations = args.GetInt("lsqr-iterations", 20);
  const int shard_rows = args.GetInt("shard-rows", 0);
  const std::string model_format = args.GetString("model-format", "text");
  const std::string trace_path = args.GetString("trace-out", "");
  const bool print_metrics = args.GetBool("metrics");
  const std::string metrics_out = args.GetString("metrics-out", "");
  const double metrics_interval = args.GetDouble("metrics-interval", 1.0);
  SRDA_CHECK(args.UnusedFlags().empty())
      << "unknown flag --" << args.UnusedFlags().front() << "\n" << kUsage;
  SRDA_CHECK(!data_path.empty() && !model_path.empty())
      << "--data and --model-out are required\n" << kUsage;
  SRDA_CHECK(format == "csv" || format == "libsvm" || format == "binary")
      << "unknown --format=" << format << "\n" << kUsage;
  SRDA_CHECK(IsDenseTrainer(algorithm))
      << "unknown --algorithm=" << algorithm << "\n" << kUsage;
  SRDA_CHECK(solver == "normal" || solver == "lsqr")
      << "unknown --solver=" << solver << "\n" << kUsage;
  SRDA_CHECK(model_format == "text" || model_format == "binary")
      << "unknown --model-format=" << model_format << "\n" << kUsage;
  SRDA_CHECK_GE(shard_rows, 0) << "--shard-rows must be non-negative";

  const bool observe = !trace_path.empty() || print_metrics || TraceEnabled();
  if (observe) {
    TraceRecorder::Global().SetEnabled(true);
    TraceRecorder::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }
  // Periodic registry snapshots while training runs. Stop() writes a final
  // snapshot, so short runs still leave a complete file.
  obs::ExporterOptions exporter_options;
  exporter_options.path = metrics_out;
  exporter_options.interval_s = metrics_interval;
  obs::Exporter exporter(exporter_options);
  if (!metrics_out.empty()) {
    SRDA_CHECK(exporter.Start())
        << "cannot write --metrics-out=" << metrics_out;
  }

  model::SrdaModel model;
  Stopwatch watch;
  if (shard_rows > 0) {
    SRDA_CHECK(algorithm == "srda")
        << "--shard-rows supports --algorithm=srda only";
    const RowStreamFormat stream_format =
        format == "libsvm" ? RowStreamFormat::kLibSvm
        : format == "csv"  ? RowStreamFormat::kCsv
                           : RowStreamFormat::kBinary;
    RowShardReaderOptions reader_options;
    reader_options.shard_rows = shard_rows;
    RowShardReader reader(data_path, stream_format, reader_options);
    std::cout << "streaming " << reader.rows() << " samples, "
              << reader.cols() << " features, " << reader.num_classes()
              << " classes in shards of " << shard_rows << " rows\n";
    model = TrainSrdaOnRows(&reader, reader.labels(), reader.num_classes(),
                            reader.raw_labels(), alpha, solver,
                            lsqr_iterations, observe);
    std::cout << "streamed " << reader.bytes_streamed()
              << " bytes total, peak shard " << reader.peak_shard_bytes()
              << " bytes\n";
  } else if (format == "libsvm") {
    SRDA_CHECK(algorithm == "srda")
        << "sparse data supports --algorithm=srda only";
    const SparseDataset dataset = ReadLibSvmFile(data_path);
    std::cout << "loaded " << dataset.features.rows() << " samples, "
              << dataset.features.cols() << " features ("
              << dataset.features.AvgNonZerosPerRow()
              << " nnz/sample), " << dataset.num_classes << " classes\n";
    SparseMatrixShardSource source(&dataset.features,
                                   std::max(dataset.features.rows(), 1));
    model = TrainSrdaOnRows(&source, dataset.labels, dataset.num_classes,
                            dataset.raw_labels, alpha, solver,
                            lsqr_iterations, observe);
  } else {
    const DenseDataset dataset = format == "binary"
                                     ? ReadDenseBinaryFile(data_path)
                                     : ReadDenseCsvFile(data_path);
    std::cout << "loaded " << dataset.features.rows() << " samples, "
              << dataset.features.cols() << " features, "
              << dataset.num_classes << " classes\n";
    TrainerOptions options;
    options.alpha = alpha;
    options.solver =
        solver == "lsqr" ? SrdaSolver::kLsqr : SrdaSolver::kNormalEquations;
    options.lsqr_iterations = lsqr_iterations;
    const TrainResult trained =
        TrainDenseByName(algorithm, dataset.features, dataset.labels,
                         dataset.num_classes, options);
    if (observe) {
      PrintLsqrDiagnostics(trained.lsqr_diagnostics,
                           trained.total_lsqr_iterations);
    }
    model = model::BuildModel(trained.embedding,
                              trained.embedding.Transform(dataset.features),
                              dataset.labels, dataset.num_classes,
                              dataset.raw_labels,
                              MakeProvenance(algorithm, alpha));
  }
  const double seconds = watch.ElapsedSeconds();
  model::Save(model, model_path,
              model_format == "binary" ? model::Codec::kBinary
                                       : model::Codec::kText);
  std::cout << "trained " << algorithm << " (" << model.output_dim()
            << " directions) in " << seconds << " s; " << model_format
            << " model written to " << model_path << "\n";
  if (!metrics_out.empty()) {
    exporter.Stop();
    std::cout << "wrote metrics to " << metrics_out << " ("
              << exporter.snapshots_written() << " snapshots)\n";
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
