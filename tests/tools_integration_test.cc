// End-to-end subprocess tests for the command-line tools: generate a
// dataset, train a model, predict with it, and inspect the files — the full
// workflow a downstream user runs.
//
// The tool binaries' directory is injected by CMake as SRDA_TOOLS_DIR.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/dataset.h"
#include "io/dataset_io.h"
#include "sparse/sparse_matrix.h"

namespace srda {
namespace {

std::string ToolPath(const std::string& name) {
  return std::string(SRDA_TOOLS_DIR) + "/" + name;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Small well-separated blobs with caller-chosen raw class labels, for
// workflows that don't need a paper-scale dataset.
DenseDataset MakeBlobsDataset(int rows, int cols,
                              const std::vector<int>& class_labels,
                              uint64_t seed) {
  DenseDataset dataset;
  const int classes = static_cast<int>(class_labels.size());
  dataset.num_classes = classes;
  dataset.raw_labels = class_labels;
  dataset.features = Matrix(rows, cols);
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const int label = i % classes;
    dataset.labels.push_back(label);
    for (int j = 0; j < cols; ++j) {
      dataset.features(i, j) = 6.0 * (j % classes == label) +
                               rng.NextGaussian();
    }
  }
  return dataset;
}

// Runs a command, returns its exit code, captures stdout+stderr. The
// capture file embeds the test process id: ctest runs the tests of this
// binary as concurrent processes sharing one temp directory, and a shared
// file name races.
int RunCommand(const std::string& command, std::string* output) {
  const std::string file =
      TempPath("cmd-output." + std::to_string(::getpid()) + ".txt");
  const int code = std::system((command + " > " + file + " 2>&1").c_str());
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  *output = buffer.str();
  std::remove(file.c_str());
  return code;
}

TEST(ToolsIntegrationTest, GenerateTrainPredictCsvWorkflow) {
  const std::string data = TempPath("letters.csv");
  const std::string model = TempPath("letters.model");
  const std::string predictions = TempPath("letters.pred");
  std::string output;

  ASSERT_EQ(RunCommand(ToolPath("srda_generate") + " --dataset=letters --out=" +
                    data + " --seed=3",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("letters dataset"), std::string::npos);

  ASSERT_EQ(RunCommand(ToolPath("srda_dataset_info") + " --data=" + data, &output),
            0)
      << output;
  EXPECT_NE(output.find("26"), std::string::npos);  // 26 classes.

  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --algorithm=srda --alpha=1.0 --model-out=" + model,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("trained srda"), std::string::npos);

  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model + " --data=" +
                    data + " --predictions-out=" + predictions,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("error rate"), std::string::npos);

  // Predictions file: one integer per sample.
  std::ifstream pred(predictions);
  int count = 0;
  int label = 0;
  while (pred >> label) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 26);
    ++count;
  }
  EXPECT_GT(count, 1000);

  std::remove(data.c_str());
  std::remove(model.c_str());
  std::remove(predictions.c_str());
}

TEST(ToolsIntegrationTest, SparseLibSvmWorkflow) {
  const std::string data = TempPath("text.libsvm");
  const std::string model = TempPath("text.model");
  std::string output;

  ASSERT_EQ(RunCommand(ToolPath("srda_generate") + " --dataset=text --out=" + data,
                &output),
            0)
      << output;

  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --format=libsvm --model-out=" + model,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("nnz/sample"), std::string::npos);

  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model + " --data=" +
                    data + " --format=libsvm",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("error rate"), std::string::npos);

  std::remove(data.c_str());
  std::remove(model.c_str());
}

TEST(ToolsIntegrationTest, AllDenseAlgorithmsTrain) {
  const std::string data = TempPath("digits-small.csv");
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_generate") + " --dataset=digits --out=" + data,
                &output),
            0)
      << output;
  for (const std::string algorithm :
       {"srda", "lda", "rlda", "idr_qr", "fisherfaces"}) {
    const std::string model = TempPath("digits-" + algorithm + ".model");
    EXPECT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                      " --algorithm=" + algorithm + " --model-out=" + model,
                  &output),
              0)
        << algorithm << ": " << output;
    std::remove(model.c_str());
  }
  std::remove(data.c_str());
}

TEST(ToolsIntegrationTest, HelpAndBadFlagsExitCleanly) {
  std::string output;
  EXPECT_EQ(RunCommand(ToolPath("srda_train") + " --help", &output), 0);
  EXPECT_NE(output.find("usage:"), std::string::npos);
  // Unknown flags are rejected with a non-zero exit.
  EXPECT_NE(RunCommand(ToolPath("srda_train") + " --banana=1", &output), 0);
  EXPECT_NE(output.find("unknown flag"), std::string::npos);
  // A flag no tool takes, such as --event-log, is rejected, not ignored.
  EXPECT_NE(RunCommand(ToolPath("srda_train") + " --event-log=x", &output), 0);
  EXPECT_NE(output.find("unknown flag --event-log"), std::string::npos)
      << output;
  // An unknown flag next to valid ones still fails, and writes no model.
  const std::string data = TempPath("removed-flag.csv");
  const std::string model = TempPath("removed-flag.model");
  WriteDenseCsvFile(MakeBlobsDataset(60, 6, {0, 1, 2}, 3), data);
  std::remove(model.c_str());
  EXPECT_NE(RunCommand(ToolPath("srda_train") + " --data=" + data +
                           " --sketch-mode=precond --model-out=" + model,
                       &output),
            0);
  EXPECT_NE(output.find("unknown flag --sketch-mode"), std::string::npos)
      << output;
  EXPECT_FALSE(std::ifstream(model).good()) << "no model may be written";
  // Durations that cannot be converted to a clock duration are rejected by
  // name, with a real model and data file so nothing else can fail.
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                           " --model-out=" + model,
                       &output),
            0)
      << output;
  const std::string serve = ToolPath("srda_serve") + " --model=" + model +
                            " --data=" + data + " --requests=100";
  const struct {
    std::string command;
    const char* flag;
  } bad_durations[] = {
      {serve + " --max-delay-ms=inf", "--max-delay-ms"},
      {serve + " --linger=inf", "--linger"},
      {serve + " --metrics-interval=inf", "--metrics-interval"},
      {ToolPath("srda_train") + " --data=" + data + " --model-out=" + model +
           " --metrics-interval=inf",
       "--metrics-interval"},
  };
  for (const auto& bad : bad_durations) {
    EXPECT_NE(RunCommand(bad.command, &output), 0) << bad.command;
    EXPECT_NE(output.find(bad.flag), std::string::npos) << output;
  }
  std::remove(model.c_str());
  std::remove(data.c_str());
}

TEST(ToolsIntegrationTest, SemiSupervisedTrainerTrains) {
  // semi_srda eigendecomposes an m x m matrix, so it gets a small dataset
  // instead of riding the digits loop above.
  const std::string data = TempPath("semi.csv");
  const std::string model = TempPath("semi.model");
  WriteDenseCsvFile(MakeBlobsDataset(90, 8, {0, 1, 2}, 5), data);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --algorithm=semi_srda --model-out=" + model,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("trained semi_srda"), std::string::npos);
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model +
                    " --data=" + data,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("error rate"), std::string::npos);
  std::remove(data.c_str());
  std::remove(model.c_str());
}

TEST(ToolsIntegrationTest, BinaryModelFormatMatchesText) {
  // The same training run saved through both codecs must predict
  // identically (the binary file is the mmap-served deployment artifact).
  const std::string data = TempPath("fmt.csv");
  WriteDenseCsvFile(MakeBlobsDataset(120, 10, {0, 1, 2, 3}, 9), data);
  const std::string text_model = TempPath("fmt-text.model");
  const std::string binary_model = TempPath("fmt-binary.model");
  const std::string text_pred = TempPath("fmt-text.pred");
  const std::string binary_pred = TempPath("fmt-binary.pred");
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-format=text --model-out=" + text_model,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-format=binary --model-out=" + binary_model,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("binary model written"), std::string::npos);
  // The binary file leads with the SRDM magic.
  {
    std::ifstream in(binary_model, std::ios::binary);
    char magic[4] = {};
    in.read(magic, 4);
    EXPECT_EQ(std::string(magic, 4), "SRDM");
  }
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + text_model +
                    " --data=" + data + " --predictions-out=" + text_pred,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + binary_model +
                    " --data=" + data + " --predictions-out=" + binary_pred,
                &output),
            0)
      << output;
  EXPECT_EQ(Slurp(text_pred), Slurp(binary_pred));
  for (const std::string& path :
       {data, text_model, binary_model, text_pred, binary_pred}) {
    std::remove(path.c_str());
  }
}

TEST(ToolsIntegrationTest, ShardedTrainMatchesInRamModel) {
  // --shard-rows streams the file (text formats through a spill under
  // TMPDIR) and must save the very bytes the in-RAM fit saves; the spill
  // must not outlive the run.
  const std::string spill_dir =
      TempPath("sharded-tmp." + std::to_string(::getpid()));
  ASSERT_EQ(std::system(("rm -rf " + spill_dir + " && mkdir " + spill_dir)
                            .c_str()),
            0);
  const std::string libsvm = TempPath("sharded.libsvm");
  const std::string csv = TempPath("sharded.csv");
  {
    SparseDataset sparse;
    sparse.num_classes = 3;
    sparse.raw_labels = {1, 4, 7};
    SparseMatrixBuilder builder(300, 80);
    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
      const int label = i % 3;
      sparse.labels.push_back(label);
      for (int j = 0; j < 80; ++j) {
        if (rng.NextDouble() < (j % 3 == label ? 0.3 : 0.08)) {
          builder.Add(i, j, rng.NextDouble() + (j % 3 == label));
        }
      }
    }
    sparse.features = std::move(builder).Build();
    WriteLibSvmFile(sparse, libsvm);
  }
  WriteDenseCsvFile(MakeBlobsDataset(200, 10, {0, 1, 2}, 23), csv);
  struct Case {
    std::string data;
    std::string flags;
  };
  const std::vector<Case> cases = {
      {libsvm, " --format=libsvm --solver=lsqr"},
      {csv, " --format=csv"},
      {csv, " --format=csv --solver=lsqr"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.flags);
    const std::string in_ram = TempPath("sharded-inram.model");
    const std::string streamed = TempPath("sharded-streamed.model");
    const std::string train = ToolPath("srda_train") + " --data=" + c.data +
                              c.flags + " --model-format=binary";
    std::string output;
    ASSERT_EQ(RunCommand(train + " --model-out=" + in_ram, &output), 0)
        << output;
    ASSERT_EQ(RunCommand("TMPDIR=" + spill_dir + " " + train +
                             " --shard-rows=64 --model-out=" + streamed,
                         &output),
              0)
        << output;
    EXPECT_NE(output.find("in shards of 64 rows"), std::string::npos)
        << output;
    EXPECT_EQ(RunCommand("cmp " + in_ram + " " + streamed, &output), 0)
        << output;
    std::remove(in_ram.c_str());
    std::remove(streamed.c_str());
  }
  std::string listing;
  EXPECT_EQ(RunCommand("ls -A " + spill_dir, &listing), 0);
  EXPECT_EQ(listing, "") << "spill files left behind";
  std::remove(libsvm.c_str());
  std::remove(csv.c_str());
  std::remove(spill_dir.c_str());
}

TEST(ToolsIntegrationTest, InRamTrainNeedsNoTempDir) {
  // Only --shard-rows spills under TMPDIR; an in-RAM read keeps the whole
  // file in memory, so a missing TMPDIR must change neither the exit code
  // nor the saved bytes.
  const std::string libsvm = TempPath("notmp.libsvm");
  const std::string csv = TempPath("notmp.csv");
  {
    SparseDataset sparse;
    sparse.num_classes = 2;
    SparseMatrixBuilder builder(120, 30);
    Rng rng(29);
    for (int i = 0; i < 120; ++i) {
      const int label = i % 2;
      sparse.labels.push_back(label);
      for (int j = 0; j < 30; ++j) {
        if (rng.NextDouble() < (j % 2 == label ? 0.3 : 0.1)) {
          builder.Add(i, j, rng.NextDouble() + (j % 2 == label));
        }
      }
    }
    sparse.features = std::move(builder).Build();
    WriteLibSvmFile(sparse, libsvm);
  }
  WriteDenseCsvFile(MakeBlobsDataset(90, 6, {0, 1, 2}, 31), csv);
  for (const std::string& data :
       {libsvm + " --format=libsvm --solver=lsqr", csv + " --format=csv"}) {
    SCOPED_TRACE(data);
    const std::string with_tmp = TempPath("notmp-default.model");
    const std::string without_tmp = TempPath("notmp-missing.model");
    const std::string train = ToolPath("srda_train") + " --data=" + data +
                              " --model-format=binary";
    std::string output;
    ASSERT_EQ(RunCommand(train + " --model-out=" + with_tmp, &output), 0)
        << output;
    ASSERT_EQ(RunCommand("TMPDIR=/nonexistent " + train +
                             " --model-out=" + without_tmp,
                         &output),
              0)
        << output;
    EXPECT_EQ(RunCommand("cmp " + with_tmp + " " + without_tmp, &output), 0)
        << output;
    std::remove(with_tmp.c_str());
    std::remove(without_tmp.c_str());
  }
  std::remove(libsvm.c_str());
  std::remove(csv.c_str());
}

TEST(ToolsIntegrationTest, PredictReadsSrdbBinaryData) {
  // Train on CSV, score the SRDB container of the same rows: identical
  // error rate, no CSV parse on the predict side.
  const DenseDataset dataset = MakeBlobsDataset(100, 8, {0, 1, 2}, 21);
  const std::string csv = TempPath("srdb.csv");
  const std::string srdb = TempPath("srdb.bin");
  const std::string model = TempPath("srdb.model");
  WriteDenseCsvFile(dataset, csv);
  WriteDenseBinaryFile(dataset, srdb);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + csv +
                    " --model-out=" + model,
                &output),
            0)
      << output;
  std::string csv_output;
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model +
                    " --data=" + csv,
                &csv_output),
            0)
      << csv_output;
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model +
                    " --data=" + srdb + " --format=binary",
                &output),
            0)
      << output;
  // Both runs print "... samples; error rate X%"; the rates must agree.
  EXPECT_EQ(output.substr(output.find("error rate")),
            csv_output.substr(csv_output.find("error rate")));
  for (const std::string& path : {csv, srdb, model}) {
    std::remove(path.c_str());
  }
}

TEST(ToolsIntegrationTest, PredictionsComeBackInRawLabelSpace) {
  // Training labels {3, 7} are compacted internally; the predictions file
  // must surface the original ids, never the compact {0, 1}.
  const std::string data = TempPath("gapped.csv");
  const std::string model = TempPath("gapped.model");
  const std::string predictions = TempPath("gapped.pred");
  WriteDenseCsvFile(MakeBlobsDataset(80, 6, {3, 7}, 13), data);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-out=" + model,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model +
                    " --data=" + data + " --predictions-out=" + predictions,
                &output),
            0)
      << output;
  // Well-separated blobs: raw-vs-raw comparison scores (near) zero error.
  EXPECT_NE(output.find("error rate 0%"), std::string::npos) << output;
  std::ifstream pred(predictions);
  int label = 0;
  int count = 0;
  while (pred >> label) {
    EXPECT_TRUE(label == 3 || label == 7) << "compact label leaked: " << label;
    ++count;
  }
  EXPECT_EQ(count, 80);
  for (const std::string& path : {data, model, predictions}) {
    std::remove(path.c_str());
  }
}

TEST(ToolsIntegrationTest, ServeMatchesPredictExactly) {
  // The acceptance gate for micro-batching: the server's ordered pass over
  // the dataset writes byte-for-byte the predictions file srda_predict
  // writes, and the load phase reports throughput and latency percentiles.
  const std::string data = TempPath("serve.csv");
  const std::string model = TempPath("serve.model");
  const std::string predict_out = TempPath("serve-predict.pred");
  const std::string serve_out = TempPath("serve-serve.pred");
  const std::string json = TempPath("serve.json");
  WriteDenseCsvFile(MakeBlobsDataset(300, 12, {2, 5, 11}, 17), data);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-format=binary --model-out=" + model,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model +
                    " --data=" + data + " --predictions-out=" + predict_out,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_serve") + " --model=" + model +
                    " --data=" + data + " --clients=3 --client-block=17" +
                    " --requests=5000 --max-batch=64 --max-delay-ms=0.2" +
                    " --predictions-out=" + serve_out + " --json-out=" + json,
                &output),
            0)
      << output;
  EXPECT_NE(output.find("predictions/s"), std::string::npos);
  EXPECT_NE(output.find("latency p50"), std::string::npos);
  const std::string from_predict = Slurp(predict_out);
  EXPECT_FALSE(from_predict.empty());
  EXPECT_EQ(from_predict, Slurp(serve_out));
  const std::string measurements = Slurp(json);
  EXPECT_NE(measurements.find("\"predictions_per_s\""), std::string::npos);
  EXPECT_NE(measurements.find("\"latency_p99_us\""), std::string::npos);
  for (const std::string& path :
       {data, model, predict_out, serve_out, json}) {
    std::remove(path.c_str());
  }
}

TEST(ToolsIntegrationTest, ServeTraceCarriesServingSpans) {
  // The serving observability contract: a traced srda_serve run records
  // model.load and serve.batch spans that srda_trace_check validates.
  const std::string data = TempPath("trace.csv");
  const std::string model = TempPath("trace.model");
  const std::string trace = TempPath("serve-trace.json");
  WriteDenseCsvFile(MakeBlobsDataset(90, 8, {0, 1, 2}, 29), data);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-out=" + model,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_serve") + " --model=" + model +
                    " --data=" + data + " --requests=500 --trace-out=" + trace,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_trace_check") + " " + trace +
                    " --require=model.load,serve.batch,classify.score",
                &output),
            0)
      << output;
  for (const std::string& path : {data, model, trace}) {
    std::remove(path.c_str());
  }
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

TEST(ToolsIntegrationTest, BenchDiffGatePassesAndCatchesRegressions) {
  // The perf gate's contract: green on an unchanged rerun, red on a real
  // regression, and a distinct exit code for garbage input.
  const std::string baseline = TempPath("bench-baseline.json");
  const std::string same = TempPath("bench-same.json");
  const std::string slower = TempPath("bench-slower.json");
  const std::string faster = TempPath("bench-faster.json");
  const std::string garbage = TempPath("bench-garbage.json");
  WriteTextFile(baseline,
                "{\"serving\":{\"latency_p50_us\":100.0,"
                "\"throughput_per_s\":5000.0},\"rows\":1000}\n");
  WriteTextFile(same,
                "{\"serving\":{\"latency_p50_us\":101.0,"
                "\"throughput_per_s\":4980.0},\"rows\":1000}\n");
  // Fabricated regression: latency doubled, throughput halved.
  WriteTextFile(slower,
                "{\"serving\":{\"latency_p50_us\":200.0,"
                "\"throughput_per_s\":2500.0},\"rows\":1000}\n");
  // Improvement must never trip the gate.
  WriteTextFile(faster,
                "{\"serving\":{\"latency_p50_us\":50.0,"
                "\"throughput_per_s\":9000.0},\"rows\":1000}\n");
  WriteTextFile(garbage, "{not json at all\n");

  const std::string tool = ToolPath("srda_bench_diff");
  std::string output;
  // Identical files: always green.
  EXPECT_EQ(RunCommand(tool + " " + baseline + " " + baseline, &output), 0)
      << output;
  // Within-noise rerun: green at the default threshold.
  EXPECT_EQ(RunCommand(tool + " " + baseline + " " + same, &output), 0)
      << output;
  // 2x-slower fabricated run: red (exit 1), and the table names the
  // regressed metrics.
  int code = RunCommand(tool + " " + baseline + " " + slower, &output);
  ASSERT_TRUE(WIFEXITED(code));
  EXPECT_EQ(WEXITSTATUS(code), 1) << output;
  EXPECT_NE(output.find("latency_p50_us"), std::string::npos) << output;
  EXPECT_NE(output.find("REGRESSED"), std::string::npos) << output;
  // Strictly-better run: green.
  EXPECT_EQ(RunCommand(tool + " " + baseline + " " + faster, &output), 0)
      << output;
  // Malformed input: exit 2, not a silent pass or a crash.
  code = RunCommand(tool + " " + baseline + " " + garbage, &output);
  ASSERT_TRUE(WIFEXITED(code));
  EXPECT_EQ(WEXITSTATUS(code), 2) << output;
  // A tightened threshold flips the within-noise pair red.
  code = RunCommand(tool + " " + baseline + " " + same + " --threshold=0.1",
                    &output);
  ASSERT_TRUE(WIFEXITED(code));
  EXPECT_EQ(WEXITSTATUS(code), 1) << output;
  for (const std::string& path : {baseline, same, slower, faster, garbage}) {
    std::remove(path.c_str());
  }
}

TEST(ToolsIntegrationTest, PredictMetricsOutValidates) {
  // srda_predict --metrics-out writes Prometheus text that satisfies the
  // validator behind srda_trace_check, whatever the file extension.
  const std::string data = TempPath("obs-pred.csv");
  const std::string model = TempPath("obs-pred.model");
  const std::string metrics = TempPath("obs-pred.prom");
  const std::string metrics_json = TempPath("obs-pred-metrics.json");
  WriteDenseCsvFile(MakeBlobsDataset(90, 8, {0, 1, 2}, 31), data);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-out=" + model,
                &output),
            0)
      << output;
  for (const std::string& path : {metrics, metrics_json}) {
    ASSERT_EQ(RunCommand(ToolPath("srda_predict") + " --model=" + model +
                      " --data=" + data + " --metrics-out=" + path,
                  &output),
              0)
        << output;
    // The snapshot validates and carries the always-on liveness sample.
    EXPECT_EQ(RunCommand(ToolPath("srda_trace_check") + " " + path +
                      " --format=prom --require=srda_up",
                  &output),
              0)
        << output;
  }
  // The snapshot fed to the wrong validator must be rejected.
  EXPECT_NE(RunCommand(ToolPath("srda_trace_check") + " " + metrics +
                    " --format=trace",
                &output),
            0);
  for (const std::string& path : {data, model, metrics, metrics_json}) {
    std::remove(path.c_str());
  }
}

TEST(ToolsIntegrationTest, ServeTraceAndMetricsRecordLifecycle) {
  // A served run leaves a trace with the model load and the served
  // batches, and a final metrics snapshot with the serving instruments.
  const std::string data = TempPath("obs-serve.csv");
  const std::string model = TempPath("obs-serve.model");
  const std::string trace = TempPath("obs-serve-trace.json");
  const std::string metrics = TempPath("obs-serve.prom");
  WriteDenseCsvFile(MakeBlobsDataset(90, 8, {0, 1, 2}, 37), data);
  std::string output;
  ASSERT_EQ(RunCommand(ToolPath("srda_train") + " --data=" + data +
                    " --model-out=" + model,
                &output),
            0)
      << output;
  ASSERT_EQ(RunCommand(ToolPath("srda_serve") + " --model=" + model +
                    " --data=" + data + " --requests=300 --trace-out=" +
                    trace + " --metrics-out=" + metrics,
                &output),
            0)
      << output;
  EXPECT_NE(output.find(" predictions in "), std::string::npos) << output;
  EXPECT_EQ(RunCommand(ToolPath("srda_trace_check") + " " + trace +
                    " --require=model.load,serve.batch,classify.score",
                &output),
            0)
      << output;
  EXPECT_EQ(RunCommand(ToolPath("srda_trace_check") + " " + metrics +
                    " --format=prom --require=srda_up,srda_serve_requests",
                &output),
            0)
      << output;
  for (const std::string& path : {data, model, trace, metrics}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace srda
