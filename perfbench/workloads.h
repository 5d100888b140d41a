// The benchmark's three workloads. Each takes its seed, generates its own
// inputs, drives the library through its public API only, checks every
// output, and fills a Report: end-to-end metrics on an untraced run,
// per-layer metrics on a traced one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/face_generator.h"
#include "dataset/text_generator.h"
#include "harness.h"

namespace perfbench {

// Problem sizes. FullSizes() is the benchmark; SmokeSizes() runs every
// workload in seconds for the harness self-test.
struct Sizes {
  srda::FaceGeneratorOptions faces;  // seed is overwritten per run
  int primal_per_class = 30;         // m > n: primal n x n Gram
  int dual_per_class = 10;           // m < n: dual m x m Gram
  int cv_folds = 5;
  int cv_alphas = 9;
  srda::TextGeneratorOptions text;   // seed is overwritten per run
  double text_train_fraction = 0.5;
  int lsqr_iterations = 20;
  int shard_rows = 4096;
  int bulk_repeats = 10;     // serve_faces: bulk passes over the test split
  int block_rows = 64;
  int setup_repeats = 5;
  int gemm_n = 1024;
  int64_t triad_array_bytes = 0;  // 0: four times the last-level cache
  bool check_error_bands = true;
};

Sizes FullSizes();
Sizes SmokeSizes();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
  std::string work_dir = ".";  // scratch files (LibSVM, models, spans)
};

struct RunOutput {
  Report report;
  OpLedger ops;
  uint64_t input_digest = 0;
};

const std::vector<std::string>& WorkloadNames();

RunOutput RunWorkload(const RunConfig& config);

// Digest of the inputs a workload generates from `seed`: the data, labels
// and split indices. Equal seeds must give equal digests.
uint64_t InputDigest(const std::string& workload, uint64_t seed,
                     const Sizes& sizes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
