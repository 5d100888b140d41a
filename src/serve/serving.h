// Micro-batching prediction serving: the "millions of users" path.
//
// A PredictionService owns a queue of in-flight prediction requests and one
// dispatcher thread that drains it greedily: it sleeps only while the queue
// is empty, and whenever it wakes or finishes a batch it takes every
// pending query, up to `max_batch`, as the next batch. No timer holds a
// batch open; under load batches still fill, because rows queue up while
// the previous batch computes. Each batch is embedded with one
// blocked GEMM (LinearEmbedding::Transform) and scored with one batched
// Scorer call (classify/classifiers.h), so server throughput rides the
// level-3 kernels and the common/parallel.h pool instead of paying a gemv
// per query. A lone single-row request is the common case at low load;
// both of its products run the GEMM tile's one-row vector passes
// (DESIGN.md §4j), so a 1-row batch costs under half of a 4-row one. Because per-row scoring is independent of the batch a row
// lands in, the service returns exactly the predictions a single-pass
// srda_predict run produces, regardless of traffic interleaving.
//
// Clients are threads calling Predict() with a block of raw feature rows
// (or one row); the call blocks until every row's raw label is back.
// Blocks from concurrent clients coalesce into shared batches.
//
// Observability: every batch runs under a `serve.batch` span (rows +
// wait-us args), and the dispatcher feeds two windowed histograms, one per
// fact: serve.batch_size (once per batch; its sum and count are the
// request and batch counts) and serve.latency_us (once per request,
// enqueue -> completion in microseconds). Each holds its all-time total()
// beside its trailing-window slots, in fixed memory: p50/p99 are the
// histogram's nearest-rank quantiles, within Histogram::kRelativeError
// (1%), and the same figures reach /metrics, srda_serve and
// BENCH_serving.json.

#ifndef SRDA_SERVE_SERVING_H_
#define SRDA_SERVE_SERVING_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "classify/classifiers.h"
#include "matrix/matrix.h"
#include "model/model.h"

namespace srda {
namespace serve {

struct ServeOptions {
  // The most queries one batch scores; it bounds the batch's memory.
  int max_batch = 256;
};

// Aggregate counters since construction.
struct ServeStats {
  int64_t requests = 0;
  int64_t batches = 0;
  int max_batch_seen = 0;

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

class PredictionService {
 public:
  // `model` must outlive the service. Spawns the dispatcher thread.
  PredictionService(const model::SrdaModel* model,
                    const ServeOptions& options = {});

  // Drains outstanding requests, then stops the dispatcher.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Scores every row of `queries` (raw feature space, one query per row)
  // through the micro-batcher and returns one RAW label per row (the
  // model's raw_labels map applied to the predicted class). Blocks until
  // all rows complete; rows from concurrent Predict calls share batches.
  std::vector<int> Predict(const Matrix& queries);

  // Single-query path: `features` points at input_dim() doubles, read in
  // place until the call returns.
  int Predict(const double* features);

  int input_dim() const { return model_->input_dim(); }

  // Snapshot of the counters (thread-safe).
  ServeStats Stats();

 private:
  struct Request {
    const double* features = nullptr;  // input_dim doubles, caller-owned
    int result = 0;                    // raw label, valid once done
    bool done = false;
    int64_t enqueue_ns = 0;
  };

  // Queues `count` requests and blocks until the dispatcher has scored
  // every one of them.
  void EnqueueAndWait(Request* requests, size_t count);
  void DispatcherLoop();
  // Scores one closed batch outside the lock; returns raw labels.
  std::vector<int> ScoreBatch(const std::vector<Request*>& batch) const;

  const model::SrdaModel* const model_;
  const ServeOptions options_;
  CentroidClassifier scorer_;

  std::mutex mutex_;
  std::condition_variable pending_cv_;  // dispatcher waits for work
  std::condition_variable done_cv_;     // clients wait for completion
  std::vector<Request*> pending_;
  bool stopping_ = false;

  ServeStats stats_;  // guarded by mutex_

  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace srda

#endif  // SRDA_SERVE_SERVING_H_
