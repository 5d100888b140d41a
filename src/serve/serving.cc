#include "serve/serving.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace srda {
namespace serve {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PredictionService::PredictionService(const model::SrdaModel* model,
                                     const ServeOptions& options)
    : model_(model), options_(options) {
  SRDA_CHECK(model_ != nullptr) << "serving needs a model";
  model_->Validate();
  SRDA_CHECK_GT(options_.max_batch, 0) << "max_batch must be positive";
  scorer_.SetCentroids(model_->centroids);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

PredictionService::~PredictionService() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  pending_cv_.notify_all();
  dispatcher_.join();
}

std::vector<int> PredictionService::ScoreBatch(
    const std::vector<Request*>& batch) const {
  Matrix block(static_cast<int>(batch.size()), model_->input_dim());
  for (size_t i = 0; i < batch.size(); ++i) {
    std::memcpy(block.RowPtr(static_cast<int>(i)), batch[i]->features,
                static_cast<size_t>(model_->input_dim()) * sizeof(double));
  }
  const Matrix embedded = model_->embedding.Transform(block);
  return model_->ToRawLabels(scorer_.ScoreBatch(embedded));
}

void PredictionService::DispatcherLoop() {
  // One instrument per fact; each carries its all-time total and the
  // trailing-window view behind /metrics. Request and batch counts are
  // batch_size's sum and count.
  static WindowedHistogram* const batch_size =
      MetricsRegistry::Global().windowed_histogram("serve.batch_size");
  static WindowedHistogram* const latency_us =
      MetricsRegistry::Global().windowed_histogram("serve.latency_us");

  std::vector<Request*> batch;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Greedy batching: sleep only while the queue is empty, then take up to
    // max_batch pending rows; rows that arrive meanwhile form the next batch.
    // Stopping drains the queue first, so the destructor strands no client.
    pending_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) return;
    const int take =
        std::min(static_cast<int>(pending_.size()), options_.max_batch);
    batch.assign(pending_.begin(), pending_.begin() + take);
    pending_.erase(pending_.begin(), pending_.begin() + take);

    lock.unlock();
    std::vector<int> results;
    {
      TraceSpan span("serve.batch");
      if (span.recording()) {
        span.AddArg("rows", static_cast<double>(batch.size()));
        span.AddArg(
            "wait_us",
            static_cast<double>(NowNs() - batch.front()->enqueue_ns) * 1e-3);
      }
      results = ScoreBatch(batch);
    }
    const int64_t done_ns = NowNs();
    batch_size->Observe(static_cast<double>(batch.size()));

    lock.lock();
    stats_.requests += static_cast<int64_t>(batch.size());
    stats_.batches += 1;
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<int>(batch.size()));
    for (size_t i = 0; i < batch.size(); ++i) {
      const double latency =
          static_cast<double>(done_ns - batch[i]->enqueue_ns) * 1e-3;
      latency_us->Observe(latency);
      batch[i]->result = results[i];
      batch[i]->done = true;
    }
    done_cv_.notify_all();
  }
}

void PredictionService::EnqueueAndWait(Request* requests, size_t count) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    SRDA_CHECK(!stopping_) << "Predict on a stopped service";
    const int64_t now = NowNs();
    for (size_t i = 0; i < count; ++i) {
      requests[i].enqueue_ns = now;
      pending_.push_back(&requests[i]);
    }
  }
  pending_cv_.notify_one();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [requests, count] {
    for (size_t i = 0; i < count; ++i) {
      if (!requests[i].done) return false;
    }
    return true;
  });
}

std::vector<int> PredictionService::Predict(const Matrix& queries) {
  SRDA_CHECK_EQ(queries.cols(), model_->input_dim())
      << "query width does not match the model";
  SRDA_CHECK_GT(queries.rows(), 0) << "empty query block";
  std::vector<Request> requests(static_cast<size_t>(queries.rows()));
  for (int i = 0; i < queries.rows(); ++i) {
    requests[static_cast<size_t>(i)].features = queries.RowPtr(i);
  }
  EnqueueAndWait(requests.data(), requests.size());
  std::vector<int> predictions(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    predictions[i] = requests[i].result;
  }
  return predictions;
}

int PredictionService::Predict(const double* features) {
  Request request;
  request.features = features;
  EnqueueAndWait(&request, 1);
  return request.result;
}

ServeStats PredictionService::Stats() {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace serve
}  // namespace srda
