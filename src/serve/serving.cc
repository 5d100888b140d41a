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
  // The dispatcher casts the delay to integer nanoseconds; a non-finite or
  // huge value would overflow that cast.
  SRDA_CHECK(options_.max_delay_ms >= 0.0 && options_.max_delay_ms <= 1e6)
      << "max_delay_ms (--max-delay-ms) must be in [0, 1e6], got "
      << options_.max_delay_ms;
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
  static Counter* const requests_counter =
      MetricsRegistry::Global().counter("serve.requests");
  static Counter* const batches_counter =
      MetricsRegistry::Global().counter("serve.batches");
  static Histogram* const batch_size_hist =
      MetricsRegistry::Global().histogram("serve.batch_size");
  static Histogram* const latency_hist =
      MetricsRegistry::Global().histogram("serve.latency_us");
  // Windowed twins of the cumulative instruments (same names, separate
  // registry namespace): the live-scrape view behind /metrics.
  static WindowedCounter* const requests_window =
      MetricsRegistry::Global().windowed_counter("serve.requests");
  static WindowedHistogram* const batch_size_window =
      MetricsRegistry::Global().windowed_histogram("serve.batch_size");
  static WindowedHistogram* const latency_window =
      MetricsRegistry::Global().windowed_histogram("serve.latency_us");

  const auto max_delay = std::chrono::nanoseconds(
      static_cast<int64_t>(options_.max_delay_ms * 1e6));
  std::vector<Request*> batch;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    pending_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stopping_) return;
      continue;
    }
    // The batch closes at max_batch pending or when the oldest query's
    // max_delay budget expires — whichever happens first. Stopping flushes
    // immediately so the destructor never strands a client.
    const auto deadline =
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(pending_.front()->enqueue_ns)) +
        max_delay;
    pending_cv_.wait_until(lock, deadline, [this] {
      return stopping_ ||
             static_cast<int>(pending_.size()) >= options_.max_batch;
    });
    batch.clear();
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
    requests_counter->Add(static_cast<double>(batch.size()));
    batches_counter->Increment();
    batch_size_hist->Observe(static_cast<double>(batch.size()));
    requests_window->Add(static_cast<double>(batch.size()));
    batch_size_window->Observe(static_cast<double>(batch.size()));

    lock.lock();
    stats_.requests += static_cast<int64_t>(batch.size());
    stats_.batches += 1;
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<int>(batch.size()));
    for (size_t i = 0; i < batch.size(); ++i) {
      const double latency_us =
          static_cast<double>(done_ns - batch[i]->enqueue_ns) * 1e-3;
      latency_hist->Observe(latency_us);
      latency_window->Observe(latency_us);
      batch[i]->result = results[i];
      batch[i]->done = true;
    }
    done_cv_.notify_all();
  }
}

std::vector<int> PredictionService::Predict(const Matrix& queries) {
  SRDA_CHECK_EQ(queries.cols(), model_->input_dim())
      << "query width does not match the model";
  SRDA_CHECK_GT(queries.rows(), 0) << "empty query block";
  std::vector<Request> requests(static_cast<size_t>(queries.rows()));
  {
    std::unique_lock<std::mutex> lock(mutex_);
    SRDA_CHECK(!stopping_) << "Predict on a stopped service";
    const int64_t now = NowNs();
    for (int i = 0; i < queries.rows(); ++i) {
      Request& request = requests[static_cast<size_t>(i)];
      request.features = queries.RowPtr(i);
      request.enqueue_ns = now;
      pending_.push_back(&request);
    }
  }
  pending_cv_.notify_all();
  std::vector<int> predictions(static_cast<size_t>(queries.rows()));
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&requests] {
      for (const Request& request : requests) {
        if (!request.done) return false;
      }
      return true;
    });
    for (size_t i = 0; i < requests.size(); ++i) {
      predictions[i] = requests[i].result;
    }
  }
  return predictions;
}

int PredictionService::Predict(const double* features) {
  Matrix query(1, model_->input_dim());
  std::memcpy(query.RowPtr(0), features,
              static_cast<size_t>(model_->input_dim()) * sizeof(double));
  return Predict(query)[0];
}

ServeStats PredictionService::Stats() {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace serve
}  // namespace srda
