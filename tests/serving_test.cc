// Tests for the micro-batching prediction service (src/serve): batched
// serving must reproduce single-pass scoring exactly under any traffic
// interleaving, respect the batching policy, and return raw labels.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "classify/classifiers.h"
#include "common/rng.h"
#include "core/trainers.h"
#include "model/model.h"
#include "obs/http.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "serve/serving.h"
#include "serve/telemetry.h"

namespace srda {
namespace {

struct Fixture {
  model::SrdaModel model;
  Matrix queries;
  std::vector<int> expected;  // raw labels, single-pass reference
};

Fixture MakeFixture(int train_rows, int query_rows, int cols, int classes,
                    std::vector<int> raw_labels) {
  Fixture f;
  Rng rng(99);
  Matrix x(train_rows, cols);
  std::vector<int> labels;
  for (int i = 0; i < train_rows; ++i) {
    const int label = i % classes;
    labels.push_back(label);
    for (int j = 0; j < cols; ++j) {
      x(i, j) = 5.0 * (j % classes == label) + rng.NextGaussian();
    }
  }
  const TrainResult fit = TrainDenseByName("srda", x, labels, classes);
  f.model = model::BuildModel(fit.embedding, fit.embedding.Transform(x),
                              labels, classes, std::move(raw_labels), {});
  f.queries = Matrix(query_rows, cols);
  for (int i = 0; i < query_rows; ++i) {
    for (int j = 0; j < cols; ++j) f.queries(i, j) = rng.NextGaussian();
  }
  CentroidClassifier reference;
  reference.SetCentroids(f.model.centroids);
  f.expected = f.model.ToRawLabels(
      reference.ScoreBatch(f.model.embedding.Transform(f.queries)));
  return f;
}

TEST(ServingTest, SingleClientMatchesDirectScoring) {
  const Fixture f = MakeFixture(60, 200, 6, 3, {});
  serve::PredictionService service(&f.model);
  EXPECT_EQ(service.Predict(f.queries), f.expected);
}

TEST(ServingTest, SingleQueryPath) {
  const Fixture f = MakeFixture(40, 10, 5, 2, {});
  serve::PredictionService service(&f.model);
  for (int i = 0; i < f.queries.rows(); ++i) {
    EXPECT_EQ(service.Predict(f.queries.RowPtr(i)),
              f.expected[static_cast<size_t>(i)]);
  }
}

TEST(ServingTest, ConcurrentClientsBatchedScoringIsExact) {
  // Many clients hammer the service with overlapping blocks; every response
  // must equal the single-pass reference no matter how rows were batched.
  const Fixture f = MakeFixture(80, 64, 8, 4, {});
  Histogram* const latency_us =
      MetricsRegistry::Global().histogram("serve.latency_us");
  latency_us->Reset();
  serve::ServeOptions options;
  options.max_batch = 32;
  options.max_delay_ms = 0.5;
  serve::PredictionService service(&f.model, options);
  constexpr int kClients = 8;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&f, &service, &mismatches, c] {
      // Each client repeatedly submits a distinct slice of the queries.
      const int begin = (c * 8) % f.queries.rows();
      const int rows = 8;
      Matrix block(rows, f.queries.cols());
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < f.queries.cols(); ++j) {
          block(i, j) = f.queries((begin + i) % f.queries.rows(), j);
        }
      }
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<int> got = service.Predict(block);
        for (int i = 0; i < rows; ++i) {
          if (got[static_cast<size_t>(i)] !=
              f.expected[static_cast<size_t>((begin + i) %
                                             f.queries.rows())]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(kClients) * kRounds * 8);
  EXPECT_GT(stats.batches, 0);
  EXPECT_LE(stats.max_batch_seen, options.max_batch);
  // One latency observation per request.
  EXPECT_EQ(latency_us->count(), stats.requests);
}

TEST(ServingTest, RawLabelsComeBack) {
  const Fixture f = MakeFixture(60, 30, 6, 3, {10, 20, 30});
  serve::PredictionService service(&f.model);
  for (int raw : service.Predict(f.queries)) {
    EXPECT_TRUE(raw == 10 || raw == 20 || raw == 30);
  }
  EXPECT_EQ(service.Predict(f.queries), f.expected);
}

TEST(ServingTest, MaxBatchRespectedUnderBlockLargerThanBatch) {
  // A single 100-row block must be split into <=16-row batches.
  const Fixture f = MakeFixture(40, 100, 5, 2, {});
  serve::ServeOptions options;
  options.max_batch = 16;
  serve::PredictionService service(&f.model, options);
  EXPECT_EQ(service.Predict(f.queries), f.expected);
  const serve::ServeStats stats = service.Stats();
  EXPECT_LE(stats.max_batch_seen, 16);
  EXPECT_GE(stats.batches, (100 + 15) / 16);
}

// Pulls the value of the sample line that starts with `name_and_labels`
// (exact prefix up to the value separator) out of a Prometheus text page.
// NaN when absent.
double ScrapeValue(const std::string& text,
                   const std::string& name_and_labels) {
  std::istringstream in(text);
  std::string line;
  const std::string prefix = name_and_labels + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return std::nan("");
}

// Acceptance: a live scrape during serving must return valid Prometheus
// text whose windowed request count and latency quantiles agree with the
// service's own end-of-run stats and the cumulative latency histogram (the
// window spans the whole run, so the windowed view and the cumulative view
// see the same traffic).
TEST(ServingTest, TelemetryScrapeMatchesServingStats) {
  // The serving instruments are process-wide; clear anything earlier
  // tests in this binary fed into them.
  Histogram* const latency_us =
      MetricsRegistry::Global().histogram("serve.latency_us");
  latency_us->Reset();
  MetricsRegistry::Global().windowed_counter("serve.requests")->Reset();
  MetricsRegistry::Global().windowed_histogram("serve.batch_size")->Reset();
  MetricsRegistry::Global().windowed_histogram("serve.latency_us")->Reset();

  constexpr int kWindow = 120;  // >> run length: nothing ages out
  serve::TelemetryServer telemetry(kWindow);
  ASSERT_TRUE(telemetry.Start(0));
  ASSERT_GT(telemetry.port(), 0);

  // /healthz is 503 until the model is declared loaded.
  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::ParseHttpResponse(
      obs::HttpGet(telemetry.port(), "/healthz"), &status, &body));
  EXPECT_EQ(status, 503);

  const Fixture f = MakeFixture(80, 64, 6, 3, {});
  telemetry.SetReady(true);
  telemetry.SetBuildInfo("model", "in-memory-fixture");
  ASSERT_TRUE(obs::ParseHttpResponse(
      obs::HttpGet(telemetry.port(), "/healthz"), &status, &body));
  EXPECT_EQ(status, 200);

  serve::ServeOptions options;
  options.max_batch = 16;
  serve::PredictionService service(&f.model, options);
  constexpr int kRounds = 25;
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(service.Predict(f.queries), f.expected);
  }
  const serve::ServeStats stats = service.Stats();
  ASSERT_EQ(stats.requests, static_cast<int64_t>(kRounds) * 64);
  // Every request's latency is in the cumulative histogram.
  EXPECT_EQ(latency_us->count(), stats.requests);

  // Live scrape while the service (and its dispatcher thread) is up.
  std::string raw = obs::HttpGet(telemetry.port(), "/metrics");
  ASSERT_TRUE(obs::ParseHttpResponse(raw, &status, &body));
  EXPECT_EQ(status, 200);
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(
      body,
      {"srda_up", "srda_serve_requests", "srda_serve_requests_window_sum",
       "srda_serve_latency_us_window_count"},
      &error))
      << error;

  const std::string window_label = "{window=\"" + std::to_string(kWindow) +
                                   "\"}";
  // Windowed request count == the service's own request count (the window
  // covers the whole run).
  EXPECT_DOUBLE_EQ(
      ScrapeValue(body, "srda_serve_requests_window_sum" + window_label),
      static_cast<double>(stats.requests));
  EXPECT_DOUBLE_EQ(
      ScrapeValue(body, "srda_serve_latency_us_window_count" + window_label),
      static_cast<double>(stats.requests));
  // The windowed QPS gauge exists and is positive under live traffic.
  EXPECT_GT(
      ScrapeValue(body, "srda_serve_requests_window_rate" + window_label),
      0.0);

  // The windowed and cumulative histograms share one bucket layout and
  // one nearest-rank walk, so on the same traffic they report the same
  // quantiles (printed with round-trip precision).
  const double scraped_p50 = ScrapeValue(
      body, "srda_serve_latency_us_window{window=\"" +
                std::to_string(kWindow) + "\",quantile=\"0.5\"}");
  const double scraped_p99 = ScrapeValue(
      body, "srda_serve_latency_us_window{window=\"" +
                std::to_string(kWindow) + "\",quantile=\"0.99\"}");
  ASSERT_FALSE(std::isnan(scraped_p50));
  ASSERT_FALSE(std::isnan(scraped_p99));
  EXPECT_GT(scraped_p50, 0.0);
  EXPECT_DOUBLE_EQ(scraped_p50, latency_us->ApproxQuantile(0.5));
  EXPECT_DOUBLE_EQ(scraped_p99, latency_us->ApproxQuantile(0.99));
  EXPECT_GE(scraped_p99, scraped_p50);

  // /buildz is one parseable object carrying the row we set.
  ASSERT_TRUE(obs::ParseHttpResponse(
      obs::HttpGet(telemetry.port(), "/buildz"), &status, &body));
  EXPECT_EQ(status, 200);
  JsonValue root;
  ASSERT_TRUE(ParseJson(body, &root, &error)) << error << "\n" << body;
  const JsonValue* model = root.Find("model");
  ASSERT_NE(model, nullptr) << body;
  EXPECT_EQ(model->string, "in-memory-fixture");

  // Readiness can be withdrawn.
  telemetry.SetReady(false);
  ASSERT_TRUE(obs::ParseHttpResponse(
      obs::HttpGet(telemetry.port(), "/healthz"), &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_GE(telemetry.scrapes(), 5);
  telemetry.Stop();
}

TEST(ServingDeathTest, QueryWidthMismatchAborts) {
  const Fixture f = MakeFixture(40, 4, 5, 2, {});
  serve::PredictionService service(&f.model);
  Matrix wrong(2, 3);
  EXPECT_DEATH(service.Predict(wrong), "query width");
}

TEST(ServingDeathTest, InfiniteMaxDelayAborts) {
  // The dispatcher converts max_delay_ms to integer nanoseconds, which an
  // infinite delay would overflow.
  const Fixture f = MakeFixture(40, 4, 5, 2, {});
  serve::ServeOptions options;
  options.max_delay_ms = INFINITY;
  EXPECT_DEATH({ serve::PredictionService service(&f.model, options); },
               "max_delay_ms");
}

}  // namespace
}  // namespace srda
