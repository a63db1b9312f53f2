#include "scraper.h"

#include <iostream>

#include "net/http_client.h"
#include "obs/prometheus.h"

namespace perfbench {

namespace {

// How long before each due time the scraper stops sleeping and spins.
constexpr std::chrono::microseconds kSpinBeforeDue(500);

}  // namespace

std::unique_ptr<maroon::obs::OpsServer> StartOpsServer(RunResult* result) {
  maroon::obs::OpsServerOptions options;
  options.http.num_workers = 1;
  auto server = maroon::obs::OpsServer::Start(std::move(options));
  result->Check(server.ok(), "OpsServer::Start");
  if (!server.ok()) return nullptr;
  return std::move(*server);
}

Scraper::Scraper(int port, SpanRecorder* spans, bool fail_first)
    : port_(port), spans_(spans), fail_next_(fail_first) {}

Scraper::~Scraper() {
  if (thread_.joinable()) Stop();
}

void Scraper::Start() { thread_ = std::thread([this] { Loop(); }); }

ScrapeLog Scraper::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

void Scraper::Loop() {
  const Clock::time_point start = Clock::now();
  const auto period = std::chrono::microseconds(5000);  // 200/s
  for (int64_t k = 0; !stop_.load(); ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * k);
    // Sleep until shortly before the scrape is due, then spin: on a virtual
    // machine a sleeping thread's CPU may halt, and waking it late would be
    // charged to the program as scrape latency; spinning the whole period
    // would take a core from the ingest thread and its hyperthread sibling.
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due && !stop_.load()) std::this_thread::yield();
    if (stop_.load()) break;
    const std::string path = fail_next_ ? "/no-such-route" : "/metrics";
    fail_next_ = false;
    const Clock::time_point sent = Clock::now();
    maroon::Result<maroon::net::HttpClientResponse> response =
        maroon::Status::Internal("not sent");
    {
      ScopedSpan span(spans_, "scrape", std::to_string(k));
      response = maroon::net::HttpGet("127.0.0.1", port_, path);
    }
    const Clock::time_point done = Clock::now();
    std::vector<std::string> lint;
    if (response.ok() && response->status == 200) {
      lint = maroon::obs::PrometheusLint(response->body);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++log_.attempted;
    if (!response.ok() || response->status != 200) {
      ++log_.failed;
      continue;
    }
    if (!lint.empty()) {
      if (log_.lint_failures++ == 0) {
        std::cerr << "scrape " << k << " fails PrometheusLint: " << lint[0]
                  << "\n";
      }
    }
    log_.from_due_s.push_back(SecondsBetween(due, done));
    log_.from_send_s.push_back(SecondsBetween(sent, done));
    log_.late_s.push_back(SecondsBetween(due, sent));
  }
}

void ReportScrapes(const ScrapeLog& log, RunResult* result) {
  result->Attempted(log.attempted);
  result->Failed("scrape", log.failed);
  result->Failed("scrape_lint", log.lint_failures);
  result->Check(log.attempted > 0, "at least one scrape was sent");
}

void AddScrapeLatencies(const ScrapeLog& log, PassMedians* per_pass) {
  per_pass->Add("scrape_p50_ms", Percentile(log.from_due_s, 0.50) * 1e3);
  per_pass->Add("scrape_p90_ms", Percentile(log.from_due_s, 0.90) * 1e3);
}

void ReportOpsLayer(const maroon::obs::OpsServer& server, const ScrapeLog& log,
                    int renders, RunResult* result) {
  maroon::net::HttpRequest request;
  request.method = "GET";
  request.target = "/metrics";
  request.path = "/metrics";
  std::vector<double> render_s;
  size_t bytes = 0;
  for (int i = 0; i < renders; ++i) {
    const Clock::time_point start = Clock::now();
    const maroon::net::HttpResponse response = server.Handle(request);
    render_s.push_back(SecondsBetween(start, Clock::now()));
    result->Attempted();
    if (response.status != 200) result->Failed("render");
    bytes = response.body.size();
  }
  const double render_ms = Median(render_s) * 1e3;
  result->Metric("ops.render_ms", render_ms, "ms");
  result->Metric("ops.metrics_bytes", static_cast<double>(bytes), "B");
  result->Metric("net.http_overhead_ms",
                 Median(log.from_send_s) * 1e3 - render_ms, "ms");
  result->Metric("scrape.p90_ms", Percentile(log.from_due_s, 0.90) * 1e3,
                 "ms");
  result->Metric("scrape.generator_late_ms", Mean(log.late_s) * 1e3, "ms");
}

}  // namespace perfbench
