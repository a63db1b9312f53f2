// Open-loop Prometheus scraper against the in-process ops server.
#ifndef PERFBENCH_SCRAPER_H_
#define PERFBENCH_SCRAPER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/ops_server.h"

namespace perfbench {

/// What one scraper thread observed.
struct ScrapeLog {
  /// Response time from when each scrape was due (includes generator lag).
  std::vector<double> from_due_s;
  /// Response time from when each request was actually sent.
  std::vector<double> from_send_s;
  /// How late the generator sent each request.
  std::vector<double> late_s;
  int64_t attempted = 0;
  /// Non-200 and refused scrapes.
  int64_t failed = 0;
  /// 200 responses whose body fails obs::PrometheusLint.
  int64_t lint_failures = 0;
};

/// Starts the ops server with the serving defaults (loopback, ephemeral
/// port, one HTTP worker so the workload stays within three busy threads).
std::unique_ptr<maroon::obs::OpsServer> StartOpsServer(RunResult* result);

/// Sends `GET /metrics` 200 times a second from Start() until Stop(), on a
/// fixed schedule, independently of how fast responses come back. With
/// `fail_first` the first request goes to an unknown route (the self-check's
/// failed scrape).
class Scraper {
 public:
  Scraper(int port, SpanRecorder* spans, bool fail_first);
  ~Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Start();
  /// Stops and joins the thread; returns everything observed since Start.
  ScrapeLog Stop();

 private:
  void Loop();

  const int port_;
  SpanRecorder* spans_;
  bool fail_next_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  ScrapeLog log_;
  std::thread thread_;
};

/// Folds a scrape log into the run's ledger: attempted, failed, lint
/// failures.
void ReportScrapes(const ScrapeLog& log, RunResult* result);

/// Adds the pass's scrape_p50_ms and scrape_p90_ms (from due time).
void AddScrapeLatencies(const ScrapeLog& log, PassMedians* per_pass);

/// Times `OpsServer::Handle(GET /metrics)` without sockets and reports the
/// ops.*, net.* and scrape.* layer metrics against the scrapes of `log`.
void ReportOpsLayer(const maroon::obs::OpsServer& server, const ScrapeLog& log,
                    int renders, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SCRAPER_H_
