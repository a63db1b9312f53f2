#include "harness.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/latency_histogram.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return maroon::obs::PercentileOfSorted(samples, q);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

double LogLogSlope(const std::vector<std::pair<double, double>>& points) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  double n = 0.0;
  for (const auto& [x, y] : points) {
    if (x <= 0.0 || y <= 0.0) continue;
    const double lx = std::log(x), ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    n += 1.0;
  }
  const double denominator = n * sxx - sx * sx;
  if (n < 2.0 || denominator <= 0.0) return 0.0;
  return (n * sxy - sx * sy) / denominator;
}

// ---------------------------------------------------------------------------
// SpanRecorder

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

int ThreadIndex() {
  static std::mutex mu;
  static int next = 0;
  thread_local int index = -1;
  if (index < 0) {
    std::lock_guard<std::mutex> lock(mu);
    index = next++;
  }
  return index;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

// Shortest text that reads back as the same double.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

int64_t SpanRecorder::Begin(const std::string& name,
                            const std::string& subject) {
  Span span;
  span.name = name;
  span.subject = subject;
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.thread = ThreadIndex();
  span.start_s = SecondsBetween(epoch_, Clock::now());
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  const double end = SecondsBetween(epoch_, Clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_s = end;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on its thread and nest inside it one after
  // another, so their durations never overlap: self time is the span's
  // duration minus the sum of its children's.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

double SpanRecorder::SelfSeconds(const std::string& name) const {
  const auto by_name = SelfSecondsByName();
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second;
}

bool SpanRecorder::Write(const std::string& path) const {
  const auto self = SelfSecondsByName();
  std::ofstream out(path, std::ios::trunc);
  std::map<std::string, std::pair<int64_t, double>> totals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << JsonEscape(span.name)
          << "\",\"subject\":\"" << JsonEscape(span.subject)
          << "\",\"parent\":" << span.parent << ",\"thread\":" << span.thread
          << ",\"start_s\":" << Number(span.start_s)
          << ",\"end_s\":" << Number(span.end_s) << "}\n";
      auto& [count, total] = totals[span.name];
      ++count;
      total += span.end_s - span.start_s;
    }
  }
  for (const auto& [name, entry] : totals) {
    out << "{\"summary\":\"" << JsonEscape(name) << "\",\"count\":"
        << entry.first << ",\"total_s\":" << Number(entry.second)
        << ",\"self_s\":" << Number(self.at(name)) << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

void PassMedians::Report(RunResult* result, const std::string& metric,
                         const std::string& unit) const {
  const auto it = values_.find(metric);
  if (it == values_.end()) return;
  result->Metric(metric, Median(it->second), unit);
  std::cerr << "passes " << metric << ":";
  for (double value : it->second) std::cerr << " " << value;
  std::cerr << "\n";
}

// ---------------------------------------------------------------------------
// RunResult

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; run.py checks the two agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"link_p50_ms", "ms"},
    {"link_p95_ms", "ms"},
    {"entities_per_s", "1/s"},
    {"link_f1", "ratio"},
    {"records_per_s", "1/s"},
    {"record_p50_ms", "ms"},
    {"record_p99_ms", "ms"},
    {"ingest_growth_exponent", "exponent"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"scrape_p50_ms", "ms"},
    {"scrape_p90_ms", "ms"},
    {"recover_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"phase1.busy_s", "s"},
    {"phase1.records_in", "count"},
    {"phase1.clusters_out", "count"},
    {"phase2.busy_s", "s"},
    {"phase2.iterations", "count"},
    {"phase2.link_ratio", "ratio"},
    {"phase2.degenerate_scores", "count"},
    {"similarity.value_set_us", "us"},
    {"transition.seq_state_us", "us"},
    {"transition.cache_hit_ratio", "ratio"},
    {"setup.tfidf_fit_s", "s"},
    {"setup.transition_train_s", "s"},
    {"setup.freshness_train_s", "s"},
    {"batch.contested_records", "count"},
    {"batch.parallel_efficiency", "ratio"},
    {"wal.append_p50_ms", "ms"},
    {"wal.append_p99_ms", "ms"},
    {"wal.bytes_per_record", "B"},
    {"store.apply_p50_ms", "ms"},
    {"store.apply_p99_ms", "ms"},
    {"store.apply_growth_exponent", "exponent"},
    {"store.entities", "count"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.bytes", "B"},
    {"recover.snapshot_load_s", "s"},
    {"recover.wal_replay_s", "s"},
    {"recover.apply_s", "s"},
    {"ops.render_ms", "ms"},
    {"ops.metrics_bytes", "B"},
    {"net.http_overhead_ms", "ms"},
    {"scrape.p90_ms", "ms"},
    {"scrape.generator_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

std::string GitDescribe() {
  const char* env = std::getenv("PERFBENCH_GIT_DESCRIBE");
  return env != nullptr && *env != '\0' ? env : "unknown";
}

}  // namespace

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_[name] = {value, unit};
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void RunResult::Failed(const std::string& kind, int64_t n) {
  if (n <= 0) return;
  failed_ += n;
  failed_by_kind_[kind] += n;
}

int RunResult::Emit(const Args& args) const {
  // The reported set is fixed by the trace mode. A layer the workload never
  // calls reports 0 (no work done); an end-to-end metric must always be
  // measured.
  std::vector<std::string> failures = failures_;
  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    metrics << (first ? "" : ", ") << "\"" << spec.name
            << "\": {\"value\": " << Number(value) << ", \"unit\": \""
            << spec.unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = metrics_.find(spec.name);
      emit(spec, it == metrics_.end() ? 0.0 : it->second.first);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = metrics_.find(spec.name);
      if (it == metrics_.end()) {
        failures.push_back(std::string("metric not measured: ") + spec.name);
        emit(spec, 0.0);
      } else {
        emit(spec, it->second.first);
      }
    }
  }
  for (const auto& [name, entry] : metrics_) {
    bool listed = false;
    for (const MetricSpec& spec : kEndToEnd) listed |= name == spec.name;
    for (const MetricSpec& spec : kPerLayer) listed |= name == spec.name;
    if (!listed) failures.push_back("metric not in the benchmark: " + name);
  }

  std::cout << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"git_describe\": \"" << JsonEscape(GitDescribe())
            << "\", \"seed\": " << args.seed << ", \"wal_filesystem\": \""
            << FilesystemName(args.work_dir) << "\", \"workload\": \""
            << args.workload << "\", \"size\": \"" << args.size
            << "\", \"trace\": " << (args.trace ? 1 : 0) << "}}\n";
  std::cout << "{\"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    std::cout << (first ? "" : ", ") << "\"" << key << "\": " << Number(value);
    first = false;
  }
  std::cout << "}, \"failed_by_kind\": {";
  first = true;
  for (const auto& [kind, n] : failed_by_kind_) {
    std::cout << (first ? "" : ", ") << "\"" << kind << "\": " << n;
    first = false;
  }
  std::cout << "}}\n";
  for (const std::string& failure : failures) {
    std::cerr << "check failed: " << failure << "\n";
  }
  const bool correct = failures.empty() && failed_ == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FilesystemName(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buffer[24];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

bool ResetDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ec.clear();
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

}  // namespace perfbench
