// Shared plumbing of the MAROON benchmark harness: arguments, timing,
// sample statistics, the in-memory span recorder of traced runs, and the
// result line every run ends with.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command line of one run (see README.md for the meaning of each flag).
struct Args {
  std::string workload;
  uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WALs, snapshots and span files.
  std::string work_dir = ".bench_work";
  /// "full" (the benchmark) or "tiny" (the self-check's seconds-long size).
  std::string size = "full";
  /// Deliberate fault for the self-check: "", "corrupt-hash" or
  /// "fail-scrape".
  std::string inject;

  bool tiny() const { return size == "tiny"; }
};

template <typename T>
void Append(const std::vector<T>& from, std::vector<T>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Exact percentile (linear interpolation, as obs::PercentileOfSorted) of
/// an unsorted sample; 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Least-squares slope of log(y) against log(x): the growth exponent of y
/// in x. Points with a non-positive coordinate are ignored.
double LogLogSlope(const std::vector<std::pair<double, double>>& points);

/// Spans recorded around calls into the program's layers during a traced
/// run. Spans stay in memory until Write(); each carries its parent (the
/// innermost open span on the same thread) and a subject (entity or record
/// id). With a disabled recorder a span costs a branch plus building its
/// arguments.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string subject;
    double start_s = 0.0;  // since the recorder's epoch
    double end_s = 0.0;
    int64_t parent = -1;   // index into spans(), -1 for a root
    int thread = 0;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t Begin(const std::string& name, const std::string& subject);
  void End(int64_t id);

  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum over spans called `name` of their self time: duration minus the
  /// part of the interval covered by their child spans.
  double SelfSeconds(const std::string& name) const;
  /// Writes one JSON object per span, then one summary line per span name
  /// with count, total and self seconds.
  bool Write(const std::string& path) const;

 private:
  std::map<std::string, double> SelfSecondsByName() const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             const std::string& subject = "")
      : recorder_(recorder),
        id_(recorder->enabled() ? recorder->Begin(name, subject) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// The outcome of one run: metrics, correctness checks and the operation
/// ledger (attempted / failed). Emit() prints the host fingerprint and the
/// final JSON result line.
class RunResult {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  void Attempted(int64_t n = 1) { attempted_ += n; }
  /// Records `n` failed operations of `kind` (also attempted elsewhere).
  void Failed(const std::string& kind, int64_t n = 1);
  /// Extra facts printed on the info line (e.g. StreamLinkerStats).
  void Info(const std::string& key, double value) { info_[key] = value; }

  /// Prints the info lines and the result line; returns the exit code.
  int Emit(const Args& args) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> info_;
  std::map<std::string, int64_t> failed_by_kind_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// One value per metric per measured pass. A run reports each metric's
/// median over its passes, so a slow burst on a shared host moves one pass,
/// not the run's figure.
class PassMedians {
 public:
  void Add(const std::string& metric, double value) {
    values_[metric].push_back(value);
  }
  /// Reports the median and prints every pass's value to stderr.
  void Report(RunResult* result, const std::string& metric,
              const std::string& unit) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Name of the filesystem holding `path` (ext4, xfs, tmpfs, ...).
std::string FilesystemName(const std::string& path);

/// Removes and recreates `dir`.
bool ResetDirectory(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
