// stream_ingest.
//
// The first 5,500 records of a Recruitment corpus (350 entities over 117
// names; every seed yields more) go through the durable StreamLinker with
// the serving settings max_queue 1024 and a snapshot every 1000 records. The
// fixed length puts every run's crash 500 records past the last snapshot, so
// recovery always replays the same tail. One producer runs Submit then
// Drain per record, as `maroon_cli serve` does, and after every 16th record
// issues a store query mix; one scraper reads /metrics at 200/s on an
// open-loop schedule. The stream ends with Flush but no Close, as after a
// crash, and the directory is re-opened (recovered). It is the only workload
// on the ProfileStore, the WAL and snapshots: reads beside writes expose
// index changes that speed Put but slow lookups, scrapes beside ingest
// expose registry contention.
//
// The live WAL leaves fsync to the OS (sync_every 0) rather than the serving
// default of one fsync per frame: on a shared host, fsync latency swings by
// 2-3x over minutes, more than any bound the end-to-end metrics can carry.
// The traced run still measures ProfileWal::Append with an fsync per frame.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "core/profile_snapshot.h"
#include "core/profile_wal.h"
#include "datagen/recruitment_generator.h"
#include "matching/stream_linker.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "scraper.h"
#include "workloads.h"

namespace perfbench {
namespace {

using maroon::Dataset;
using maroon::EntityId;
using maroon::ProfileStore;
using maroon::RecordId;
using maroon::Status;
using maroon::StatusCode;
using maroon::StreamLinker;
using maroon::TemporalRecord;

constexpr size_t kQueryEvery = 16;
constexpr int kSetupWarmups = 4;

// Samples and state of one ingest pass.
struct Pass {
  std::vector<double> record_s;  // Submit -> return of the applying Drain
  std::vector<double> drain_s;   // the Drain call alone
  std::vector<double> query_s;
  std::vector<std::pair<double, double>> growth;  // (records, cumulative s)
  double ingest_s = 0.0;
  double recover_s = 0.0;
  uint64_t applied = 0;
  size_t entities = 0;
  uint64_t live_hash = 0;
  ScrapeLog scrapes;
};

// Pairwise F1 of a record -> entity assignment against the true labels.
double PairwiseF1(const Dataset& dataset,
                  const std::map<RecordId, EntityId>& assignment) {
  std::map<EntityId, double> predicted, truth;
  std::map<std::pair<EntityId, EntityId>, double> both;
  for (const auto& [rid, entity] : assignment) {
    const EntityId& label = dataset.LabelOf(rid);
    predicted[entity] += 1.0;
    truth[label] += 1.0;
    both[{entity, label}] += 1.0;
  }
  const auto pairs = [](const auto& counts) {
    double total = 0.0;
    for (const auto& [key, n] : counts) total += n * (n - 1.0) / 2.0;
    return total;
  };
  const double agree = pairs(both);
  const double precision = pairs(predicted) > 0 ? agree / pairs(predicted) : 0;
  const double recall = pairs(truth) > 0 ? agree / pairs(truth) : 0;
  return precision + recall == 0.0
             ? 0.0
             : 2.0 * precision * recall / (precision + recall);
}

class StreamRun {
 public:
  StreamRun(const Args& args, RunResult* result)
      : args_(args), result_(result), spans_(args.trace), untraced_(false) {
    maroon::RecruitmentOptions options;
    options.seed = args.seed;
    options.num_entities = args.tiny() ? 35 : 350;
    options.num_names = args.tiny() ? 12 : 117;
    dataset_ = maroon::GenerateRecruitmentDataset(options);
    snapshot_every_ = args.tiny() ? 100 : 1000;
    const size_t length = args.tiny() ? 550 : 5500;
    result->Check(dataset_.NumRecords() >= length,
                  "the corpus holds the stream's " + std::to_string(length) +
                      " records");
    records_.assign(dataset_.records().begin(),
                    dataset_.records().begin() +
                        std::min(length, dataset_.NumRecords()));
  }

  void Run() {
    // The serving process keeps the /tracez ring on; the span tracer stays
    // off (production defaults).
    maroon::obs::Tracer::SetRingEnabled(true);
    server_ = StartOpsServer(result_);
    if (server_ == nullptr) return;
    if (args_.trace) {
      RunTraced();
    } else {
      RunEndToEnd();
    }
    result_->Metric("setup_s", Median(setup_s_), "s");
    result_->Metric("peak_rss_mb", PeakRssMb(), "MB");
    result_->Info("records", static_cast<double>(records_.size()));
  }

 private:
  maroon::StreamLinkerOptions Options(const std::string& dir) const {
    maroon::StreamLinkerOptions options;
    options.wal_path = dir + "/profile.wal";
    options.snapshot_dir = dir + "/snapshots";
    options.snapshot_every = snapshot_every_;
    options.max_queue = 1024;
    options.wal.sync_every = 0;
    return options;
  }

  std::string FreshDir(const std::string& name) {
    const std::string dir = args_.work_dir + "/" + name;
    const bool ok = ResetDirectory(dir) &&
                    std::filesystem::create_directories(dir + "/snapshots");
    result_->Check(ok, "created " + dir);
    return dir;
  }

  // Set-up of a serving process: open the (empty) stream directory and
  // start the ops plane. Timed `reps` times before every pass, after
  // kSetupWarmups untimed set-ups that absorb the file-system writeback the
  // previous pass left behind (the WAL header fsync in Open would wait for
  // it); the run reports the median.
  void TimeSetup(int reps) {
    for (int i = -kSetupWarmups; i < reps; ++i) {
      const std::string dir = FreshDir("setup");
      const Clock::time_point start = Clock::now();
      auto linker = StreamLinker::Open(Options(dir));
      std::unique_ptr<maroon::obs::OpsServer> server;
      if (linker.ok()) server = StartOpsServer(result_);
      if (i >= 0) setup_s_.push_back(SecondsBetween(start, Clock::now()));
      result_->Attempted();
      result_->Check(linker.ok(), "StreamLinker::Open on an empty directory");
      if (server != nullptr) server->Stop();
    }
  }

  // The store query mix issued after every 16th record, probing the value
  // the record just brought in.
  void Queries(const ProfileStore& store, const TemporalRecord& record,
               SpanRecorder* spans, std::vector<double>* latencies) {
    const auto& [attribute, values] = *record.values().begin();
    const std::string subject = std::to_string(record.id());
    const maroon::TimePoint t = record.timestamp();
    result_->Attempted(3);

    Clock::time_point start = Clock::now();
    std::vector<EntityId> holders;
    {
      ScopedSpan span(spans, "query.find_by_value_at", subject);
      holders = store.FindByValueAt(attribute, values.front(), t);
    }
    latencies->push_back(SecondsBetween(start, Clock::now()));
    if (holders.empty()) {
      // The record was just applied, so some entity must hold its value.
      result_->Failed("query", 3);
      return;
    }

    start = Clock::now();
    bool found = false;
    {
      ScopedSpan span(spans, "query.snapshot_at", subject);
      found = store.SnapshotAt(holders.front(), t).ok();
    }
    latencies->push_back(SecondsBetween(start, Clock::now()));
    if (!found) result_->Failed("query");

    start = Clock::now();
    {
      ScopedSpan span(spans, "query.co_occurring", subject);
      const std::vector<EntityId> peers =
          store.CoOccurring(holders.front(), attribute, t);
      result_->Check(peers.size() < store.size(), "CoOccurring excludes self");
    }
    latencies->push_back(SecondsBetween(start, Clock::now()));
  }

  // One Submit-then-Drain pass over the corpus into `dir`, then Flush, a
  // simulated crash, and a timed re-Open.
  Pass Ingest(const std::string& dir, SpanRecorder* spans, bool fail_scrape) {
    Pass pass;
    const maroon::StreamLinkerOptions options = Options(dir);
    auto opened = StreamLinker::Open(options);
    result_->Check(opened.ok(), "StreamLinker::Open " + dir);
    if (!opened.ok()) return pass;
    auto linker = std::make_unique<StreamLinker>(std::move(*opened));
    maroon::obs::HealthRegistry& health = maroon::obs::HealthRegistry::Global();

    const std::vector<TemporalRecord>& records = records_;
    const size_t n = records.size();
    const size_t checkpoints[] = {n / 8, n / 4, n / 2, n};
    Scraper scraper(server_->port(), spans, fail_scrape);
    scraper.Start();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      const TemporalRecord& record = records[i];
      ScopedSpan record_span(spans, "stream.record",
                             std::to_string(record.id()));
      const Clock::time_point t0 = Clock::now();
      Status status = Status::OK();
      {
        ScopedSpan span(spans, "stream.submit");
        status = linker->Submit(record);
        if (status.code() == StatusCode::kResourceExhausted) {
          result_->Failed("drain", linker->Drain().ok() ? 0 : 1);
          status = linker->Submit(record);
        }
      }
      const Clock::time_point t1 = Clock::now();
      Status drained = Status::OK();
      {
        ScopedSpan span(spans, "stream.drain");
        drained = linker->Drain();
      }
      const Clock::time_point t2 = Clock::now();
      result_->Attempted(2);
      result_->Failed("submit", status.ok() ? 0 : 1);
      result_->Failed("drain", drained.ok() ? 0 : 1);
      pass.record_s.push_back(SecondsBetween(t0, t2));
      pass.drain_s.push_back(SecondsBetween(t1, t2));
      if ((i + 1) % kQueryEvery == 0) {
        Queries(linker->store(), record, spans, &pass.query_s);
      }
      if ((i + 1) % 64 == 0) linker->ReportHealth(&health);
      for (size_t c : checkpoints) {
        if (i + 1 == c) {
          pass.growth.emplace_back(static_cast<double>(c),
                                   SecondsBetween(start, Clock::now()));
        }
      }
    }
    pass.ingest_s = SecondsBetween(start, Clock::now());
    pass.scrapes = scraper.Stop();
    ReportScrapes(pass.scrapes, result_);
    const Status flushed = linker->Flush();
    result_->Attempted();
    result_->Failed("flush", flushed.ok() ? 0 : 1);

    const maroon::StreamLinkerStats& stats = linker->stats();
    pass.applied = stats.applied;
    pass.entities = linker->store().size();
    pass.live_hash = maroon::HashProfileStore(linker->store());
    result_->Info("stream.applied", static_cast<double>(stats.applied));
    result_->Info("stream.rejected", static_cast<double>(stats.rejected));
    result_->Info("stream.retries", static_cast<double>(stats.retries));
    result_->Info("stream.shed", static_cast<double>(stats.shed));
    result_->Info("stream.snapshots_written",
                  static_cast<double>(stats.snapshots_written));
    result_->Check(stats.applied + stats.rejected == n,
                   "every record was applied or rejected");
    linker.reset();  // crash: Flushed, never Closed

    const Clock::time_point reopen = Clock::now();
    auto recovered = StreamLinker::Open(options);
    pass.recover_s = SecondsBetween(reopen, Clock::now());
    result_->Attempted();
    result_->Check(recovered.ok(), "re-Open after the crash");
    if (recovered.ok()) {
      uint64_t hash = maroon::HashProfileStore(recovered->store());
      if (args_.inject == "corrupt-hash") hash ^= 1;
      result_->Check(hash == pass.live_hash,
                     "recovered store hash equals the live store hash");
    }
    return pass;
  }

  // Re-applies the live WAL's records to a fresh store with
  // ApplyRecordToStore, collecting where each record landed. The store must
  // hash like the live one; the landing map gives link_f1.
  void VerifyByReplay(const std::string& dir, const Pass& pass) {
    auto replay = maroon::ReplayProfileWal(Options(dir).wal_path);
    result_->Check(replay.ok(), "WAL replays");
    if (!replay.ok()) return;
    ProfileStore store;
    std::map<RecordId, EntityId> assignment;
    for (const maroon::ReplayedRecord& entry : replay->records) {
      auto landed = maroon::ApplyRecordToStore(entry.record, &store);
      result_->Check(landed.ok(), "replayed record applies");
      if (landed.ok()) assignment[entry.record.id()] = *landed;
    }
    result_->Check(maroon::HashProfileStore(store) == pass.live_hash,
                   "WAL->apply store hash equals the live store hash");
    result_->Metric("link_f1", PairwiseF1(dataset_, assignment), "ratio");
  }

  void RunEndToEnd() {
    PassMedians per_pass;
    const Clock::time_point start = Clock::now();
    int passes = 0;
    do {
      TimeSetup(16);
      const std::string dir = FreshDir("stream");
      const Pass pass =
          Ingest(dir, &untraced_,
                 args_.inject == "fail-scrape" && passes == 0);
      if (passes == 0) VerifyByReplay(dir, pass);
      per_pass.Add("records_per_s",
                   static_cast<double>(pass.applied) / pass.ingest_s);
      per_pass.Add("entities_per_s",
                   static_cast<double>(pass.entities) / pass.ingest_s);
      per_pass.Add("ingest_growth_exponent", LogLogSlope(pass.growth));
      per_pass.Add("recover_s", pass.recover_s);
      per_pass.Add("record_p50_ms", Percentile(pass.record_s, 0.50) * 1e3);
      per_pass.Add("record_p99_ms", Percentile(pass.record_s, 0.99) * 1e3);
      per_pass.Add("link_p50_ms", Percentile(pass.drain_s, 0.50) * 1e3);
      per_pass.Add("link_p95_ms", Percentile(pass.drain_s, 0.95) * 1e3);
      per_pass.Add("query_p50_ms", Percentile(pass.query_s, 0.50) * 1e3);
      per_pass.Add("query_p99_ms", Percentile(pass.query_s, 0.99) * 1e3);
      AddScrapeLatencies(pass.scrapes, &per_pass);
      ++passes;
    } while (SecondsBetween(start, Clock::now()) < args_.seconds);
    result_->Info("passes", passes);
    per_pass.Report(result_, "records_per_s", "1/s");
    per_pass.Report(result_, "entities_per_s", "1/s");
    per_pass.Report(result_, "ingest_growth_exponent", "exponent");
    per_pass.Report(result_, "recover_s", "s");
    for (const char* metric :
         {"record_p50_ms", "record_p99_ms", "link_p50_ms", "link_p95_ms",
          "query_p50_ms", "query_p99_ms", "scrape_p50_ms", "scrape_p90_ms"}) {
      per_pass.Report(result_, metric, "ms");
    }
  }

  // The traced run: an untraced pass that warms the process up, an
  // untraced baseline pass, the same pass under spans, then the durable path
  // decomposed into its layer calls (profile WAL append, ApplyRecordToStore,
  // WriteSnapshot) and recovery decomposed into snapshot load, WAL replay
  // and tail apply.
  void RunTraced() {
    TimeSetup(16);
    Ingest(FreshDir("stream-baseline"), &untraced_, /*fail_scrape=*/false);
    const Pass baseline = Ingest(FreshDir("stream-baseline"), &untraced_,
                                 /*fail_scrape=*/false);
    const std::string dir = FreshDir("stream");
    const Pass traced = Ingest(dir, &spans_, /*fail_scrape=*/false);
    result_->Metric("trace.overhead_pct",
                    (traced.ingest_s - baseline.ingest_s) / baseline.ingest_s *
                        100.0,
                    "%");
    ReportOpsLayer(*server_, traced.scrapes, args_.tiny() ? 20 : 200,
                   result_);
    DecomposeWalApply(traced);
    DecomposeRecovery(dir, traced);
    result_->Check(spans_.Write(args_.work_dir + "/spans-" + args_.workload +
                                "-" + std::to_string(args_.seed) + ".jsonl"),
                   "span file written");
  }

  void DecomposeWalApply(const Pass& live) {
    const std::string dir = FreshDir("stream-layers");
    const std::string wal_path = dir + "/profile.wal";
    auto wal = maroon::ProfileWal::Open(wal_path, maroon::WalWriterOptions{1});
    result_->Check(wal.ok(), "ProfileWal::Open");
    if (!wal.ok()) return;
    ProfileStore store;
    const std::vector<TemporalRecord>& records = records_;
    const size_t n = records.size();
    const size_t checkpoints[] = {n / 8, n / 4, n / 2, n};
    std::vector<std::pair<double, double>> growth;
    double apply_total = 0.0;
    uint64_t since_snapshot = 0;
    for (size_t i = 0; i < n; ++i) {
      const TemporalRecord& record = records[i];
      if (record.values().empty()) continue;  // refused at Submit
      const std::string subject = std::to_string(record.id());
      Status appended = Status::OK();
      {
        ScopedSpan span(&spans_, "wal.append", subject);
        appended = wal->Append(record);
      }
      result_->Attempted(2);
      result_->Failed("wal_append", appended.ok() ? 0 : 1);
      const Clock::time_point start = Clock::now();
      bool applied = false;
      {
        ScopedSpan span(&spans_, "store.apply", subject);
        applied = maroon::ApplyRecordToStore(record, &store).ok();
      }
      apply_total += SecondsBetween(start, Clock::now());
      result_->Failed("apply", applied ? 0 : 1);
      if (++since_snapshot >= snapshot_every_) {
        ScopedSpan span(&spans_, "snapshot.write", subject);
        result_->Failed("snapshot", maroon::WriteSnapshot(
                                        store, wal->last_seq(),
                                        dir + "/snapshots")
                                            .ok()
                                        ? 0
                                        : 1);
        since_snapshot = 0;
      }
      for (size_t c : checkpoints) {
        if (i + 1 == c) growth.emplace_back(static_cast<double>(c), apply_total);
      }
    }
    result_->Check(wal->Close().ok(), "ProfileWal::Close");
    result_->Check(maroon::HashProfileStore(store) == live.live_hash,
                   "WAL->apply store hash equals the live store hash");

    const std::vector<double> append_s = spans_.Durations("wal.append");
    const std::vector<double> apply_s = spans_.Durations("store.apply");
    std::error_code ec;
    const double wal_bytes =
        static_cast<double>(std::filesystem::file_size(wal_path, ec));
    result_->Metric("wal.append_p50_ms", Percentile(append_s, 0.50) * 1e3,
                    "ms");
    result_->Metric("wal.append_p99_ms", Percentile(append_s, 0.99) * 1e3,
                    "ms");
    result_->Metric("wal.bytes_per_record",
                    append_s.empty() ? 0.0
                                     : wal_bytes /
                                           static_cast<double>(append_s.size()),
                    "B");
    result_->Metric("store.apply_p50_ms", Percentile(apply_s, 0.50) * 1e3,
                    "ms");
    result_->Metric("store.apply_p99_ms", Percentile(apply_s, 0.99) * 1e3,
                    "ms");
    result_->Metric("store.apply_growth_exponent", LogLogSlope(growth),
                    "exponent");
    result_->Metric("store.entities", static_cast<double>(store.size()),
                    "count");
    result_->Metric("snapshot.write_ms",
                    Median(spans_.Durations("snapshot.write")) * 1e3, "ms");
    auto snapshots = maroon::ListSnapshots(dir + "/snapshots");
    double snapshot_bytes = 0.0;
    if (snapshots.ok() && !snapshots->empty()) {
      snapshot_bytes = static_cast<double>(
          std::filesystem::file_size(snapshots->back().path, ec));
    }
    result_->Metric("snapshot.bytes", snapshot_bytes, "B");
  }

  // Recovery as StreamLinker::Open performs it, one layer call at a time,
  // on the crashed directory of the traced pass.
  void DecomposeRecovery(const std::string& dir, const Pass& live) {
    const maroon::StreamLinkerOptions options = Options(dir);
    const Clock::time_point t0 = Clock::now();
    ProfileStore store;
    uint64_t snapshot_seq = 0;
    {
      ScopedSpan span(&spans_, "recover.snapshot_load");
      auto snapshot = maroon::LoadNewestValidSnapshot(options.snapshot_dir);
      if (snapshot.ok()) {
        store = std::move(snapshot->store);
        snapshot_seq = snapshot->last_seq;
      }
    }
    const Clock::time_point t1 = Clock::now();
    maroon::Result<maroon::ProfileWalReplay> replay =
        Status::Internal("not replayed");
    {
      ScopedSpan span(&spans_, "recover.wal_replay");
      replay = maroon::ReplayProfileWal(options.wal_path);
    }
    const Clock::time_point t2 = Clock::now();
    result_->Check(replay.ok(), "recovery WAL replay");
    if (!replay.ok()) return;
    {
      ScopedSpan span(&spans_, "recover.apply");
      for (const maroon::ReplayedRecord& entry : replay->records) {
        if (entry.seq <= snapshot_seq) continue;
        result_->Check(maroon::ApplyRecordToStore(entry.record, &store).ok(),
                       "recovery apply");
      }
    }
    const Clock::time_point t3 = Clock::now();
    result_->Check(maroon::HashProfileStore(store) == live.live_hash,
                   "decomposed recovery hash equals the live store hash");
    result_->Metric("recover.snapshot_load_s", SecondsBetween(t0, t1), "s");
    result_->Metric("recover.wal_replay_s", SecondsBetween(t1, t2), "s");
    result_->Metric("recover.apply_s", SecondsBetween(t2, t3), "s");
  }

  const Args& args_;
  RunResult* result_;
  SpanRecorder spans_;
  SpanRecorder untraced_;
  Dataset dataset_;
  std::vector<TemporalRecord> records_;  // the stream, in corpus order
  uint64_t snapshot_every_ = 1000;
  std::unique_ptr<maroon::obs::OpsServer> server_;
  std::vector<double> setup_s_;
};

}  // namespace

void RunStreamWorkload(const Args& args, RunResult* result) {
  StreamRun run(args, result);
  run.Run();
}

}  // namespace perfbench
