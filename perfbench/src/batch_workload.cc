// batch_dblp and batch_recruitment.
//
// Both train the models on half the entities and link the other half. The
// closed loop calls Maroon::Link once per held-out entity (one caller, each
// call timed); then BatchLinker::LinkAll links the same entities on two
// workers. A query phase times the candidate-block fetch on its own, and a
// scrape window reads /metrics at 200/s while linking is idle, so neither
// disturbs the link timings. DBLP's
// ~10-way name blocks with set-valued coauthor lists load Phase I and the
// TF-IDF path; Recruitment's single-valued attributes bypass TF-IDF and its
// long careers load Phase II's transition scoring.
#include <algorithm>
#include <memory>
#include <thread>

#include "common/random.h"
#include "datagen/dblp_generator.h"
#include "datagen/recruitment_generator.h"
#include "matching/batch_linker.h"
#include "obs/metrics.h"
#include "scraper.h"
#include "workloads.h"

namespace perfbench {
namespace {

using maroon::Attribute;
using maroon::Dataset;
using maroon::EntityId;
using maroon::EntityProfile;
using maroon::LinkResult;
using maroon::RecordId;
using maroon::TemporalRecord;

// Rounds of the query phase: every held-out entity's block is fetched this
// many times per pass.
constexpr int kQueryRounds = 8;

Dataset MakeCorpus(const Args& args, bool dblp) {
  if (dblp) {
    maroon::DblpOptions options;
    options.seed = args.seed;
    options.num_entities = args.tiny() ? 40 : 864;
    options.num_names = args.tiny() ? 4 : 84;
    return maroon::GenerateDblpCorpus(options).dataset;
  }
  maroon::RecruitmentOptions options;
  options.seed = args.seed;
  options.num_entities = args.tiny() ? 60 : 1200;
  options.num_names = args.tiny() ? 20 : 400;
  return maroon::GenerateRecruitmentDataset(options);
}

struct Models {
  maroon::TfIdfModel tfidf;
  maroon::TransitionModel transition;
  maroon::FreshnessModel freshness;
};

struct SetupTimes {
  std::vector<double> total, tfidf, transition, freshness;
};

// The set-up a batch job pays before linking: TF-IDF fit over every
// record's token bag, transition training on the training entities' true
// histories, freshness training on their records (as eval/Experiment).
void TrainModels(const Dataset& dataset, const std::vector<EntityId>& train,
                 SpanRecorder* spans, Models* models, SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(spans, "setup.tfidf_fit");
    models->tfidf = maroon::TfIdfModel();
    for (const TemporalRecord& record : dataset.records()) {
      std::vector<std::string> tokens;
      for (const auto& [attribute, values] : record.values()) {
        std::vector<std::string> value_tokens = maroon::ValueSetTokens(values);
        tokens.insert(tokens.end(), value_tokens.begin(), value_tokens.end());
      }
      models->tfidf.AddDocument(tokens);
    }
  }
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(spans, "setup.transition_train");
    maroon::ProfileSet profiles;
    for (const EntityId& id : train) {
      auto target = dataset.target(id);
      if (target.ok()) profiles.push_back((*target)->ground_truth);
    }
    models->transition =
        maroon::TransitionModel::Train(profiles, dataset.attributes());
  }
  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan span(spans, "setup.freshness_train");
    models->freshness = maroon::FreshnessModel::Train(dataset, train);
  }
  const Clock::time_point t3 = Clock::now();
  times->tfidf.push_back(SecondsBetween(t0, t1));
  times->transition.push_back(SecondsBetween(t1, t2));
  times->freshness.push_back(SecondsBetween(t2, t3));
  times->total.push_back(SecondsBetween(t0, t3));
}

bool ProfilesEqual(const EntityProfile& a, const EntityProfile& b) {
  if (a.id() != b.id() || a.name() != b.name()) return false;
  const std::vector<Attribute> attributes = a.Attributes();
  if (attributes != b.Attributes()) return false;
  for (const Attribute& attribute : attributes) {
    if (!(a.sequence(attribute) == b.sequence(attribute))) return false;
  }
  return true;
}

bool SameLink(const LinkResult& a, const LinkResult& b) {
  return a.num_clusters == b.num_clusters &&
         a.skipped_candidates == b.skipped_candidates &&
         a.match.matched_records == b.match.matched_records &&
         a.match.linked_clusters == b.match.linked_clusters &&
         a.match.pruned_clusters == b.match.pruned_clusters &&
         a.match.degenerate_scores == b.match.degenerate_scores &&
         a.match.iterations == b.match.iterations &&
         ProfilesEqual(a.match.augmented_profile, b.match.augmented_profile);
}

std::vector<const TemporalRecord*> Records(const Dataset& dataset,
                                           const std::vector<RecordId>& ids) {
  std::vector<const TemporalRecord*> out;
  out.reserve(ids.size());
  for (RecordId id : ids) out.push_back(&dataset.record(id));
  return out;
}

// Samples of one closed-loop pass.
struct ClosedLoop {
  std::vector<double> link_s;        // Maroon::Link
  std::vector<double> per_record_s;  // Link seconds / block records
  // (cumulative block records, cumulative Link seconds) after n/8, n/4, n/2
  // and n entities.
  std::vector<std::pair<double, double>> growth;
  double link_total_s = 0.0;
};

class BatchRun {
 public:
  BatchRun(const Args& args, bool dblp, RunResult* result)
      : args_(args), result_(result), spans_(args.trace) {
    dataset_ = MakeCorpus(args, dblp);
    std::vector<EntityId> ids;
    for (const auto& [id, target] : dataset_.targets()) ids.push_back(id);
    maroon::Random rng(args.seed);
    rng.Shuffle(ids);
    const size_t train_count = ids.size() / 2;
    train_.assign(ids.begin(), ids.begin() + train_count);
    test_.assign(ids.begin() + train_count, ids.end());
    for (const EntityId& id : test_) {
      for (RecordId rid : dataset_.TrueMatchesOf(id)) truth_[rid] = id;
    }
  }

  void Run() {
    Setup();
    server_ = StartOpsServer(result_);
    if (server_ == nullptr) return;
    if (args_.trace) {
      RunTraced();
    } else {
      RunEndToEnd();
    }
    ReportSetupAndReload();
    result_->Metric("peak_rss_mb", PeakRssMb(), "MB");
    result_->Info("held_out_entities", static_cast<double>(test_.size()));
    result_->Info("records", static_cast<double>(dataset_.NumRecords()));
  }

 private:
  void Setup() {
    TrainModels(dataset_, train_, &spans_, &models_, &setup_times_);
    similarity_.SetTfIdfModel(&models_.tfidf);
    maroon::MaroonOptions options;
    options.matcher.single_valued_attributes = dataset_.attributes();
    maroon_ = std::make_unique<maroon::Maroon>(
        &models_.transition, &models_.freshness, &similarity_,
        dataset_.attributes(), options);
    transition_text_ = models_.transition.Serialize();
    freshness_text_ = models_.freshness.Serialize();
  }

  // Set-up and restart are timed again once per pass, into scratch models
  // (the linked models and their caches stay untouched), and reported as
  // medians. A restarted batch job reloads its persisted models instead of
  // retraining them.
  void TimeSetupAndReload() {
    Models scratch;
    TrainModels(dataset_, train_, &spans_, &scratch, &setup_times_);
    const Clock::time_point start = Clock::now();
    auto transition = maroon::TransitionModel::Deserialize(transition_text_);
    auto freshness = maroon::FreshnessModel::Deserialize(freshness_text_);
    reload_s_.push_back(SecondsBetween(start, Clock::now()));
    result_->Attempted();
    result_->Check(transition.ok() && freshness.ok() &&
                       transition->Serialize() == transition_text_ &&
                       freshness->Serialize() == freshness_text_,
                   "model reload reproduces the trained models");
  }

  void ReportSetupAndReload() {
    result_->Metric("setup_s", Median(setup_times_.total), "s");
    result_->Metric("setup.tfidf_fit_s", Median(setup_times_.tfidf), "s");
    result_->Metric("setup.transition_train_s",
                    Median(setup_times_.transition), "s");
    result_->Metric("setup.freshness_train_s", Median(setup_times_.freshness),
                    "s");
    result_->Metric("recover_s", Median(reload_s_), "s");
  }

  ClosedLoop LinkEachHeldOut() {
    ClosedLoop loop;
    const size_t n = test_.size();
    const size_t checkpoints[] = {n / 8, n / 4, n / 2, n};
    double records = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const EntityId& id = test_[i];
      const maroon::TargetEntity& target = **dataset_.target(id);
      const std::vector<RecordId> block = dataset_.CandidatesFor(id);
      const std::vector<const TemporalRecord*> candidates =
          Records(dataset_, block);
      const Clock::time_point start = Clock::now();
      LinkResult link = maroon_->Link(target.clean_profile, candidates);
      const double seconds = SecondsBetween(start, Clock::now());
      loop.link_s.push_back(seconds);
      loop.per_record_s.push_back(
          seconds / static_cast<double>(std::max<size_t>(1, block.size())));
      loop.link_total_s += seconds;
      records += static_cast<double>(block.size());
      for (size_t c : checkpoints) {
        if (i + 1 == c) loop.growth.emplace_back(records, loop.link_total_s);
      }
      result_->Attempted();
      result_->Failed("degenerate_score",
                      static_cast<int64_t>(link.match.degenerate_scores));
      auto [it, inserted] = reference_.emplace(id, LinkResult());
      if (inserted) {
        it->second = std::move(link);
      } else {
        result_->Check(SameLink(it->second, link),
                       "Maroon::Link is deterministic for " + id);
      }
    }
    return loop;
  }

  // BatchLinker::LinkAll over the held-out entities on two workers.
  // Returns the wall time; checks each entity's final match set is a subset
  // of its standalone Maroon::Link set and that repeated runs agree.
  double LinkAll() {
    maroon::BatchLinkOptions options;
    options.threads = 2;
    maroon::BatchLinker linker(maroon_.get(), options);
    const Clock::time_point start = Clock::now();
    maroon::BatchLinkResult all;
    {
      ScopedSpan span(&spans_, "batch.link_all");
      all = linker.LinkAll(dataset_, test_);
    }
    const double wall = SecondsBetween(start, Clock::now());
    result_->Attempted();
    result_->Check(all.skipped_entities == 0, "LinkAll linked every target");
    for (const auto& [id, link] : all.per_entity) {
      const auto ref = reference_.find(id);
      if (ref == reference_.end()) {
        result_->Check(false, "LinkAll entity has a standalone link: " + id);
        continue;
      }
      std::vector<RecordId> standalone = ref->second.match.matched_records;
      std::vector<RecordId> batch = link.match.matched_records;
      std::sort(standalone.begin(), standalone.end());
      std::sort(batch.begin(), batch.end());
      result_->Check(std::includes(standalone.begin(), standalone.end(),
                                   batch.begin(), batch.end()),
                     "LinkAll matches of " + id +
                         " are a subset of its Maroon::Link matches");
    }
    if (assignment_.empty()) {
      assignment_ = all.assignment;
      contested_ = all.contested_records;
    } else {
      result_->Check(assignment_ == all.assignment,
                     "LinkAll is deterministic across passes");
    }
    return wall;
  }

  double LinkF1() const {
    size_t correct = 0;
    for (const auto& [rid, entity] : assignment_) {
      const auto truth = truth_.find(rid);
      if (truth != truth_.end() && truth->second == entity) ++correct;
    }
    const double precision =
        assignment_.empty() ? 0.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(assignment_.size());
    const double recall = truth_.empty()
                              ? 0.0
                              : static_cast<double>(correct) /
                                    static_cast<double>(truth_.size());
    return precision + recall == 0.0
               ? 0.0
               : 2.0 * precision * recall / (precision + recall);
  }

  size_t HeldOutRecords() const {
    size_t total = 0;
    for (const EntityId& id : test_) total += dataset_.CandidatesFor(id).size();
    return total;
  }

  // The batch read path on its own: every held-out entity's candidate
  // block fetched back to back, each Dataset::CandidatesFor call timed.
  void QueryPhase(std::vector<double>* query_s) {
    for (int round = 0; round < kQueryRounds; ++round) {
      for (const EntityId& id : test_) {
        const Clock::time_point start = Clock::now();
        const std::vector<RecordId> block = dataset_.CandidatesFor(id);
        query_s->push_back(SecondsBetween(start, Clock::now()));
        result_->Attempted();
        if (block.empty()) result_->Failed("query");
      }
    }
  }

  // Scrapes /metrics at 200/s for a fixed window while linking is idle.
  ScrapeLog ScrapeWindow() {
    Scraper scraper(server_->port(), &spans_,
                    args_.inject == "fail-scrape" && scrape_windows_++ == 0);
    scraper.Start();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args_.tiny() ? 100 : 500));
    const ScrapeLog log = scraper.Stop();
    ReportScrapes(log, result_);
    return log;
  }

  void RunEndToEnd() {
    const size_t block_records = HeldOutRecords();
    // Passes repeat until the run's time is used; the first one fills the
    // transition cache, as a long-running batch job's first entities do.
    const Clock::time_point start = Clock::now();
    PassMedians per_pass;
    // Pooled: a pass's 216 or 600 samples leave too few beyond its p99.
    std::vector<double> per_record_s;
    int passes = 0;
    do {
      const ClosedLoop loop = LinkEachHeldOut();
      const double wall = LinkAll();
      std::vector<double> query_s;
      QueryPhase(&query_s);
      const ScrapeLog scrapes = ScrapeWindow();
      TimeSetupAndReload();
      if (passes > 0 || args_.tiny()) {
        per_pass.Add("link_p50_ms", Percentile(loop.link_s, 0.50) * 1e3);
        per_pass.Add("link_p95_ms", Percentile(loop.link_s, 0.95) * 1e3);
        per_pass.Add("record_p50_ms",
                     Percentile(loop.per_record_s, 0.50) * 1e3);
        Append(loop.per_record_s, &per_record_s);
        per_pass.Add("query_p50_ms", Percentile(query_s, 0.50) * 1e3);
        per_pass.Add("query_p99_ms", Percentile(query_s, 0.99) * 1e3);
        per_pass.Add("ingest_growth_exponent", LogLogSlope(loop.growth));
        per_pass.Add("entities_per_s",
                     static_cast<double>(test_.size()) / wall);
        per_pass.Add("records_per_s",
                     static_cast<double>(block_records) / wall);
        AddScrapeLatencies(scrapes, &per_pass);
      }
      ++passes;
    } while (passes < 2 ||
             SecondsBetween(start, Clock::now()) < args_.seconds);
    if (args_.inject == "corrupt-hash" && !assignment_.empty()) {
      // Self-check: a corrupted reference must fail the subset check.
      reference_.begin()->second.match.matched_records.clear();
      LinkAll();
    }
    result_->Info("passes", passes);
    for (const char* metric : {"link_p50_ms", "link_p95_ms", "record_p50_ms",
                               "query_p50_ms", "query_p99_ms",
                               "scrape_p50_ms", "scrape_p90_ms"}) {
      per_pass.Report(result_, metric, "ms");
    }
    per_pass.Report(result_, "ingest_growth_exponent", "exponent");
    per_pass.Report(result_, "entities_per_s", "1/s");
    per_pass.Report(result_, "records_per_s", "1/s");
    result_->Metric("record_p99_ms", Percentile(per_record_s, 0.99) * 1e3,
                    "ms");
    result_->Metric("link_f1", LinkF1(), "ratio");
  }

  // The traced run: an untraced pass that fills the caches, an untraced
  // baseline pass, then the same entities decomposed into the layer calls
  // Maroon::Link makes (block fetch, ClusterGenerator::Generate,
  // ProfileMatcher::MatchAndAugment) under spans, then layer probes.
  void RunTraced() {
    for (int i = 0; i < 3; ++i) TimeSetupAndReload();
    auto& registry = maroon::obs::MetricsRegistry::Global();
    const auto counters_before = registry.TakeSnapshot().counters;
    LinkEachHeldOut();
    const auto counters_after = registry.TakeSnapshot().counters;
    const auto delta = [&](const std::string& name) {
      const auto a = counters_after.find(name);
      const auto b = counters_before.find(name);
      return static_cast<double>(
          (a == counters_after.end() ? 0 : a->second) -
          (b == counters_before.end() ? 0 : b->second));
    };
    const double hits = delta("maroon.transition.cache_hits");
    const double misses = delta("maroon.transition.cache_misses");
    result_->Metric("transition.cache_hit_ratio",
                    hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
                    "ratio");

    const ClosedLoop baseline = LinkEachHeldOut();

    double traced_total = 0.0;
    size_t records_in = 0, clusters_out = 0, iterations = 0, linked = 0,
           degenerate = 0;
    std::vector<std::vector<maroon::GeneratedCluster>> clusters_of;
    std::vector<std::vector<const TemporalRecord*>> blocks;
    for (const EntityId& id : test_) {
      const maroon::TargetEntity& target = **dataset_.target(id);
      const Clock::time_point start = Clock::now();
      LinkResult link;
      std::vector<const TemporalRecord*> usable;
      {
        ScopedSpan entity(&spans_, "link.entity", id);
        std::vector<RecordId> block;
        {
          ScopedSpan span(&spans_, "block.fetch", id);
          block = dataset_.CandidatesFor(id);
        }
        // Maroon::Link's own degenerate-candidate filter, then its phases.
        for (const TemporalRecord* record : Records(dataset_, block)) {
          if (record->values().empty()) {
            ++link.skipped_candidates;
          } else {
            usable.push_back(record);
          }
        }
        std::vector<maroon::GeneratedCluster> clusters;
        if (!usable.empty()) {
          {
            ScopedSpan span(&spans_, "phase1", id);
            maroon::ClusterGenerator generator(
                &similarity_, &models_.freshness, dataset_.attributes(),
                maroon_->options().cluster);
            clusters = generator.Generate(usable);
          }
          {
            ScopedSpan span(&spans_, "phase2", id);
            maroon::ProfileMatcher matcher(&models_.transition,
                                           dataset_.attributes(),
                                           maroon_->options().matcher);
            link.match = matcher.MatchAndAugment(target.clean_profile,
                                                 clusters);
          }
        } else {
          link.match.augmented_profile = target.clean_profile;
          link.match.augmented_profile.Normalize();
        }
        link.num_clusters = clusters.size();
        clusters_of.push_back(std::move(clusters));
      }
      traced_total += SecondsBetween(start, Clock::now());
      result_->Attempted();
      result_->Check(SameLink(reference_.at(id), link),
                     "Phase I/II decomposition equals Maroon::Link for " + id);
      result_->Failed("degenerate_score",
                      static_cast<int64_t>(link.match.degenerate_scores));
      records_in += usable.size();
      clusters_out += link.num_clusters;
      iterations += link.match.iterations;
      linked += link.match.linked_clusters.size();
      degenerate += link.match.degenerate_scores;
      blocks.push_back(std::move(usable));
    }

    result_->Metric("phase1.busy_s", spans_.SelfSeconds("phase1"), "s");
    result_->Metric("phase1.records_in", static_cast<double>(records_in),
                    "count");
    result_->Metric("phase1.clusters_out", static_cast<double>(clusters_out),
                    "count");
    result_->Metric("phase2.busy_s", spans_.SelfSeconds("phase2"), "s");
    result_->Metric("phase2.iterations", static_cast<double>(iterations),
                    "count");
    result_->Metric("phase2.link_ratio",
                    clusters_out == 0 ? 0.0
                                      : static_cast<double>(linked) /
                                            static_cast<double>(clusters_out),
                    "ratio");
    result_->Metric("phase2.degenerate_scores",
                    static_cast<double>(degenerate), "count");
    result_->Metric("trace.overhead_pct",
                    (traced_total - baseline.link_total_s) /
                        baseline.link_total_s * 100.0,
                    "%");

    ProbeSimilarity(blocks);
    ProbeTransition(clusters_of);

    const double wall = LinkAll();
    result_->Metric("batch.contested_records", static_cast<double>(contested_),
                    "count");
    result_->Metric("batch.parallel_efficiency",
                    baseline.link_total_s / (wall * 2.0), "ratio");
    const ScrapeLog scrapes = ScrapeWindow();
    ReportOpsLayer(*server_, scrapes, args_.tiny() ? 20 : 200, result_);
    result_->Check(spans_.Write(args_.work_dir + "/spans-" + args_.workload +
                                "-" + std::to_string(args_.seed) + ".jsonl"),
                   "span file written");
  }

  // Mean cost of SimilarityCalculator::ValueSetSimilarity over each block's
  // record pairs, per attribute (at most kPairs pairs per block attribute).
  void ProbeSimilarity(
      const std::vector<std::vector<const TemporalRecord*>>& blocks) {
    constexpr size_t kPairs = 256;
    size_t calls = 0;
    double seconds = 0.0;
    double checksum = 0.0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      ScopedSpan span(&spans_, "similarity.value_set", test_[b]);
      for (const Attribute& attribute : dataset_.attributes()) {
        std::vector<const maroon::ValueSet*> sets;
        for (const TemporalRecord* record : blocks[b]) {
          const auto it = record->values().find(attribute);
          if (it != record->values().end()) sets.push_back(&it->second);
        }
        size_t pairs = 0;
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < sets.size() && pairs < kPairs; ++i) {
          for (size_t j = i + 1; j < sets.size() && pairs < kPairs; ++j) {
            checksum += similarity_.ValueSetSimilarity(*sets[i], *sets[j]);
            ++pairs;
          }
        }
        seconds += SecondsBetween(start, Clock::now());
        calls += pairs;
      }
    }
    result_->Check(std::isfinite(checksum), "similarities are finite");
    result_->Metric("similarity.value_set_us",
                    calls == 0 ? 0.0 : seconds / static_cast<double>(calls) * 1e6,
                    "us");
  }

  // Mean cost of TransitionModel::SequenceToStateProbability over the
  // (clean profile, Phase I cluster) pairs, per attribute.
  void ProbeTransition(
      const std::vector<std::vector<maroon::GeneratedCluster>>& clusters_of) {
    size_t calls = 0;
    double seconds = 0.0;
    double checksum = 0.0;
    for (size_t e = 0; e < clusters_of.size(); ++e) {
      ScopedSpan span(&spans_, "transition.seq_state", test_[e]);
      const EntityProfile& profile =
          (*dataset_.target(test_[e]))->clean_profile;
      const Clock::time_point start = Clock::now();
      for (const maroon::GeneratedCluster& cluster : clusters_of[e]) {
        for (const Attribute& attribute : dataset_.attributes()) {
          const maroon::ValueSet& to = cluster.signature.ValuesOf(attribute);
          if (to.empty()) continue;
          checksum += models_.transition.SequenceToStateProbability(
              attribute, profile.sequence(attribute), to,
              cluster.signature.interval);
          ++calls;
        }
      }
      seconds += SecondsBetween(start, Clock::now());
    }
    result_->Check(std::isfinite(checksum), "transition scores are finite");
    result_->Metric("transition.seq_state_us",
                    calls == 0 ? 0.0 : seconds / static_cast<double>(calls) * 1e6,
                    "us");
  }

  const Args& args_;
  RunResult* result_;
  SpanRecorder spans_;
  Dataset dataset_;
  std::vector<EntityId> train_, test_;
  std::map<RecordId, EntityId> truth_;  // held-out records -> true entity
  Models models_;
  maroon::SimilarityCalculator similarity_;
  std::unique_ptr<maroon::Maroon> maroon_;
  std::unique_ptr<maroon::obs::OpsServer> server_;
  std::map<EntityId, LinkResult> reference_;  // standalone Maroon::Link
  std::map<RecordId, EntityId> assignment_;   // first LinkAll
  size_t contested_ = 0;
  int scrape_windows_ = 0;
  SetupTimes setup_times_;
  std::vector<double> reload_s_;
  std::string transition_text_, freshness_text_;
};

}  // namespace

void RunBatchWorkload(const Args& args, bool dblp, RunResult* result) {
  BatchRun run(args, dblp, result);
  run.Run();
}

}  // namespace perfbench
