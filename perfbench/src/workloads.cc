#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "graph/snapshot_io.h"
#include "paper_queries.h"
#include "snb/generator.h"
#include "snb/toy_graphs.h"

namespace perfbench {

using gcore::EngineOptions;
using gcore::GraphCatalog;
using gcore::QueryEngine;
using Clock = std::chrono::steady_clock;

namespace {

double MsSince(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const gcore::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

gcore::PlanCacheCounters Delta(const gcore::PlanCacheCounters& after,
                               const gcore::PlanCacheCounters& before) {
  gcore::PlanCacheCounters d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.plans = after.plans - before.plans;
  return d;
}

void Accumulate(gcore::PlanCacheCounters* total,
                const gcore::PlanCacheCounters& d) {
  total->hits += d.hits;
  total->misses += d.misses;
  total->evictions += d.evictions;
  total->plans += d.plans;
}

/// The reference configuration: serial execution, no plan cache.
EngineOptions ReferenceOptions() {
  EngineOptions options;
  options.parallelism = 1;
  return options;
}

std::string ReferenceOf(QueryEngine* reference, const std::string& text) {
  auto result = reference->Execute(text, ReferenceOptions());
  if (!result.ok()) return "error\n" + result.status().ToString();
  return ResultFingerprint(*result);
}

gcore::PathPropertyGraph GenerateSnb(size_t persons, uint64_t seed,
                                     GraphCatalog* catalog) {
  gcore::snb::GeneratorOptions options;
  options.num_persons = persons;
  options.seed = seed;
  return gcore::snb::Generate(options, catalog->ids());
}

/// Times loading `path` back: zero-copy attach (median of five) and, when
/// `register_too`, registration into scratch catalogs (median of three).
void MeasureLoad(const std::string& path, bool register_too,
                 SetupLayers* layers) {
  std::vector<double> mmap_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    auto image = gcore::MmapSnapshotFile(path);
    mmap_ms.push_back(MsSince(t));
    CheckOk(image.status(), "mmap " + path);
  }
  layers->mmap_ms = Median(mmap_ms);
  if (register_too) {
    std::vector<double> register_ms;
    for (int i = 0; i < 3; ++i) {
      GraphCatalog scratch;
      const auto t = Clock::now();
      CheckOk(scratch.RegisterSnapshotFile("g", path, /*use_mmap=*/true),
              "register " + path);
      register_ms.push_back(MsSince(t));
    }
    layers->register_file_ms = Median(register_ms);
  }
  layers->image_mb =
      static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
}

/// Saves `graph` of `catalog` under `workdir`, then times loading it back.
void MeasureStorage(GraphCatalog* catalog, const std::string& graph,
                    const std::string& workdir, SetupLayers* layers) {
  auto snapshot = catalog->Snapshot(graph);
  CheckOk(snapshot.status(), "snapshot " + graph);
  const std::string path =
      workdir + "/storage-" + std::to_string(getpid()) + ".gcsnap";
  const auto t = Clock::now();
  CheckOk(gcore::SaveSnapshot(**snapshot, path), "save " + path);
  layers->save_ms = MsSince(t);
  MeasureLoad(path, /*register_too=*/true, layers);
  std::filesystem::remove(path);
}

/// One closed-loop client: a session (the engine's default options,
/// frozen) for timed requests and a Tracer for traced ones.
class Client {
 public:
  explicit Client(QueryEngine* engine)
      : session_(engine->CreateSession()), tracer_(engine) {}

  /// Sends `text` and waits for the reply; `*ms` is the request's wall
  /// time (the fingerprint is taken after it).
  Outcome Send(const std::string& text, bool traced, double* ms) {
    if (traced) {
      Outcome out = tracer_.Run(text, session_.options());
      *ms = out.spans.total_ms;
      return out;
    }
    Outcome out;
    const auto t0 = Clock::now();
    auto result = session_.Execute(text);
    *ms = MsSince(t0);
    out.ok = result.ok();
    if (out.ok) {
      out.fingerprint = ResultFingerprint(*result);
    } else {
      out.error = result.status().ToString();
    }
    return out;
  }

 private:
  gcore::QuerySession session_;
  Tracer tracer_;
};

// --- tour, paper_snb ----------------------------------------------------------

/// The paper's listing, in listing order, by one client. On the toy data
/// all 15 queries run; on SNB data the FROM/ON-TABLE imports (which read
/// the toy `orders` table) are left out.
///
/// Both inputs are fixed: the toy data has no seed, and the 200-person
/// graph always uses the generator's default seed. Every listing query is
/// anchored on John Doe, so its cost is a property of one person's
/// neighbourhood; between generator seeds that cost differs by up to 40%,
/// far more than run-to-run noise.
class ListingWorkload : public Workload {
 public:
  explicit ListingWorkload(bool snb) : snb_(snb) {
    for (const PaperQuery& q : kPaperQueries) {
      const std::string id = q.id;
      if (snb_ && (id == "FROM" || id == "ON-TABLE")) continue;
      queries_.push_back({id, q.text});
    }
  }

  int tail_percentile() const override { return snb_ ? 75 : 99; }
  size_t scale() const override { return snb_ ? kPersons : 0; }
  int setups() const override { return 9; }  // milliseconds each
  /// On SNB data the reference pass has already touched every query's
  /// data, and a pass takes seconds.
  double warmup_seconds() const override { return snb_ ? 0.0 : 1.0; }

  void SetUp() override {
    engine_.reset();
    catalog_ = std::make_unique<GraphCatalog>();
    const auto t_generate = Clock::now();
    if (snb_) {
      catalog_->RegisterGraph(
          "social_graph",
          GenerateSnb(kPersons, gcore::snb::GeneratorOptions().seed,
                      catalog_.get()));
      catalog_->SetDefaultGraph("social_graph");
    } else {
      gcore::snb::RegisterToyData(catalog_.get());
    }
    layers_.generate_ms = MsSince(t_generate);
    const auto t_freeze = Clock::now();
    CheckOk(catalog_->Snapshot("social_graph").status(), "freeze");
    layers_.freeze_ms = MsSince(t_freeze);
    const auto t_stats = Clock::now();
    CheckOk(catalog_->Stats("social_graph").status(), "stats");
    layers_.stats_ms = MsSince(t_stats);
    engine_ = std::make_unique<QueryEngine>(catalog_.get());
    if (snb_) {
      auto view = engine_->Execute(
          "GRAPH VIEW company_graph AS "
          "(CONSTRUCT (c) MATCH (c:Company) ON social_graph)");
      CheckOk(view.status(), "company_graph view");
    }
  }

  void PrepareReferences() override {
    QueryEngine reference(catalog_.get());
    reference.set_plan_cache_capacity(0);
    references_.clear();
    for (const auto& q : queries_) {
      references_.push_back(ReferenceOf(&reference, q.text));
    }
  }

  /// Whole passes over the listing: the window closes at the end of the
  /// pass in which `seconds` run out, so every query is equally sampled.
  RunStats Run(double seconds, bool traced, int /*clients*/) override {
    RunStats stats;
    Client client(engine_.get());
    const auto cache_before = engine_->plan_cache_counters();
    const double cpu_before = ProcessCpuMs();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    do {
      const auto pass_start = Clock::now();
      for (size_t i = 0; i < queries_.size(); ++i) {
        Sample sample;
        Outcome out = client.Send(queries_[i].text, traced, &sample.ms);
        sample.end_ms = MsSince(start);
        sample.cls = Classify(queries_[i].text);
        sample.spans = out.spans;
        ++stats.attempted;
        if (!out.ok || (!out.fingerprint.empty() &&
                        out.fingerprint != references_[i])) {
          ++stats.failed;
        }
        stats.samples.push_back(sample);
      }
      stats.epoch_qps.push_back(static_cast<double>(queries_.size()) * 1000.0 /
                                MsSince(pass_start));
    } while (Clock::now() < deadline);
    stats.window_s = MsSince(start) / 1000.0;
    stats.cpu_ms = ProcessCpuMs() - cpu_before;
    stats.cache = Delta(engine_->plan_cache_counters(), cache_before);
    stats.retired_after = catalog_->RetiredCount();
    return stats;
  }

  QueryEngine* analysis_engine() override { return engine_.get(); }

  std::vector<std::string> AnalysisTexts() override {
    std::vector<std::string> texts;
    for (const auto& q : queries_) texts.push_back(q.text);
    return texts;
  }

  void MeasureStorageLayers(const std::string& workdir) override {
    MeasureStorage(catalog_.get(), "social_graph", workdir, &layers_);
  }

 private:
  static constexpr size_t kPersons = 200;
  struct Query {
    std::string id;
    std::string text;
  };
  bool snb_;
  std::vector<Query> queries_;
  std::vector<std::string> references_;
  std::unique_ptr<GraphCatalog> catalog_;
  std::unique_ptr<QueryEngine> engine_;
};

// --- serve ------------------------------------------------------------------------

constexpr size_t kServePersons = 20000;

/// Results seen per distinct request text during the timed loops.
struct Seen {
  std::string fingerprint;
  size_t count = 0;
  size_t inconsistent = 0;  // later results that differed from the first
};

void Record(std::map<std::string, Seen>* seen, const std::string& text,
            const std::string& fingerprint, size_t count,
            size_t inconsistent) {
  auto [it, inserted] = seen->try_emplace(text);
  if (inserted) it->second.fingerprint = fingerprint;
  it->second.count += count;
  it->second.inconsistent += inconsistent;
  if (!inserted && it->second.fingerprint != fingerprint) {
    it->second.inconsistent += count;
  }
}

/// The SNB serving mix over 20,000 persons. Too many distinct texts to
/// precompute references, so each text's first result is kept and every
/// text is checked against the reference after the loops (Verify).
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(uint64_t seed) : seed_(seed) {
    // One stream per client, continued across windows: the timed window
    // follows the warm-up instead of replaying it.
    for (int c = 0; c < clients(); ++c) {
      streams_.emplace_back(kServePersons, seed_, static_cast<uint64_t>(c));
    }
  }

  int clients() const override { return 2; }
  int tail_percentile() const override { return 99; }
  size_t scale() const override { return kServePersons; }
  double warmup_seconds() const override { return 1.0; }

  void SetUp() override {
    engine_.reset();
    catalog_ = std::make_unique<GraphCatalog>();
    const auto t_generate = Clock::now();
    catalog_->RegisterGraph("snb",
                            GenerateSnb(kServePersons, seed_, catalog_.get()));
    layers_.generate_ms = MsSince(t_generate);
    catalog_->SetDefaultGraph("snb");
    const auto t_freeze = Clock::now();
    CheckOk(catalog_->Snapshot("snb").status(), "freeze");
    layers_.freeze_ms = MsSince(t_freeze);
    const auto t_stats = Clock::now();
    CheckOk(catalog_->Stats("snb").status(), "stats");
    layers_.stats_ms = MsSince(t_stats);
    engine_ = std::make_unique<QueryEngine>(catalog_.get());
  }

  RunStats Run(double seconds, bool traced, int clients) override {
    struct Result {
      RunStats stats;
      std::map<std::string, Seen> seen;
    };
    std::vector<Result> results(static_cast<size_t>(clients));
    const auto cache_before = engine_->plan_cache_counters();
    const double cpu_before = ProcessCpuMs();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([this, c, traced, start, deadline, &results] {
        Result& result = results[static_cast<size_t>(c)];
        RequestStream& stream = streams_[static_cast<size_t>(c)];
        Client client(engine_.get());
        while (Clock::now() < deadline) {
          const Request request = stream.Next();
          Sample sample;
          sample.cls = request.cls;
          Outcome out = client.Send(request.text, traced, &sample.ms);
          sample.end_ms = MsSince(start);
          sample.spans = out.spans;
          ++result.stats.attempted;
          if (!out.ok) {
            ++result.stats.failed;
          } else if (!out.fingerprint.empty()) {
            Record(&result.seen, request.text, out.fingerprint, 1, 0);
          }
          result.stats.samples.push_back(sample);
        }
      });
    }
    for (auto& t : threads) t.join();
    RunStats stats;
    stats.window_s = MsSince(start) / 1000.0;
    stats.cpu_ms = ProcessCpuMs() - cpu_before;
    stats.cache = Delta(engine_->plan_cache_counters(), cache_before);
    for (Result& result : results) {
      stats.attempted += result.stats.attempted;
      stats.failed += result.stats.failed;
      stats.samples.insert(stats.samples.end(), result.stats.samples.begin(),
                           result.stats.samples.end());
      for (const auto& [text, s] : result.seen) {
        Record(&seen_, text, s.fingerprint, s.count, s.inconsistent);
      }
    }
    // Epochs of equal completion counts, about one per second.
    std::vector<double> ends;
    for (const Sample& sample : stats.samples) ends.push_back(sample.end_ms);
    std::sort(ends.begin(), ends.end());
    const size_t epochs = std::min(ends.size(), static_cast<size_t>(seconds));
    for (size_t e = 0; e < epochs; ++e) {
      const size_t lo = e * ends.size() / epochs;
      const size_t hi = (e + 1) * ends.size() / epochs;
      const double from = lo == 0 ? 0.0 : ends[lo - 1];
      stats.epoch_qps.push_back(static_cast<double>(hi - lo) * 1000.0 /
                                (ends[hi - 1] - from));
    }
    stats.retired_after = catalog_->RetiredCount();
    return stats;
  }

  /// References for every distinct text seen, computed on four threads
  /// (each reference is itself serial).
  size_t Verify() override {
    QueryEngine reference(catalog_.get());
    reference.set_plan_cache_capacity(0);
    std::vector<const std::pair<const std::string, Seen>*> entries;
    for (const auto& entry : seen_) entries.push_back(&entry);
    std::mutex mu;
    size_t next = 0;
    size_t wrong = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          size_t i;
          {
            std::lock_guard<std::mutex> lock(mu);
            if (next == entries.size()) return;
            i = next++;
          }
          const auto& [text, seen] = *entries[i];
          const bool match =
              ReferenceOf(&reference, text) == seen.fingerprint;
          std::lock_guard<std::mutex> lock(mu);
          wrong += seen.inconsistent + (match ? 0 : seen.count);
        }
      });
    }
    for (auto& t : threads) t.join();
    return wrong;
  }

  QueryEngine* analysis_engine() override { return engine_.get(); }

  /// The first three distinct texts of each class in client 0's stream.
  std::vector<std::string> AnalysisTexts() override {
    RequestStream stream(kServePersons, seed_, 0);
    std::map<QueryClass, std::set<std::string>> picked;
    std::vector<std::string> texts;
    for (int draw = 0; draw < 100000 && texts.size() < 12; ++draw) {
      Request r = stream.Next();
      auto& of_class = picked[r.cls];
      if (of_class.size() < 3 && of_class.insert(r.text).second) {
        texts.push_back(r.text);
      }
    }
    return texts;
  }

  void MeasureStorageLayers(const std::string& workdir) override {
    MeasureStorage(catalog_.get(), "snb", workdir, &layers_);
  }

 private:
  uint64_t seed_;
  std::vector<RequestStream> streams_;
  std::unique_ptr<GraphCatalog> catalog_;
  std::unique_ptr<QueryEngine> engine_;
  std::map<std::string, Seen> seen_;
};

// --- coldstart ----------------------------------------------------------------------

/// Snapshot cold start and reload. Set-up saves the 20,000-person arena;
/// each cycle then (1) registers the file (mmap) on a fresh catalog and
/// engine and runs a lookup, and (2) re-registers it under the live
/// engine — a version bump that evicts plans and retires the old image —
/// and runs the next lookup.
class ColdStartWorkload : public Workload {
 public:
  ColdStartWorkload(uint64_t seed, const std::string& workdir)
      : seed_(seed),
        path_(workdir + "/coldstart-" + std::to_string(getpid()) +
              ".gcsnap") {}
  ~ColdStartWorkload() override {
    analysis_engine_.reset();
    analysis_catalog_.reset();
    std::filesystem::remove(path_);
  }

  int tail_percentile() const override { return 75; }
  size_t scale() const override { return kServePersons; }

  void SetUp() override {
    setup_catalog_ = std::make_unique<GraphCatalog>();
    const auto t_generate = Clock::now();
    setup_catalog_->RegisterGraph(
        "snb", GenerateSnb(kServePersons, seed_, setup_catalog_.get()));
    layers_.generate_ms = MsSince(t_generate);
    setup_catalog_->SetDefaultGraph("snb");
    const auto t_freeze = Clock::now();
    auto snapshot = setup_catalog_->Snapshot("snb");
    CheckOk(snapshot.status(), "freeze");
    layers_.freeze_ms = MsSince(t_freeze);
    const auto t_save = Clock::now();
    CheckOk(gcore::SaveSnapshot(**snapshot, path_), "save " + path_);
    layers_.save_ms = MsSince(t_save);
  }

  /// References come from the generated graph (not the file), then the
  /// set-up catalog is dropped so the timed loop holds only what cold
  /// start builds.
  void PrepareReferences() override {
    const auto t_stats = Clock::now();
    CheckOk(setup_catalog_->Stats("snb").status(), "stats");
    layers_.stats_ms = MsSince(t_stats);
    RequestStream stream(kServePersons, seed_, 0);
    lookups_.clear();
    references_.clear();
    {
      QueryEngine reference(setup_catalog_.get());
      reference.set_plan_cache_capacity(0);
      for (size_t i = 0; i < kLookups; ++i) {
        lookups_.push_back(stream.NextOf(QueryClass::kLookup).text);
        references_.push_back(ReferenceOf(&reference, lookups_.back()));
      }
    }
    setup_catalog_.reset();
  }

  RunStats Run(double seconds, bool traced, int /*clients*/) override {
    RunStats stats;
    std::vector<double> register_ms;
    const double cpu_before = ProcessCpuMs();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    size_t next = 0;
    auto lookup = [&](Client* client, Clock::time_point step_start,
                      int step) {
      const size_t i = next++ % lookups_.size();
      Sample sample;
      const double before_ms = MsSince(step_start);
      double request_ms = 0.0;
      Outcome out = client->Send(lookups_[i], traced, &request_ms);
      sample.ms = before_ms + request_ms;
      sample.end_ms = MsSince(start);
      sample.cls = QueryClass::kLookup;
      sample.step = step;
      sample.spans = out.spans;
      ++stats.attempted;
      if (!out.ok || (!out.fingerprint.empty() &&
                      out.fingerprint != references_[i])) {
        ++stats.failed;
      }
      stats.samples.push_back(sample);
    };
    auto register_file = [&](GraphCatalog* catalog) {
      const auto t = Clock::now();
      gcore::Status status =
          catalog->RegisterSnapshotFile("snb", path_, /*use_mmap=*/true);
      register_ms.push_back(MsSince(t));
      return status;
    };
    while (Clock::now() < deadline) {
      const auto cold_start = Clock::now();
      {
        GraphCatalog catalog;
        if (!register_file(&catalog).ok()) {
          ++stats.attempted;
          ++stats.failed;
          break;
        }
        catalog.SetDefaultGraph("snb");
        QueryEngine engine(&catalog);
        Client client(&engine);
        lookup(&client, cold_start, 0);

        const auto reload_start = Clock::now();
        if (!register_file(&catalog).ok()) {
          ++stats.attempted;
          ++stats.failed;
          break;
        }
        lookup(&client, reload_start, 1);
        stats.retired_after =
            std::max(stats.retired_after, catalog.RetiredCount());
        Accumulate(&stats.cache, engine.plan_cache_counters());
      }
      // The cycle includes tearing the catalog down.
      stats.epoch_qps.push_back(2000.0 / MsSince(cold_start));
    }
    stats.window_s = MsSince(start) / 1000.0;
    stats.cpu_ms = ProcessCpuMs() - cpu_before;
    if (!register_ms.empty()) layers_.register_file_ms = Median(register_ms);
    return stats;
  }

  QueryEngine* analysis_engine() override {
    if (analysis_engine_ == nullptr) {
      analysis_catalog_ = std::make_unique<GraphCatalog>();
      CheckOk(analysis_catalog_->RegisterSnapshotFile("snb", path_, true),
              "register " + path_);
      analysis_catalog_->SetDefaultGraph("snb");
      analysis_engine_ = std::make_unique<QueryEngine>(analysis_catalog_.get());
    }
    return analysis_engine_.get();
  }

  std::vector<std::string> AnalysisTexts() override {
    return std::vector<std::string>(lookups_.begin(), lookups_.begin() + 4);
  }

  void MeasureStorageLayers(const std::string& /*workdir*/) override {
    MeasureLoad(path_, /*register_too=*/layers_.register_file_ms < 0.0,
                &layers_);
  }

 private:
  static constexpr size_t kLookups = 32;
  uint64_t seed_;
  std::string path_;
  std::unique_ptr<GraphCatalog> setup_catalog_;
  std::vector<std::string> lookups_;
  std::vector<std::string> references_;
  std::unique_ptr<GraphCatalog> analysis_catalog_;
  std::unique_ptr<QueryEngine> analysis_engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& workdir) {
  if (name == "tour") return std::make_unique<ListingWorkload>(false);
  if (name == "paper_snb") return std::make_unique<ListingWorkload>(true);
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "coldstart") {
    return std::make_unique<ColdStartWorkload>(seed, workdir);
  }
  return nullptr;
}

}  // namespace perfbench
