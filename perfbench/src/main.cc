// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload <tour|paper_snb|serve|coldstart> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--git-sha <sha>] [--source-sha <sha256>]
//
// --trace 0 times the workload's closed loop and prints the end-to-end
// metrics; --trace 1 runs the same loop once untraced and once through the
// Tracer (layer by layer), then EXPLAIN ANALYZEs the workload's queries,
// and prints the per-layer metrics. Before the result the program prints
// two lines: "perfbench-context {...}" (the machine and build the numbers
// come from) and "perfbench-report {...}" (workload-specific detail:
// per-class medians, cold start and reload, error rate, sample counts).
// The last line is the result object.
#include <sched.h>
#include <sys/personality.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--source-sha") {
      args->source_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// --- memory ---------------------------------------------------------------------

/// Resets the kernel's peak-RSS mark so the next read covers only what
/// follows; false where /proc/self/clear_refs is unavailable.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- machine context ----------------------------------------------------------------

uint64_t Spin(Clock::time_point until) {
  uint64_t x = 1;
  uint64_t iterations = 0;
  while (true) {
    for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
    iterations += 4096;
    if (Clock::now() >= until) break;
  }
  static std::atomic<uint64_t> sink{0};
  sink.fetch_add(x, std::memory_order_relaxed);
  return iterations;
}

/// Cores the box delivers: work done by N busy threads over work done by
/// one, for the same wall time.
double EffectiveCores(unsigned threads) {
  const auto window = std::chrono::milliseconds(150);
  const uint64_t one = Spin(Clock::now() + window);
  std::vector<uint64_t> counts(threads, 0);
  std::vector<std::thread> workers;
  const auto until = Clock::now() + window;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&counts, t, until] { counts[t] = Spin(until); });
  }
  for (auto& w : workers) w.join();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return static_cast<double>(total) / static_cast<double>(one);
}

// --- metrics -------------------------------------------------------------------------

/// Flat JSON object builder for the output lines.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  /// A result metric: {"value": v, "unit": u}.
  JsonObject& Metric(const std::string& key, double v,
                     const std::string& unit) {
    return Raw(key, "{\"value\": " + JsonNumber(v) +
                        ", \"unit\": " + JsonString(unit) + "}");
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::vector<double> Latencies(const RunStats& run) {
  std::vector<double> ms;
  for (const Sample& s : run.samples) ms.push_back(s.ms);
  std::sort(ms.begin(), ms.end());
  return ms;
}

const QueryClass kClasses[] = {QueryClass::kLookup, QueryClass::kExpand,
                               QueryClass::kJoin, QueryClass::kPath,
                               QueryClass::kConstruct};

/// Workload detail that is not a gated end-to-end metric: per-class
/// medians (only classes the workload has), cold start and reload
/// medians (coldstart), error rate, and the sample counts behind them.
JsonObject Report(const Workload& workload, const RunStats& run,
                  size_t wrong) {
  JsonObject report;
  const std::vector<double> ms = Latencies(run);
  const int p = workload.tail_percentile();
  report.Num("samples", static_cast<double>(ms.size()))
      .Num("window_s", run.window_s)
      .Num("window_qps", static_cast<double>(ms.size()) / run.window_s)
      .Num("epochs", static_cast<double>(run.epoch_qps.size()))
      .Num("tail_percentile", p)
      .Num("samples_beyond_tail",
           static_cast<double>(ms.size() * static_cast<size_t>(100 - p) /
                               100));
  for (QueryClass c : kClasses) {
    std::vector<double> of_class;
    for (const Sample& s : run.samples) {
      if (s.cls == c) of_class.push_back(s.ms);
    }
    if (of_class.empty()) continue;
    report.Num(std::string(ClassName(c)) + "_p50_ms", Median(of_class))
        .Num(std::string(ClassName(c)) + "_samples",
             static_cast<double>(of_class.size()));
  }
  for (int step : {0, 1}) {
    std::vector<double> of_step;
    for (const Sample& s : run.samples) {
      if (s.step == step) of_step.push_back(s.ms);
    }
    if (of_step.empty()) continue;
    report.Num(step == 0 ? "cold_start_ms" : "reload_ms", Median(of_step));
  }
  const double failed = static_cast<double>(run.failed + wrong);
  report.Num("error_rate", failed / std::max<double>(1.0, run.attempted))
      .Num("plan_cache_hits", static_cast<double>(run.cache.hits))
      .Num("plan_cache_misses", static_cast<double>(run.cache.misses));
  return report;
}

// --- traced analysis ------------------------------------------------------------------

const char* const kOps[] = {"NodeScan",   "ExpandEdge",    "MultiwayExpand",
                            "PathSearch", "Filter",        "HashJoin",
                            "LeftOuterJoin", "Project"};

struct Analysis {
  std::map<std::string, double> op_ms;
  std::map<std::string, double> op_rows;
  std::map<std::string, size_t> op_seen;
  std::map<std::string, size_t> op_missing_ms;
  double qerror_max = 1.0;
  double rows_examined = 0.0;
  double result_rows = 0.0;
  std::vector<double> residual_ms;
  size_t texts = 0;
  std::vector<std::string> notes;
  size_t failed = 0;
};

/// EXPLAIN ANALYZE of every text (operator self time and rows, q-error,
/// rows examined per result), plus, for texts the Tracer decomposes, an
/// uncached Execute against the sum of its layer spans (the residual).
Analysis Analyze(gcore::QueryEngine* engine,
                 const std::vector<std::string>& texts) {
  Analysis a;
  Tracer tracer(engine);
  gcore::QueryEngine uncached(engine->catalog());
  uncached.set_plan_cache_capacity(0);
  const gcore::EngineOptions options = engine->options();
  for (const std::string& text : texts) {
    auto explained = engine->Execute("EXPLAIN ANALYZE " + text);
    if (!explained.ok() || !explained->IsTable()) {
      ++a.failed;
      continue;
    }
    ++a.texts;
    std::vector<std::string> lines;
    for (size_t r = 0; r < explained->table->NumRows(); ++r) {
      lines.push_back(explained->table->At(r, 0).AsString());
    }
    double text_ms = 0.0;
    std::string top_op;
    double top_ms = -1.0;
    for (const AnalyzedOp& op : ParseAnalyze(lines)) {
      ++a.op_seen[op.op];
      if (op.actual_ms >= 0.0) {
        a.op_ms[op.op] += op.actual_ms;
        text_ms += op.actual_ms;
        if (op.actual_ms > top_ms) {
          top_ms = op.actual_ms;
          top_op = op.op;
        }
      } else if (op.actual_rows >= 0) {
        ++a.op_missing_ms[op.op];
      }
      if (op.actual_rows >= 0) {
        a.op_rows[op.op] += static_cast<double>(op.actual_rows);
        a.rows_examined += static_cast<double>(op.actual_rows);
        if (op.root) a.result_rows += static_cast<double>(op.actual_rows);
        if (op.est_rows >= 0.0) {
          const double est = std::max(op.est_rows, 1.0);
          const double act = std::max(static_cast<double>(op.actual_rows), 1.0);
          a.qerror_max = std::max(a.qerror_max, std::max(est / act, act / est));
        }
      }
    }
    std::ostringstream note;
    note << ClassName(Classify(text)) << " " << text.substr(0, 48)
         << "... ops_ms=" << text_ms;
    if (!top_op.empty()) note << " top=" << top_op << ":" << top_ms;

    if (tracer.Decomposable(text)) {
      std::vector<double> exec_ms;
      std::vector<double> layer_ms;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t = Clock::now();
        auto result = uncached.Execute(text);
        exec_ms.push_back(MsSince(t));
        Outcome traced = tracer.Run(text, options);
        if (!result.ok() || !traced.ok) ++a.failed;
        layer_ms.push_back(traced.spans.LayerSumMs());
        if (exec_ms.back() > 100.0) break;  // slow texts: one repetition
      }
      const double residual = Median(exec_ms) - Median(layer_ms);
      a.residual_ms.push_back(residual);
      note << " residual_ms=" << residual;
    }
    a.notes.push_back(note.str());
  }
  return a;
}

/// Median of `field` over the traced samples that decomposed.
template <typename Field>
double SpanMedian(const RunStats& run, Field field) {
  std::vector<double> values;
  for (const Sample& s : run.samples) {
    if (s.spans.decomposed) {
      const double v = field(s.spans);
      if (v >= 0.0) values.push_back(v);
    }
  }
  return Median(values);
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(items[i]);
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to report from an unoptimized "
                       "build\n");
  return 2;
#endif
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.workdir);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Set-up: built several times (the last one is kept); setup_s is the
  // median, the first counted from process start.
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : workload->setups();
  for (int i = 0; i < setups; ++i) {
    const auto start = i == 0 ? process_start : Clock::now();
    workload->SetUp();
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  workload->PrepareReferences();
  size_t attempted = 0;
  size_t failed = 0;
  if (workload->warmup_seconds() > 0.0) {
    const RunStats warm = workload->Run(
        workload->warmup_seconds(), false,
        args.trace ? 1 : workload->clients());
    attempted += warm.attempted;
    failed += warm.failed;
  }

  JsonObject metrics;
  JsonObject report;
  if (!args.trace) {
    const bool peak_reset = ResetPeakRss();
    const RunStats run =
        workload->Run(args.seconds, false, workload->clients());
    const double peak_mb = PeakRssMb();
    const size_t wrong = workload->Verify();
    attempted += run.attempted;
    failed += run.failed + wrong;
    const std::vector<double> ms = Latencies(run);
    metrics.Metric("setup_s", Median(setup_s), "s");
    metrics.Metric("qps", Median(run.epoch_qps), "1/s");
    metrics.Metric("latency_p50_ms", ms.empty() ? 0.0 : Percentile(ms, 50),
                "ms");
    metrics.Metric("latency_tail_ms",
                ms.empty() ? 0.0 : Percentile(ms, workload->tail_percentile()),
                "ms");
    metrics.Metric("peak_rss_mb", peak_mb, "MB");
    report = Report(*workload, run, wrong);
    report.Str("peak_rss_window", peak_reset ? "timed window" : "process");
    std::string setups_json = "[";
    for (size_t i = 0; i < setup_s.size(); ++i) {
      setups_json += (i > 0 ? ", " : "") + JsonNumber(setup_s[i]);
    }
    report.Raw("setup_s_runs", setups_json + "]");
  } else {
    // Both windows use one client, so the traced one is comparable and
    // process CPU around Executor::Run belongs to the traced request.
    const RunStats untraced = workload->Run(args.seconds / 2, false, 1);
    const RunStats traced = workload->Run(args.seconds / 2, true, 1);
    const size_t wrong = workload->Verify();
    const Analysis analysis =
        Analyze(workload->analysis_engine(), workload->AnalysisTexts());
    workload->MeasureStorageLayers(args.workdir);
    attempted += untraced.attempted + traced.attempted;
    failed += untraced.failed + traced.failed + wrong + analysis.failed;

    const SetupLayers& layers = workload->layers();
    const double untraced_p50 = Median(Latencies(untraced));
    const double traced_p50 = Median(Latencies(traced));
    double run_ms = 0.0;
    double run_cpu_ms = 0.0;
    for (const Sample& s : traced.samples) {
      if (s.spans.decomposed) {
        run_ms += s.spans.run_ms;
        run_cpu_ms += s.spans.run_cpu_ms;
      }
    }
    const double lookups =
        static_cast<double>(untraced.cache.hits + untraced.cache.misses);
    const double n_texts = std::max<double>(1.0, analysis.texts);

    metrics.Metric("parser.parse_us",
                SpanMedian(traced, [](const LayerSpans& s) {
                  return s.parse_us;
                }),
                "us");
    metrics.Metric("validator.validate_us",
                SpanMedian(traced, [](const LayerSpans& s) {
                  return s.validate_us;
                }),
                "us");
    metrics.Metric("plan_cache.hit_ratio",
                lookups > 0 ? untraced.cache.hits / lookups : 0.0, "ratio");
    metrics.Metric("plan_cache.evictions",
                static_cast<double>(untraced.cache.evictions), "count");
    metrics.Metric("engine.residual_ms", Median(analysis.residual_ms), "ms");
    metrics.Metric("planner.plan_us",
                SpanMedian(traced, [](const LayerSpans& s) {
                  return s.plan_us;
                }),
                "us");
    metrics.Metric("planner.qerror_max", analysis.qerror_max, "ratio");
    metrics.Metric("executor.run_ms",
                SpanMedian(traced, [](const LayerSpans& s) {
                  return s.run_ms;
                }),
                "ms");
    metrics.Metric("executor.cpu_per_wall",
                run_ms > 0.0 ? run_cpu_ms / run_ms : 0.0, "ratio");
    metrics.Metric("executor.rows_examined_per_result",
                analysis.rows_examined /
                    std::max(1.0, analysis.result_rows),
                "ratio");
    std::vector<std::string> absent_ops;
    std::string missing_ms = "{";
    for (const char* op : kOps) {
      const auto seen = analysis.op_seen.find(op);
      if (seen == analysis.op_seen.end()) absent_ops.push_back(op);
      const auto missing = analysis.op_missing_ms.find(op);
      if (missing != analysis.op_missing_ms.end()) {
        missing_ms += (missing_ms.size() > 1 ? ", " : "") + JsonString(op) +
                      ": " + std::to_string(missing->second);
      }
      const auto ms = analysis.op_ms.find(op);
      const auto rows = analysis.op_rows.find(op);
      // An operator that ran but printed no actual_ms= has no time to
      // report: null, never 0.
      const bool untimed = seen != analysis.op_seen.end() &&
                           ms == analysis.op_ms.end();
      metrics.Metric(std::string("op.") + op + ".self_ms",
                  untimed ? std::numeric_limits<double>::quiet_NaN()
                          : (ms == analysis.op_ms.end() ? 0.0 : ms->second) /
                                n_texts,
                  "ms");
      metrics.Metric(std::string("op.") + op + ".rows",
                  (rows == analysis.op_rows.end() ? 0.0 : rows->second) /
                      n_texts,
                  "rows");
    }
    metrics.Metric("constructor.construct_ms",
                SpanMedian(traced, [](const LayerSpans& s) {
                  return s.construct_ms;
                }),
                "ms");
    metrics.Metric("constructor.objects_out",
                SpanMedian(traced, [](const LayerSpans& s) {
                  return s.construct_ms >= 0.0
                             ? static_cast<double>(s.objects_out)
                             : -1.0;
                }),
                "count");
    metrics.Metric("generator.generate_ms", layers.generate_ms, "ms");
    metrics.Metric("snapshot.freeze_ms", layers.freeze_ms, "ms");
    metrics.Metric("stats.collect_ms", layers.stats_ms, "ms");
    metrics.Metric("snapshot_io.save_ms", layers.save_ms, "ms");
    metrics.Metric("snapshot_io.mmap_ms", layers.mmap_ms, "ms");
    metrics.Metric("catalog.register_file_ms", layers.register_file_ms, "ms");
    metrics.Metric("snapshot_io.image_mb", layers.image_mb, "MB");
    metrics.Metric("catalog.retired_after_run",
                static_cast<double>(
                    std::max(untraced.retired_after, traced.retired_after)),
                "count");
    metrics.Metric("process.cpu_ms_per_query",
                untraced.cpu_ms /
                    std::max<double>(1.0, untraced.samples.size()),
                "ms");
    metrics.Metric("trace.overhead_pct",
                untraced_p50 > 0.0
                    ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0
                    : 0.0,
                "%");

    size_t decomposed = 0;
    for (const Sample& s : traced.samples) decomposed += s.spans.decomposed;
    report = Report(*workload, untraced, wrong);
    report.Num("traced_samples", static_cast<double>(traced.samples.size()))
        .Num("traced_decomposed", static_cast<double>(decomposed))
        .Num("untraced_p50_ms", untraced_p50)
        .Num("traced_p50_ms", traced_p50)
        .Num("analyzed_texts", static_cast<double>(analysis.texts))
        .Raw("ops_absent", JsonList(absent_ops))
        .Raw("ops_missing_actual_ms", missing_ms + "}")
        .Raw("analysis", JsonList(analysis.notes));
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int allowed = sched_getaffinity(0, sizeof(affinity), &affinity) == 0
                          ? CPU_COUNT(&affinity)
                          : static_cast<int>(nproc);
  JsonObject context;
  context.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("scale_persons", static_cast<double>(workload->scale()))
      .Num("clients", args.trace ? 1 : workload->clients())
      .Num("seconds", args.seconds)
      .Num("trace", args.trace ? 1 : 0)
      .Str("git_sha", args.git_sha)
      .Str("source_sha256", args.source_sha)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Num("nproc", nproc)
      .Num("cpus_allowed", allowed)
      .Num("effective_cores", EffectiveCores(std::max(1, allowed)))
      .Str("aslr", (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0
                       ? "off"
                       : "on")
      .Str("engine_options", "defaults (parallelism=0, plan cache 128)");

  std::printf("perfbench-context %s\n", context.Json().c_str());
  std::printf("perfbench-report %s\n", report.Json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
