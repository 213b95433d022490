// Workload-independent pieces of the end-to-end benchmark: result
// fingerprints, the query-class rule, percentiles, the seeded request
// stream and EXPLAIN ANALYZE parsing. Everything here is deterministic and
// covered by tests/harness_test.cc.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

// --- result checking ---------------------------------------------------------

/// Id-free fingerprint of a graph: node, edge and path counts plus the
/// sorted multisets of (label set, property map) per object kind (edges
/// also carry their endpoints' label sets, paths their length). CONSTRUCT
/// mints fresh identities on every execution, so ids are left out.
std::string GraphFingerprint(const gcore::PathPropertyGraph& graph);

/// What a result is compared by: a SELECT table byte for byte, a graph
/// by GraphFingerprint.
std::string ResultFingerprint(const gcore::QueryResult& result);

// --- query classes -------------------------------------------------------------

enum class QueryClass { kLookup, kExpand, kJoin, kPath, kConstruct, kOther };

const char* ClassName(QueryClass c);

/// The class rule, applied to query text in this order: a query with a
/// -/.../-> path pattern is `path`; otherwise a CONSTRUCT, GRAPH VIEW or
/// PATH-headed query is `construct`; a SELECT whose MATCH has two or more
/// chains, a repeated variable within a chain (a cycle) or two or more
/// hops is `join`; one hop is `expand`; a single labelled node filtered by
/// equality is `lookup`.
QueryClass Classify(const std::string& text);

/// True when `text` contains keyword `word` (case-insensitive, whole word,
/// outside quoted literals).
bool MentionsKeyword(const std::string& text, const std::string& word);

// --- statistics ------------------------------------------------------------------

/// Percentile `p` in [0, 100] by linear interpolation between closest
/// ranks; `sorted` must be ascending and non-empty.
double Percentile(const std::vector<double>& sorted, double p);

/// Median of an unsorted sample (0 when empty).
double Median(std::vector<double> values);

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it in a sample of `n`; 0 when none does.
int TailPercentileFor(size_t n);

// --- seeded load -------------------------------------------------------------------

/// SplitMix64: the benchmark's only random source, so a seed gives the
/// same stream on every platform.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextUnit();

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n) mapped through a permutation drawn from
/// `permutation_seed`, so the popular items are spread over the key space
/// instead of being its low indices; draws come from `draw_seed`.
class ZipfStream {
 public:
  ZipfStream(size_t n, double exponent, uint64_t permutation_seed,
             uint64_t draw_seed);
  size_t Next();

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> permutation_;
  SplitMix64 rng_;
};

/// (firstName, lastName) of generated SNB person `index`: the generator's
/// naming rule, unique per index.
std::pair<std::string, std::string> PersonName(size_t index);

/// One serving request: its class and query text.
struct Request {
  QueryClass cls;
  std::string text;
};

/// Request text of class `cls` anchored on the person named (first, last).
std::string RequestText(QueryClass cls, const std::string& first,
                        const std::string& last);

/// The serving mix as a closed-loop client's stream: each request draws
/// its class (60% lookup, 25% expand, 10% join, 5% path) and its person
/// (Zipf over all persons) from (seed, client).
class RequestStream {
 public:
  RequestStream(size_t num_persons, uint64_t seed, uint64_t client);
  Request Next();
  /// Next request forced to class `cls` (the cold-start loop's lookups).
  Request NextOf(QueryClass cls);

 private:
  ZipfStream persons_;
  SplitMix64 rng_;
};

// --- EXPLAIN ANALYZE ------------------------------------------------------------------

/// One operator line of EXPLAIN ANALYZE output. Negative fields were not
/// printed (a missing actual_ms= stays -1, never 0).
struct AnalyzedOp {
  std::string op;
  double est_rows = -1.0;
  int64_t actual_rows = -1;
  double actual_ms = -1.0;
  /// The first operator under a Construct/Select header: the plan root,
  /// whose rows are the bindings the executor returns.
  bool root = false;
};

/// Parses the operator lines of an EXPLAIN ANALYZE plan; header lines
/// without estimates or actuals (Construct, GraphView, ...) are skipped.
std::vector<AnalyzedOp> ParseAnalyze(const std::vector<std::string>& lines);

// --- output ---------------------------------------------------------------------------

/// Shortest round-trip decimal rendering of `v` (JSON number).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
