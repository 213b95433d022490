#include "harness.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace perfbench {

using gcore::PathPropertyGraph;

// --- result checking ---------------------------------------------------------

std::string GraphFingerprint(const PathPropertyGraph& graph) {
  std::vector<std::string> nodes;
  std::vector<std::string> edges;
  std::vector<std::string> paths;
  graph.ForEachNode([&](gcore::NodeId id) {
    nodes.push_back(graph.Labels(id).ToString() + " " +
                    graph.Properties(id).ToString());
  });
  graph.ForEachEdge([&](gcore::EdgeId id, gcore::NodeId src,
                        gcore::NodeId dst) {
    edges.push_back("(" + graph.Labels(src).ToString() + ")-[" +
                    graph.Labels(id).ToString() + " " +
                    graph.Properties(id).ToString() + "]->(" +
                    graph.Labels(dst).ToString() + ")");
  });
  graph.ForEachPath([&](gcore::PathId id, const gcore::PathBody& body) {
    paths.push_back("len=" + std::to_string(body.Length()) + " " +
                    graph.Labels(id).ToString() + " " +
                    graph.Properties(id).ToString());
  });
  std::string out = "nodes=" + std::to_string(nodes.size()) +
                    " edges=" + std::to_string(edges.size()) +
                    " paths=" + std::to_string(paths.size()) + "\n";
  for (auto* kind : {&nodes, &edges, &paths}) {
    std::sort(kind->begin(), kind->end());
    for (const std::string& line : *kind) out += line + "\n";
  }
  return out;
}

std::string ResultFingerprint(const gcore::QueryResult& result) {
  if (result.IsTable()) return "table\n" + result.table->ToString();
  if (result.IsGraph()) return "graph\n" + GraphFingerprint(*result.graph);
  return "empty\n";
}

// --- query classes -------------------------------------------------------------

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kLookup:
      return "lookup";
    case QueryClass::kExpand:
      return "expand";
    case QueryClass::kJoin:
      return "join";
    case QueryClass::kPath:
      return "path";
    case QueryClass::kConstruct:
      return "construct";
    case QueryClass::kOther:
      break;
  }
  return "other";
}

namespace {

/// Upper-cased text with the contents of quoted literals removed, so
/// keywords and punctuation inside strings cannot mislead the rule.
std::string Skeleton(const std::string& text) {
  std::string out;
  char quote = 0;
  for (char ch : text) {
    if (quote != 0) {
      if (ch == quote) {
        quote = 0;
        out += ch;
      }
      continue;
    }
    if (ch == '\'' || ch == '"') quote = ch;
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  return out;
}

bool IsWordChar(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
}

/// Position of keyword `word` at bracket depth 0 at or after `from`, or
/// npos.
size_t FindTopLevelWord(const std::string& s, const std::string& word,
                        size_t from) {
  int depth = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (ch == '(' || ch == '[' || ch == '{') ++depth;
    if (ch == ')' || ch == ']' || ch == '}') --depth;
    if (i < from || depth != 0) continue;
    if (s.compare(i, word.size(), word) == 0 &&
        (i == 0 || !IsWordChar(s[i - 1])) &&
        (i + word.size() == s.size() || !IsWordChar(s[i + word.size()]))) {
      return i;
    }
  }
  return std::string::npos;
}

}  // namespace

QueryClass Classify(const std::string& text) {
  const std::string s = Skeleton(text);
  if (s.find("-/") != std::string::npos || s.find("/-") != std::string::npos) {
    return QueryClass::kPath;
  }
  size_t pos = s.find_first_not_of(" \t\n");
  auto next_word = [&]() {
    pos = s.find_first_not_of(" \t\n", pos);
    if (pos == std::string::npos) return std::string();
    const size_t end = s.find_first_of(" \t\n(", pos);
    std::string word = s.substr(pos, end - pos);
    pos = end;
    return word;
  };
  std::string head = next_word();
  if (head == "EXPLAIN") head = next_word();
  if (head == "ANALYZE") head = next_word();
  if (head == "CONSTRUCT" || head == "GRAPH" || head == "PATH") {
    return QueryClass::kConstruct;
  }
  if (head != "SELECT") return QueryClass::kOther;

  const size_t match = FindTopLevelWord(s, "MATCH", 0);
  if (match == std::string::npos) return QueryClass::kOther;
  const size_t begin = match + 5;
  size_t end = s.size();
  for (const char* stop : {"WHERE", "OPTIONAL"}) {
    end = std::min(end, FindTopLevelWord(s, stop, begin));
  }
  const std::string patterns = s.substr(begin, end - begin);
  const bool equality_filter =
      end < s.size() && s.find('=', end) != std::string::npos;

  // Split into comma-separated chains; within each, every top-level
  // parenthesized group is a node pattern.
  size_t chains = 1;
  size_t max_hops = 0;
  bool cycle = false;
  bool labelled = false;
  std::set<std::string> vars;
  size_t nodes = 0;
  int depth = 0;
  auto close_chain = [&]() {
    max_hops = std::max(max_hops, nodes > 0 ? nodes - 1 : 0);
    nodes = 0;
    vars.clear();
  };
  for (size_t i = 0; i < patterns.size(); ++i) {
    const char ch = patterns[i];
    if (ch == '(' && depth == 0) {
      ++nodes;
      size_t j = i + 1;
      while (j < patterns.size() && IsWordChar(patterns[j])) ++j;
      const std::string var = patterns.substr(i + 1, j - i - 1);
      if (!var.empty() && !vars.insert(var).second) cycle = true;
      if (j < patterns.size() && patterns[j] == ':') labelled = true;
    }
    if (ch == '(' || ch == '[' || ch == '{') ++depth;
    if (ch == ')' || ch == ']' || ch == '}') --depth;
    if (ch == ',' && depth == 0) {
      ++chains;
      close_chain();
    }
  }
  close_chain();
  if (chains >= 2 || cycle || max_hops >= 2) return QueryClass::kJoin;
  if (max_hops == 1) return QueryClass::kExpand;
  if (labelled && equality_filter) return QueryClass::kLookup;
  return QueryClass::kOther;
}

bool MentionsKeyword(const std::string& text, const std::string& word) {
  const std::string s = Skeleton(text);
  std::string upper;
  for (char ch : word) {
    upper += static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  for (size_t at = s.find(upper); at != std::string::npos;
       at = s.find(upper, at + 1)) {
    if ((at == 0 || !IsWordChar(s[at - 1])) &&
        (at + upper.size() == s.size() || !IsWordChar(s[at + upper.size()]))) {
      return true;
    }
  }
  return false;
}

// --- statistics ------------------------------------------------------------------

double Percentile(const std::vector<double>& sorted, double p) {
  const double h = (static_cast<double>(sorted.size()) - 1.0) * p / 100.0;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

int TailPercentileFor(size_t n) {
  for (int p : {99, 95, 90, 75, 50}) {
    // Samples strictly beyond the p-th percentile: floor(n * (1 - p)).
    if (n * static_cast<size_t>(100 - p) >= 1000) return p;
  }
  return 0;
}

// --- seeded load -------------------------------------------------------------------

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix64::NextUnit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfStream::ZipfStream(size_t n, double exponent, uint64_t permutation_seed,
                       uint64_t draw_seed)
    : rng_(draw_seed) {
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  permutation_.resize(n);
  for (size_t k = 0; k < n; ++k) permutation_[k] = static_cast<uint32_t>(k);
  SplitMix64 shuffle(permutation_seed);
  for (size_t k = n; k > 1; --k) {
    std::swap(permutation_[k - 1], permutation_[shuffle.Next() % k]);
  }
}

size_t ZipfStream::Next() {
  const double u = rng_.NextUnit();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return permutation_[std::min(rank, permutation_.size() - 1)];
}

std::pair<std::string, std::string> PersonName(size_t index) {
  // Mirrors snb::Generate: first names cycle every person, last names
  // every twenty, and from index 400 on the last name carries the block
  // number, which makes every (first, last) pair unique.
  static const char* kFirst[] = {"John",  "Alice", "Peter", "Celine", "Frank",
                                 "Maria", "Wei",   "Amina", "Louis",  "Sofia",
                                 "Ivan",  "Noor",  "Hugo",  "Emma",   "Raj",
                                 "Yuki",  "Omar",  "Lena",  "Carlos", "Nina"};
  static const char* kLast[] = {"Doe",    "Alba",   "Park",   "Mayer", "Gold",
                                "Silva",  "Chen",   "Diallo", "Brun",  "Rossi",
                                "Petrov", "Haddad", "Klein",  "Svens", "Patel",
                                "Sato",   "Nasser", "Weber",  "Lopez", "Novak"};
  std::string last = kLast[(index / 20) % 20];
  if (index >= 400) last += "_" + std::to_string(index / 400);
  return {kFirst[index % 20], last};
}

std::string RequestText(QueryClass cls, const std::string& first,
                        const std::string& last) {
  const std::string anchor = " WHERE a.firstName = '" + first +
                             "' AND a.lastName = '" + last + "'";
  switch (cls) {
    case QueryClass::kLookup:
      return "SELECT a.employer AS employer MATCH (a:Person)" + anchor;
    case QueryClass::kExpand:
      return "SELECT COUNT(*) AS deg MATCH (a:Person)-[:knows]->(b:Person)" +
             anchor;
    case QueryClass::kJoin:
      // The SNB profile card: a 7-relation star around the person and
      // each friend.
      return "SELECT co1.name AS employer, c1.name AS city, "
             "COUNT(*) AS fanout "
             "MATCH (a:Person)-[:knows]->(b:Person), "
             "(a)-[:isLocatedIn]->(c1:City), (b)-[:isLocatedIn]->(c2:City), "
             "(a)-[:worksAt]->(co1:Company), (b)-[:worksAt]->(co2:Company), "
             "(a)-[:hasInterest]->(t1:Tag), (b)-[:hasInterest]->(t2:Tag)" +
             anchor;
    case QueryClass::kPath:
      return "SELECT COUNT(*) AS reach "
             "MATCH (a:Person)-/<:knows*>/->(b:Person)" +
             anchor;
    case QueryClass::kConstruct:
    case QueryClass::kOther:
      break;
  }
  return std::string();
}

namespace {
constexpr double kZipfExponent = 1.2;
}  // namespace

RequestStream::RequestStream(size_t num_persons, uint64_t seed,
                             uint64_t client)
    : persons_(num_persons, kZipfExponent, seed,
               seed * 0x9e3779b97f4a7c15ull + client + 1),
      rng_(seed ^ (0xd1b54a32d192ed03ull * (client + 1))) {}

Request RequestStream::Next() {
  const double u = rng_.NextUnit();
  const QueryClass cls = u < 0.60   ? QueryClass::kLookup
                         : u < 0.85 ? QueryClass::kExpand
                         : u < 0.95 ? QueryClass::kJoin
                                    : QueryClass::kPath;
  return NextOf(cls);
}

Request RequestStream::NextOf(QueryClass cls) {
  const auto [first, last] = PersonName(persons_.Next());
  return Request{cls, RequestText(cls, first, last)};
}

// --- EXPLAIN ANALYZE ------------------------------------------------------------------

namespace {

/// Value of `key` (e.g. "actual_ms=") inside `stats`, or -1 when absent.
double StatValue(const std::string& stats, const std::string& key) {
  const size_t at = stats.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(stats.c_str() + at + key.size(), nullptr);
}

}  // namespace

std::vector<AnalyzedOp> ParseAnalyze(const std::vector<std::string>& lines) {
  std::vector<AnalyzedOp> ops;
  bool after_header = false;
  for (const std::string& line : lines) {
    // Skip the tree-drawing prefix (multi-byte box characters and spaces).
    size_t begin = 0;
    while (begin < line.size() &&
           !std::isalpha(static_cast<unsigned char>(line[begin]))) {
      ++begin;
    }
    size_t name_end = begin;
    while (name_end < line.size() && IsWordChar(line[name_end])) ++name_end;
    size_t stats_at = std::string::npos;
    for (const char* key : {"(est_rows=", "(actual_rows=", "(actual_ms="}) {
      const size_t at = line.rfind(key);
      if (at != std::string::npos &&
          (stats_at == std::string::npos || at > stats_at)) {
        stats_at = at;
      }
    }
    if (stats_at == std::string::npos) {
      const std::string name = line.substr(begin, name_end - begin);
      after_header = name == "Construct" || name == "Select";
      continue;
    }
    const std::string stats = line.substr(stats_at);
    AnalyzedOp op;
    op.op = line.substr(begin, name_end - begin);
    op.est_rows = StatValue(stats, "est_rows=");
    const double rows = StatValue(stats, "actual_rows=");
    op.actual_rows = rows < 0.0 ? -1 : static_cast<int64_t>(rows);
    op.actual_ms = StatValue(stats, "actual_ms=");
    op.root = after_header;
    after_header = false;
    ops.push_back(std::move(op));
  }
  return ops;
}

// --- output ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", ch);
      out += esc;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
