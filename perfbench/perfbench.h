// The wire-level benchmark's building blocks: metric names, percentiles,
// workloads and their statement streams, the answer key, and in-memory
// spans. main.cc wires them into one command; NOTES.md explains the
// choices.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "objects/database.h"
#include "university/university.h"
#include "util/status.h"

namespace perfbench {

using excess::Result;
using excess::Status;

// --- metrics ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics of BENCHMARK.json, in its order: end-to-end ones are printed
/// by untraced runs, per-layer ones by traced runs.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// The final stdout line:
///   {"correct": b, "attempted": n, "failed": n,
///    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
/// Fails when `values` lacks a metric of `defs` or holds a non-finite one.
Result<std::string> ResultLine(bool correct, int64_t attempted, int64_t failed,
                               const std::vector<MetricDef>& defs,
                               const std::map<std::string, double>& values);

// --- percentiles -------------------------------------------------------------

/// A percentile of a sample, in per mille (990 = p99), with the sample size.
struct Percentile {
  int permille = 0;
  double value = 0;
  size_t n = 0;
};

/// The highest per-mille rank from {999, 990, 950, 900, 750, 500} that is
/// not above `wanted` and leaves at least 10 of `n` samples beyond it (500
/// when none does). This is the rule for every reported tail.
int SupportedPermille(size_t n, int wanted);

/// Nearest-rank percentile of an ascending sample.
double NearestRank(const std::vector<double>& sorted, int permille);

/// Tail of `samples` at SupportedPermille(n, wanted).
Percentile Tail(std::vector<double> samples, int wanted);

/// Nearest-rank median (0 for an empty sample).
double Median(std::vector<double> samples);

// --- workloads ---------------------------------------------------------------

enum class WorkloadKind { kPointRead, kReadJoin, kWriteMix };

struct WorkloadSpec {
  WorkloadKind kind;
  std::string name;
  excess::UniversityParams fixture;
  std::string fixture_label;
  int readers = 0;      // closed-loop reader connections
  bool writer = false;  // one more connection running transaction groups
  int reader_think_us = 0;  // pause after each read before the next
  /// Run on the storage-open session before the server starts.
  std::vector<std::string> setup_statements;
  int setup_reps = 3;     // set-ups per run; setup_s is their median
  int replay_sample = 0;  // statements replayed in-process by a traced run
};

const std::vector<std::string>& WorkloadNames();
Result<WorkloadSpec> FindWorkload(const std::string& name);

enum class StmtClass {
  kPointLookup,  // (E.name, E.salary) by ssnum — an IDX_PROBE candidate
  kDeptNav,      // E.dept.name by ssnum — an IDX_PROBE candidate
  kTopTen,       // TopTen[i] array head
  kAdvisorJoin,  // students joined to their advisor by reference
  kGroupedJoin,  // §5 Example 1, grouped unique join by advisor name
};

struct Stmt {
  StmtClass cls;
  std::string text;
  int64_t key = 0;  // employee index, TopTen position, or template variant
};

/// True for the classes that select one employee by ssnum.
bool IsProbeClass(StmtClass cls);

/// One reader connection's statements: a pure function of (workload, seed,
/// client index, position).
class ReadStream {
 public:
  ReadStream(WorkloadKind kind, int num_employees, uint64_t seed, int client);
  Stmt Next();

 private:
  WorkloadKind kind_;
  int num_employees_;
  std::mt19937_64 rng_;
  std::vector<int64_t> deck_;  // read_join statements still to draw
};

/// The distinct read_join statements (templates × parameter values).
std::vector<std::string> JoinStatements();

/// The writer's i-th transaction group appends TxnValue(i) to Log and
/// commits under TxnToken(seed, i).
int64_t TxnValue(uint64_t i);
std::string TxnToken(uint64_t seed, uint64_t i);

// --- answers -----------------------------------------------------------------

/// Canonical form of a rendered value (Value::ToString): tuple fields in
/// name order, multiset members sorted with their counts merged. Two
/// renderings of equal answers have the same canonical form whatever order
/// the plan produced them in.
Result<std::string> Canonical(const std::string& rendered);

/// Expected answers, computed without the query pipeline under test.
class AnswerKey {
 public:
  /// Point statements: every employee and the TopTen array, read from the
  /// fixture through the object store (ssnum 100000+i is employee i).
  static Result<AnswerKey> FromFixture(const excess::Database& db);

  /// read_join statements: each distinct statement evaluated once by an
  /// in-process session with optimize = false on a fresh copy of the
  /// fixture.
  static Result<AnswerKey> FromUnoptimizedSession(
      const WorkloadSpec& spec, const std::vector<std::string>& statements);

  /// Canonical expected answer of `stmt`; empty when unknown.
  std::string Expected(const Stmt& stmt) const;
  /// True when `rendered` is a correct answer to `stmt`.
  bool Check(const Stmt& stmt, const std::string& rendered) const;

 private:
  struct Employee {
    std::string name;
    int64_t salary = 0;
    std::string dept;
  };
  std::vector<Employee> employees_;
  std::vector<int64_t> topten_;  // employee index per TopTen position
  std::map<std::string, std::string> by_text_;
};

// --- spans -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  const char* name;  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index in the same log, -1 for a root
  uint64_t stmt = 0;    // statement id shared by the spans of one statement
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
 public:
  int32_t Open(const char* name, uint64_t stmt, int32_t parent = -1);
  void Close(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Records a span over its scope; does nothing with a null log, so traced
/// and untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t stmt,
             int32_t parent = -1)
      : log_(log), id_(log ? log->Open(name, stmt, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

struct LayerTime {
  int64_t count = 0;
  int64_t self_ns = 0;  // duration minus the durations of child spans
};

/// Self time and count per span name over all logs.
std::map<std::string, LayerTime> SelfTimes(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line.
Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
