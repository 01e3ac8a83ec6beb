// perfbench: one closed-loop run of a workload against an in-process EXCESS
// server, driven over a private unix socket through the wire client.
//
//   perfbench --workload <point_read|read_join|write_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// The current directory must be private to the run: the fixture, the
// socket and the recovery copies are created in it. An untraced run prints
// the end-to-end metrics; a traced run prints the per-layer metrics, the
// span table, the reconciliation check and the tracing overhead. Either
// ends with one JSON line and exits nonzero when any answer was wrong.
// NOTES.md describes the workloads and the metrics.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "core/eval.h"
#include "core/governor.h"
#include "core/planner.h"
#include "core/rewriter.h"
#include "excess/parser.h"
#include "excess/session.h"
#include "methods/registry.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/epoch.h"
#include "server/server.h"
#include "storage/engine.h"
#include "util/fileio.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using excess::server::Client;
using excess::server::Response;
using excess::server::Server;
using excess::server::ServerOptions;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr double kWarmupS = 1.0;       // reader clones materialize here
constexpr uint32_t kDeadlineMs = 30'000;
constexpr int kPings = 500;
constexpr int kMicroReps = 5;          // repetitions of each in-process probe
constexpr int kWalGroups = 30;
/// Without a writer in the window, transactions are measured for this long
/// after it, on one connection, with the readers stopped.
constexpr double kTxnPhaseS = 4.0;
/// Replayed parse + translate + plan + eval self time must be within this
/// share of the whole-statement Session::Execute time.
constexpr double kReconcileTolerance = 0.15;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans = "spans.jsonl";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0 && a.seconds <= 60;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::Invalid("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      return Status::Invalid("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return Status::Invalid(
        "usage: perfbench --workload <name> --seed <n> --seconds <1..60> "
        "--trace <0|1> [--spans <path>]");
  }
  return a;
}

/// Unsets every inherited EXCESS_* knob so the run uses repository
/// defaults; returns the names it cleared.
std::vector<std::string> ClearExcessEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("EXCESS_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
  return names;
}

/// Cumulative steal and total CPU ticks of the host, from the first line of
/// /proc/stat; both 0 where it cannot be read.
struct HostCpu {
  int64_t steal = 0;
  int64_t total = 0;
};

HostCpu ReadHostCpu() {
  HostCpu c;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return c;
  // cpu user nice system idle iowait irq softirq steal ...
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (long long x : v) c.total += x;
    c.steal = v[7];
  }
  std::fclose(f);
  return c;
}

double PeakRssMb() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

const char* ClassName(StmtClass cls) {
  switch (cls) {
    case StmtClass::kPointLookup: return "point_lookup";
    case StmtClass::kDeptNav: return "dept_nav";
    case StmtClass::kTopTen: return "topten";
    case StmtClass::kAdvisorJoin: return "advisor_join";
    case StmtClass::kGroupedJoin: return "grouped_join";
  }
  return "?";
}

std::string StealLabel(double frac) {
  if (frac < 0) return "unknown";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f %%", frac * 100);
  return buf;
}

std::string PercentileLabel(int permille) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", permille / 10.0);
  return buf;
}

excess::Session::Options InProcessOptions() {
  excess::Session::Options o;
  o.env_autoopen = false;
  return o;
}

/// A database opened from files, as a recovering process would.
struct Replica {
  excess::Database db;
  excess::MethodRegistry methods{&db.catalog()};
  excess::Session session{&db, &methods, InProcessOptions()};
};

// --- set-up --------------------------------------------------------------------

struct Served {
  std::unique_ptr<Server> server;
  std::string dir;
  std::string db_path;
  std::string sock;
};

/// One timed set-up: fixture build, storage open plus the workload's
/// statements, Server::Start, and a first answered ping. When `key` is
/// non-null it receives the point-answer key read from the built fixture;
/// that read is not counted in `seconds`.
Result<Served> SetUp(const WorkloadSpec& w, const std::string& dir,
                     double* seconds, std::optional<AnswerKey>* key) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Served s;
  s.dir = dir;
  s.db_path = dir + "/fixture.exdb";
  s.sock = dir + "/srv.sock";  // relative: far below the sun_path limit
  const auto t0 = Clock::now();
  double excluded = 0;
  {
    excess::Database db;
    EXA_RETURN_NOT_OK(excess::BuildUniversity(&db, w.fixture));
    if (key != nullptr) {
      const auto t = Clock::now();
      EXA_ASSIGN_OR_RETURN(*key, AnswerKey::FromFixture(db));
      excluded += Since(t);
    }
    excess::MethodRegistry methods(&db.catalog());
    excess::Session session(&db, &methods, InProcessOptions());
    EXA_RETURN_NOT_OK(session.OpenStorage(s.db_path));
    for (const auto& stmt : w.setup_statements) {
      EXA_RETURN_NOT_OK(session.Execute(stmt).status());
    }
  }
  ServerOptions opts;
  opts.unix_path = s.sock;
  opts.db_path = s.db_path;
  s.server = std::make_unique<Server>(opts);
  EXA_RETURN_NOT_OK(s.server->Start());
  EXA_ASSIGN_OR_RETURN(Client client, Client::ConnectUnix(s.sock));
  EXA_ASSIGN_OR_RETURN(Response pong, client.Ping());
  if (pong.code != excess::StatusCode::kOk) {
    return Status::Internal("first ping failed: " + pong.message);
  }
  *seconds = Since(t0) - excluded;
  return s;
}

/// Copies the existing `files` into `dir` and flushes them and the
/// directory, so a timed recovery reads files already on disk, as a
/// restarted process does, instead of also writing the copy out.
Status CopyDurably(const std::vector<std::string>& files,
                   const std::string& dir) {
  fs::create_directories(dir);
  for (const auto& from : files) {
    if (!fs::exists(from)) continue;
    EXA_ASSIGN_OR_RETURN(std::string bytes, excess::util::ReadFile(from));
    EXA_RETURN_NOT_OK(excess::util::WriteFileAtomic(
        dir + "/" + fs::path(from).filename().string(), bytes, /*sync=*/true));
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Invalid("cannot open " + dir);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced ? Status::OK() : Status::Invalid("cannot fsync " + dir);
}

// --- closed-loop phase -----------------------------------------------------------

struct Ctx {
  std::string sock;
  uint64_t seed = 0;
  const AnswerKey* key = nullptr;
  std::chrono::microseconds think{0};
  Clock::time_point start;  // measurement window; earlier sends warm up
  Clock::time_point end;
};

struct ReadSample {
  double at_s;  // send time, seconds into the window
  double ms;    // send to response
  StmtClass cls;
};

/// What one phase measured. Latencies and counts cover statements sent
/// inside the window; attempted/failed cover the whole phase.
struct PhaseResult {
  std::vector<ReadSample> reads;
  std::vector<double> ok_at_s;  // send time of every OK statement
  std::vector<double> txn_ms;
  double stmt_us_sum = 0;  // client latency of every OK statement
  int64_t txns = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> wrong;
  double window_s = 0;
  // Server-side deltas over the window.
  int64_t exec_count = 0;
  int64_t exec_sum_us = 0;
  int64_t refreshes = 0;
  int64_t wal_bytes = 0;
  double steal_frac = -1;  // host steal time share, -1 when unknown

  void Fail(const std::string& what) {
    ++failed;
    if (wrong.size() < 5) wrong.push_back(what);
  }
  void Merge(PhaseResult&& o) {
    reads.insert(reads.end(), o.reads.begin(), o.reads.end());
    ok_at_s.insert(ok_at_s.end(), o.ok_at_s.begin(), o.ok_at_s.end());
    txn_ms.insert(txn_ms.end(), o.txn_ms.begin(), o.txn_ms.end());
    stmt_us_sum += o.stmt_us_sum;
    txns += o.txns;
    attempted += o.attempted;
    failed += o.failed;
    for (auto& w : o.wrong) {
      if (wrong.size() < 5) wrong.push_back(std::move(w));
    }
  }
};

/// A phase's reported statistics, each the median over k parts of the
/// window, k = reads / 1000 clamped to [1, 5]: throughput over k equal time
/// slices, latencies over k consecutive runs of equally many reads (so
/// every part supports p99). A passing stall of the machine moves at most
/// one part.
struct Summary {
  double stmts_per_s = 0;
  double read_p50_ms = 0;
  double read_tail_ms = 0;
  int tail_permille = 0;  // lowest rank the parts supported
  int parts = 0;
  size_t reads_per_part = 0;
};

Summary Summarize(const PhaseResult& p) {
  Summary s;
  s.parts = static_cast<int>(std::clamp<size_t>(p.reads.size() / 1000, 1, 5));
  const double len = p.window_s / s.parts;
  std::vector<double> rates;
  for (int w = 0; w < s.parts; ++w) {
    const double lo = w * len, hi = (w + 1) * len;
    const bool last = w + 1 == s.parts;
    rates.push_back(static_cast<double>(std::count_if(
                        p.ok_at_s.begin(), p.ok_at_s.end(),
                        [&](double t) { return t >= lo && (t < hi || last); })) /
                    len);
  }
  std::vector<ReadSample> reads = p.reads;
  std::sort(reads.begin(), reads.end(),
            [](const ReadSample& a, const ReadSample& b) {
              return a.at_s < b.at_s;
            });
  s.reads_per_part = reads.size() / s.parts;
  std::vector<double> p50s, tails;
  s.tail_permille = 999;
  for (int w = 0; w < s.parts; ++w) {
    const size_t lo = w * s.reads_per_part;
    const size_t hi = w + 1 == s.parts ? reads.size() : lo + s.reads_per_part;
    std::vector<double> ms;
    for (size_t i = lo; i < hi; ++i) ms.push_back(reads[i].ms);
    p50s.push_back(Median(ms));
    const Percentile tail = Tail(ms, 990);
    tails.push_back(tail.value);
    s.tail_permille = std::min(s.tail_permille, tail.permille);
  }
  s.stmts_per_s = Median(rates);
  s.read_p50_ms = Median(p50s);
  s.read_tail_ms = Median(tails);
  return s;
}

/// The writer's position in its transaction sequence, kept across phases.
struct WriterState {
  uint64_t next = 0;
  std::vector<int64_t> acked;
};

std::string Describe(const std::string& text, const Result<Response>& r) {
  if (!r.ok()) return text + " -> transport: " + r.status().ToString();
  if (r->code != excess::StatusCode::kOk) {
    return text + " -> " + excess::StatusCodeToString(r->code) + ": " +
           r->message;
  }
  return text + " -> wrong answer: " + r->result.substr(0, 200);
}

void RunReader(const Ctx& ctx, ReadStream* stream, uint64_t client_tag,
               SpanLog* log, PhaseResult* out) {
  auto client = Client::ConnectUnix(ctx.sock, kDeadlineMs);
  if (!client.ok()) {
    out->Fail("connect: " + client.status().ToString());
    return;
  }
  for (uint64_t seq = 0;; ++seq) {
    const auto sent = Clock::now();
    if (sent >= ctx.end) break;
    const Stmt stmt = stream->Next();
    Result<Response> r = [&] {
      ScopedSpan span(log, "client.execute", client_tag | seq);
      return client->Execute(stmt.text, kDeadlineMs);
    }();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
    ++out->attempted;
    if (!r.ok() || r->code != excess::StatusCode::kOk ||
        !ctx.key->Check(stmt, r->result)) {
      out->Fail(Describe(stmt.text, r));
      if (!r.ok()) return;
      continue;
    }
    if (sent >= ctx.start) {
      const double at_s = std::chrono::duration<double>(sent - ctx.start).count();
      out->reads.push_back({at_s, ms, stmt.cls});
      out->ok_at_s.push_back(at_s);
      out->stmt_us_sum += ms * 1000;
    }
    if (ctx.think.count() > 0) std::this_thread::sleep_for(ctx.think);
  }
}

void RunWriter(const Ctx& ctx, WriterState* state, uint64_t client_tag,
               SpanLog* log, PhaseResult* out) {
  auto client = Client::ConnectUnix(ctx.sock, kDeadlineMs);
  if (!client.ok()) {
    out->Fail("connect: " + client.status().ToString());
    return;
  }
  uint64_t seq = 0;
  while (Clock::now() < ctx.end) {
    const uint64_t i = state->next++;
    const int64_t value = TxnValue(i);
    const auto begun = Clock::now();
    const bool counted = begun >= ctx.start;
    auto step = [&](const std::string& text, const std::string& token) {
      const auto sent = Clock::now();
      Result<Response> r = [&] {
        ScopedSpan span(log, "client.execute", client_tag | seq++);
        return client->Execute(text, kDeadlineMs, 0, 0, token);
      }();
      ++out->attempted;
      if (!r.ok() || r->code != excess::StatusCode::kOk) {
        out->Fail(Describe(text, r));
        return false;
      }
      if (counted) {
        out->stmt_us_sum +=
            std::chrono::duration<double, std::micro>(Clock::now() - sent)
                .count();
        out->ok_at_s.push_back(
            std::chrono::duration<double>(sent - ctx.start).count());
      }
      return true;
    };
    // A failed step leaves the group open; closing the connection makes
    // the server reap it, so its value is never acknowledged.
    if (!step("begin", "") ||
        !step("append " + std::to_string(value) + " to Log", "") ||
        !step("commit", TxnToken(ctx.seed, i))) {
      return;
    }
    state->acked.push_back(value);
    if (counted) {
      out->txn_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - begun)
              .count());
      ++out->txns;
    }
  }
}

struct ServerCounters {
  int64_t exec_count = 0;
  int64_t exec_sum_us = 0;
  int64_t refreshes = 0;
  int64_t wal_bytes = 0;
};

ServerCounters ReadServerCounters(const std::string& wal_path) {
  auto& reg = excess::obs::MetricsRegistry::Global();
  ServerCounters c;
  auto* exec = reg.GetHistogram("server.exec_us");
  c.exec_count = exec->count();
  c.exec_sum_us = exec->sum();
  c.refreshes = reg.GetCounter("server.epoch.refreshes")->value();
  std::error_code ec;
  auto size = fs::file_size(wal_path, ec);
  c.wal_bytes = ec ? 0 : static_cast<int64_t>(size);
  return c;
}

/// Runs every connection for a warm-up plus `seconds`; with `logs` set,
/// each connection records its spans into a fresh log appended there.
PhaseResult RunPhase(Ctx ctx, std::vector<ReadStream>* streams,
                     WriterState* writer, const std::string& wal_path,
                     double seconds,
                     std::vector<std::unique_ptr<SpanLog>>* logs) {
  ctx.start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kWarmupS));
  ctx.end = ctx.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  const size_t n = streams->size() + (writer != nullptr ? 1 : 0);
  std::vector<PhaseResult> outs(n);
  std::vector<SpanLog*> span_logs(n, nullptr);
  if (logs != nullptr) {
    for (size_t c = 0; c < n; ++c) {
      logs->push_back(std::make_unique<SpanLog>());
      span_logs[c] = logs->back().get();
    }
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    const uint64_t tag = static_cast<uint64_t>(c + 1) << 40;
    if (writer != nullptr && c == 0) {
      threads.emplace_back(RunWriter, std::cref(ctx), writer, tag,
                           span_logs[c], &outs[c]);
    } else {
      ReadStream* stream = &(*streams)[c - (writer != nullptr ? 1 : 0)];
      threads.emplace_back(RunReader, std::cref(ctx), stream, tag,
                           span_logs[c], &outs[c]);
    }
  }
  std::this_thread::sleep_until(ctx.start);
  const ServerCounters before = ReadServerCounters(wal_path);
  const HostCpu cpu_before = ReadHostCpu();
  std::this_thread::sleep_until(ctx.end);
  const ServerCounters after = ReadServerCounters(wal_path);
  const HostCpu cpu_after = ReadHostCpu();
  for (auto& t : threads) t.join();
  PhaseResult r;
  for (auto& o : outs) r.Merge(std::move(o));
  r.window_s = seconds;
  r.exec_count = after.exec_count - before.exec_count;
  r.exec_sum_us = after.exec_sum_us - before.exec_sum_us;
  r.refreshes = after.refreshes - before.refreshes;
  r.wal_bytes = after.wal_bytes - before.wal_bytes;
  if (cpu_after.total > cpu_before.total) {
    r.steal_frac = static_cast<double>(cpu_after.steal - cpu_before.steal) /
                   static_cast<double>(cpu_after.total - cpu_before.total);
  }
  return r;
}

// --- traced-run probes -----------------------------------------------------------

Result<double> PingMedianUs(const std::string& sock, SpanLog* log) {
  EXA_ASSIGN_OR_RETURN(Client client, Client::ConnectUnix(sock, kDeadlineMs));
  std::vector<double> us;
  for (int i = 0; i < kPings; ++i) {
    const auto t0 = Clock::now();
    Result<Response> r = [&] {
      ScopedSpan span(log, "client.ping", static_cast<uint64_t>(i));
      return client.Ping();
    }();
    if (!r.ok() || r->code != excess::StatusCode::kOk) {
      return Status::Internal("ping failed");
    }
    us.push_back(Since(t0) * 1e6);
  }
  return Median(us);
}

bool Contains(const excess::ExprPtr& e, excess::OpKind kind) {
  if (e == nullptr) return false;
  if (e->kind() == kind) return true;
  for (const auto& c : e->children()) {
    if (Contains(c, kind)) return true;
  }
  return Contains(e->sub(), kind);
}

struct ReplayResult {
  int n = 0;
  int64_t failed = 0;
  double raw_nodes = 0;
  double rules_fired = 0;
  double alternatives = 0;
  double occurrences = 0;
  double derefs = 0;
  double peak_bytes = 0;
  int joins = 0;
  int joins_lowered = 0;
  int probes = 0;
  int probes_indexed = 0;
};

/// Replays a seeded sample of the workload's read statements on `rep`,
/// one public call per layer, each under a span of the layer's name.
/// replay.statement spans parse + translate + plan + eval; the same
/// statement then runs whole as session.execute for the reconciliation.
Result<ReplayResult> Replay(Replica* rep, const WorkloadSpec& w,
                            uint64_t seed, const AnswerKey& key,
                            SpanLog* log) {
  const int first_reader = w.writer ? 1 : 0;
  std::vector<ReadStream> streams;
  for (int c = 0; c < w.readers; ++c) {
    streams.emplace_back(w.kind, w.fixture.num_employees, seed,
                         first_reader + c);
  }
  ReplayResult out;
  for (int k = 0; k < w.replay_sample; ++k) {
    const Stmt stmt = streams[k % streams.size()].Next();
    const uint64_t id = static_cast<uint64_t>(k);
    // Warm once: first-touch allocations and REF interning.
    EXA_RETURN_NOT_OK(rep->session.Execute(stmt.text).status());

    const int32_t root = log->Open("replay.statement", id);
    auto parsed = [&] {
      ScopedSpan s(log, "excess.parse", id, root);
      return excess::ParseStatement(stmt.text);
    }();
    if (!parsed.ok()) return parsed.status();
    if (parsed->retrieve == nullptr) return Status::Invalid("not a retrieve");
    auto raw = [&] {
      ScopedSpan s(log, "excess.translate", id, root);
      return rep->session.translator().TranslateRetrieve(
          *parsed->retrieve, rep->session.ranges());
    }();
    if (!raw.ok()) return raw.status();
    auto plan = [&] {
      ScopedSpan s(log, "core.plan", id, root);
      excess::Planner planner(&rep->db);
      return planner.Optimize(*raw);
    }();
    if (!plan.ok()) return plan.status();
    excess::EvalStats stats;
    auto result = [&] {
      ScopedSpan s(log, "core.eval", id, root);
      excess::Evaluator ev(&rep->db, &rep->methods);
      excess::Governor governor(excess::ExecLimits::FromEnv());
      ev.set_governor(&governor);
      auto r = ev.Eval(*plan);
      stats = ev.stats();
      return r;
    }();
    log->Close(root);
    if (!result.ok()) return result.status();

    {
      ScopedSpan s(log, "session.execute", id);
      EXA_RETURN_NOT_OK(rep->session.Execute(stmt.text).status());
    }
    {
      ScopedSpan s(log, "core.rewrite", id);
      excess::Rewriter rewriter(&rep->db, excess::RuleSet::Heuristic());
      EXA_RETURN_NOT_OK(rewriter.Rewrite(*raw).status());
      out.rules_fired += static_cast<double>(rewriter.applied().size());
    }
    {
      ScopedSpan s(log, "core.enumerate", id);
      excess::Planner planner(&rep->db);
      EXA_ASSIGN_OR_RETURN(auto alternatives, planner.Enumerate(*raw));
      out.alternatives += static_cast<double>(alternatives.size());
    }

    ++out.n;
    if (!key.Check(stmt, (*result)->ToString())) ++out.failed;
    out.raw_nodes += static_cast<double>((*raw)->NodeCount());
    out.occurrences += static_cast<double>(stats.TotalOccurrences());
    out.derefs += static_cast<double>(stats.derefs);
    out.peak_bytes += static_cast<double>(stats.peak_bytes);
    if (Contains(*raw, excess::OpKind::kCross)) {
      ++out.joins;
      if (Contains(*plan, excess::OpKind::kHashJoin) ||
          Contains(*plan, excess::OpKind::kIndexJoin)) {
        ++out.joins_lowered;
      }
    }
    if (IsProbeClass(stmt.cls)) {
      ++out.probes;
      if (Contains(*plan, excess::OpKind::kIndexProbe)) ++out.probes_indexed;
    }
  }
  return out;
}

/// Median microseconds of `reps` calls to `timed`; `untimed` runs after each
/// call (to drop what it built) outside the measurement.
double MedianUs(int reps, const std::function<void()>& timed,
                const std::function<void()>& untimed) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    timed();
    us.push_back(Since(t0) * 1e6);
    untimed();
  }
  return Median(us);
}

/// The object, epoch and storage probes a traced run takes on the replica.
Result<std::map<std::string, double>> ProbeState(Replica* rep,
                                                 const std::string& dir) {
  std::map<std::string, double> m;
  const excess::Database& db = rep->db;
  std::optional<excess::Database::TxnSnapshot> txn;
  m["objects.txn_snapshot_us"] = MedianUs(
      kMicroReps, [&] { txn = db.CaptureTxnSnapshot(); }, [&] { txn.reset(); });

  std::shared_ptr<const excess::server::EpochSnapshot> epoch;
  m["server.epoch_capture_us"] = MedianUs(
      kMicroReps,
      [&] {
        epoch = excess::server::CaptureEpoch(1, db, rep->session, rep->methods);
      },
      [] {});
  std::unique_ptr<Replica> clone;
  Status materialized;
  m["server.epoch_materialize_us"] = MedianUs(
      kMicroReps,
      [&] {
        clone = std::make_unique<Replica>();
        std::vector<std::pair<std::string, excess::ExprAstPtr>> ranges;
        materialized = excess::server::MaterializeEpoch(
            *epoch, &clone->db, &clone->methods, &ranges);
      },
      [&] { clone.reset(); });
  EXA_RETURN_NOT_OK(materialized);

  const auto dump = db.store().Dump();
  double deep = 0;
  for (const auto& obj : dump.objects) {
    deep += static_cast<double>(obj.value->DeepSizeBytes());
  }
  m["objects.deep_bytes_per_object"] =
      deep / static_cast<double>(std::max<size_t>(dump.objects.size(), 1));

  // A scratch engine with the repository's default flush policy logs the
  // same group a wire transaction commits.
  excess::Database empty;
  EXA_ASSIGN_OR_RETURN(
      auto opened, excess::storage::StorageEngine::Open(
                       dir + "/scratch.exdb", &empty, {},
                       excess::storage::StorageOptions()));
  std::vector<double> group_us;
  for (int i = 0; i < kWalGroups; ++i) {
    std::vector<excess::storage::StagedStatement> group = {
        {"append " + std::to_string(TxnValue(i)) + " to Log", true, false}};
    const auto t0 = Clock::now();
    EXA_RETURN_NOT_OK(
        opened.engine->LogCommitGroup(group, "scratch-" + std::to_string(i)));
    group_us.push_back(Since(t0) * 1e6);
  }
  m["storage.wal_group_us"] = Median(group_us);
  return m;
}

// --- reporting -------------------------------------------------------------------

void PrintRow(const std::string& name, double value, const std::string& unit,
              size_t samples, const std::string& note = "") {
  std::printf("  %-34s %14.6g %-6s %9zu  %s\n", name.c_str(), value,
              unit.c_str(), samples, note.c_str());
}

void PrintHeader() {
  std::printf("  %-34s %14s %-6s %9s  %s\n", "metric", "value", "unit",
              "samples", "note");
}

// --- the run ---------------------------------------------------------------------

int Run(const Args& args) {
  const std::vector<std::string> cleared = ClearExcessEnv();
  auto spec_or = FindWorkload(args.workload);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec w = *spec_or;
  const int connections = w.readers + (w.writer ? 1 : 0);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("  build type %s, nproc %u, fixture %s\n", PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), w.fixture_label.c_str());
  std::printf("  closed loop: %d connection(s), %d reader(s)%s, one request "
              "in flight each, reader pause %d us, %.1f s warm-up\n",
              connections, w.readers, w.writer ? " + 1 writer" : "",
              w.reader_think_us, kWarmupS);
  const excess::storage::StorageOptions flush;
  std::printf("  flush policy: WAL fsync %s, group commit %s (repository "
              "defaults)\n",
              flush.fsync ? "on" : "off", flush.group_commit ? "on" : "off");
  std::string cleared_list;
  for (const auto& n : cleared) cleared_list += " " + n;
  std::printf("  cleared environment:%s\n",
              cleared_list.empty() ? " (none set)" : cleared_list.c_str());
  std::fflush(stdout);

  auto fail = [](const Status& st) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  };

  // read_join's answers come from an unoptimized session; not set-up time.
  std::optional<AnswerKey> key;
  if (w.kind == WorkloadKind::kReadJoin) {
    auto k = AnswerKey::FromUnoptimizedSession(w, JoinStatements());
    if (!k.ok()) return fail(k.status());
    key = std::move(*k);
  }

  const int setup_reps = args.trace ? 1 : w.setup_reps;
  std::vector<double> setup_times;
  Served served;
  for (int r = 0; r < setup_reps; ++r) {
    const bool last = r + 1 == setup_reps;
    double s = 0;
    auto cur = SetUp(w, "setup" + std::to_string(r), &s,
                     last && !key.has_value() ? &key : nullptr);
    if (!cur.ok()) return fail(cur.status());
    setup_times.push_back(s);
    if (last) {
      served = std::move(*cur);
    } else {
      cur->server->Shutdown();
      cur->server.reset();
      fs::remove_all(cur->dir);
    }
  }

  Ctx ctx;
  ctx.sock = served.sock;
  ctx.seed = args.seed;
  ctx.key = &*key;
  ctx.think = std::chrono::microseconds(w.reader_think_us);
  std::vector<ReadStream> streams;
  for (int c = 0; c < w.readers; ++c) {
    streams.emplace_back(w.kind, w.fixture.num_employees, args.seed,
                         (w.writer ? 1 : 0) + c);
  }
  WriterState writer;
  WriterState* writer_ptr = w.writer ? &writer : nullptr;
  const std::string wal_path = served.db_path + ".wal";

  PhaseResult main_phase =
      RunPhase(ctx, &streams, writer_ptr, wal_path, args.seconds, nullptr);
  // Peak memory of set-up and the measured window only: what the write
  // phase and recovery add depends on how many groups committed in them.
  const double peak_rss_mb = PeakRssMb();
  PhaseResult txn_phase;
  if (!args.trace && !w.writer) {
    std::vector<ReadStream> no_readers;
    txn_phase =
        RunPhase(ctx, &no_readers, &writer, wal_path, kTxnPhaseS, nullptr);
  }
  const PhaseResult& txns = w.writer ? main_phase : txn_phase;
  std::vector<std::unique_ptr<SpanLog>> logs;
  PhaseResult traced;
  double ping_us = 0;
  if (args.trace) {
    traced = RunPhase(ctx, &streams, writer_ptr, wal_path, args.seconds, &logs);
    logs.push_back(std::make_unique<SpanLog>());
    auto ping = PingMedianUs(served.sock, logs.back().get());
    if (!ping.ok()) return fail(ping.status());
    ping_us = *ping;
  }

  // A copy of the database files after the last acknowledged commit.
  const std::string recovery_dir = "recover";
  Status copied = CopyDurably({served.db_path, wal_path}, recovery_dir);
  if (!copied.ok()) return fail(copied);
  const double snapshot_bytes =
      static_cast<double>(fs::file_size(served.db_path));
  served.server->Shutdown();
  served.server.reset();

  const auto recovery_start = Clock::now();
  auto replica = std::make_unique<Replica>();
  Status recovered =
      replica->session.OpenStorage(recovery_dir + "/fixture.exdb");
  const double recovery_s = Since(recovery_start);
  if (!recovered.ok()) return fail(recovered);

  // Exactly-once: each acknowledged value once, nothing else in Log.
  int64_t exactly_once_violations = 0;
  auto log_value = replica->db.NamedValue("Log");
  if (!log_value.ok()) return fail(log_value.status());
  for (int64_t v : writer.acked) {
    if ((*log_value)->CountOf(excess::Value::Int(v)) != 1) {
      ++exactly_once_violations;
    }
  }
  const int64_t extra = (*log_value)->TotalCount() -
                        static_cast<int64_t>(writer.acked.size());
  exactly_once_violations += std::max<int64_t>(extra, 0);
  std::printf("  exactly-once on the recovery copy: %zu acked groups, "
              "%" PRId64 " violation(s)\n",
              writer.acked.size(), exactly_once_violations);

  int64_t attempted =
      main_phase.attempted + txn_phase.attempted + traced.attempted;
  int64_t failed = main_phase.failed + txn_phase.failed + traced.failed +
                   exactly_once_violations;
  for (const auto* p : {&main_phase, &txn_phase, &traced}) {
    for (const auto& what : p->wrong) {
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }

  std::map<std::string, double> values;
  const std::vector<MetricDef>* defs = &EndToEndMetrics();
  if (!args.trace) {
    const PhaseResult& p = main_phase;
    const Summary sum = Summarize(p);
    values["stmts_per_s"] = sum.stmts_per_s;
    values["read_p50_ms"] = sum.read_p50_ms;
    values["read_p99_ms"] = sum.read_tail_ms;
    values["txns_per_s"] = static_cast<double>(txns.txns) / txns.window_s;
    values["txn_p50_ms"] = Median(txns.txn_ms);
    values["setup_s"] = Median(setup_times);
    values["peak_rss_mb"] = peak_rss_mb;
    std::printf("end-to-end (%.1f s window; medians over %d part(s) of "
                "%zu reads; host steal time %s):\n",
                p.window_s, sum.parts, sum.reads_per_part,
                StealLabel(p.steal_frac).c_str());
    PrintHeader();
    PrintRow("stmts_per_s", values["stmts_per_s"], "1/s",
             p.ok_at_s.size(),
             "OK statements, all connections");
    PrintRow("read_p50_ms", values["read_p50_ms"], "ms", p.reads.size(),
             "send to response");
    PrintRow("read_p99_ms", values["read_p99_ms"], "ms", p.reads.size(),
             PercentileLabel(sum.tail_permille) +
                 " (highest with >=10 samples beyond)");
    const std::string txn_where =
        w.writer ? "in the window"
                 : "write phase after the window (" +
                       std::to_string(static_cast<int>(kTxnPhaseS)) +
                       " s, readers stopped, host steal time " +
                       StealLabel(txns.steal_frac) + ")";
    const Percentile txn_tail = Tail(txns.txn_ms, 900);
    PrintRow("txns_per_s", values["txns_per_s"], "1/s",
             static_cast<size_t>(txns.txns), "committed groups, " + txn_where);
    PrintRow("txn_p50_ms", values["txn_p50_ms"], "ms", txns.txn_ms.size(),
             "begin sent to commit ack");
    PrintRow("txn_p90_ms", txn_tail.value, "ms", txn_tail.n,
             PercentileLabel(txn_tail.permille) + " (not in BENCHMARK.json)");
    for (StmtClass cls : {StmtClass::kPointLookup, StmtClass::kDeptNav,
                          StmtClass::kTopTen, StmtClass::kAdvisorJoin,
                          StmtClass::kGroupedJoin}) {
      std::vector<double> ms;
      for (const auto& r : p.reads) {
        if (r.cls == cls) ms.push_back(r.ms);
      }
      if (ms.empty()) continue;
      const Percentile tail = Tail(ms, 990);
      std::printf("    class %-13s %7zu reads, p50 %.4f ms, %s %.4f ms\n",
                  ClassName(cls), ms.size(), Median(ms),
                  PercentileLabel(tail.permille).c_str(), tail.value);
    }
    PrintRow("failed_frac",
             attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
             "ratio", static_cast<size_t>(attempted),
             "failed / attempted (also the result line's counts)");
    PrintRow("setup_s", values["setup_s"], "s", setup_times.size(),
             "median of set-ups");
    PrintRow("peak_rss_mb", values["peak_rss_mb"], "MB", 1,
             "getrusage ru_maxrss at the end of the window");
    PrintRow("recovery_s", recovery_s, "s", 1,
             "OpenStorage on a copy (not in BENCHMARK.json)");
  } else {
    logs.push_back(std::make_unique<SpanLog>());
    SpanLog* replay_log = logs.back().get();
    auto replay = Replay(replica.get(), w, args.seed, *key, replay_log);
    if (!replay.ok()) return fail(replay.status());
    auto probes = ProbeState(replica.get(), recovery_dir);
    if (!probes.ok()) return fail(probes.status());
    attempted += replay->n;
    failed += replay->failed;
    values = *probes;
    std::map<std::string, size_t> samples;
    const size_t objects = replica->db.store().size();
    for (const char* name : {"objects.txn_snapshot_us",
                             "server.epoch_capture_us",
                             "server.epoch_materialize_us"}) {
      samples[name] = kMicroReps;
    }
    samples["objects.deep_bytes_per_object"] = objects;
    samples["storage.wal_group_us"] = kWalGroups;

    std::vector<const SpanLog*> all;
    for (const auto& l : logs) all.push_back(l.get());
    const auto self = SelfTimes(all);
    const auto self_us = [&](const char* name) {
      auto it = self.find(name);
      if (it == self.end() || it->second.count == 0) return 0.0;
      return static_cast<double>(it->second.self_ns) / 1e3 /
             static_cast<double>(it->second.count);
    };
    const auto total_ns = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : static_cast<double>(it->second.self_ns);
    };
    const double n = std::max(replay->n, 1);
    const PhaseResult& p = traced;
    const double exec_mean =
        p.exec_count > 0 ? static_cast<double>(p.exec_sum_us) / p.exec_count
                         : 0;
    const double client_mean =
        p.ok_at_s.empty() ? 0 : p.stmt_us_sum / p.ok_at_s.size();
    values["server.ping_us"] = ping_us;
    samples["server.ping_us"] = kPings;
    values["server.exec_us"] = exec_mean;
    samples["server.exec_us"] = static_cast<size_t>(p.exec_count);
    values["server.queue_wire_us"] = client_mean - exec_mean;
    samples["server.queue_wire_us"] = p.ok_at_s.size();
    values["server.refreshes_per_txn"] =
        p.txns > 0 ? static_cast<double>(p.refreshes) / p.txns : 0;
    samples["server.refreshes_per_txn"] = static_cast<size_t>(p.txns);
    for (const char* name :
         {"excess.parse_us", "excess.translate_us", "excess.raw_plan_nodes",
          "core.rewrite_us", "core.rules_fired", "core.plan_us",
          "core.plan_alternatives", "core.eval_us", "core.eval_occurrences",
          "core.eval_derefs", "core.eval_peak_bytes"}) {
      samples[name] = static_cast<size_t>(replay->n);
    }
    values["excess.parse_us"] = self_us("excess.parse");
    values["excess.translate_us"] = self_us("excess.translate");
    values["excess.raw_plan_nodes"] = replay->raw_nodes / n;
    values["core.rewrite_us"] = self_us("core.rewrite");
    values["core.rules_fired"] = replay->rules_fired / n;
    values["core.plan_us"] = self_us("core.plan");
    values["core.plan_alternatives"] = replay->alternatives / n;
    values["core.join_lowered_frac"] =
        replay->joins > 0
            ? static_cast<double>(replay->joins_lowered) / replay->joins
            : 0;
    samples["core.join_lowered_frac"] = static_cast<size_t>(replay->joins);
    values["core.index_probe_frac"] =
        replay->probes > 0
            ? static_cast<double>(replay->probes_indexed) / replay->probes
            : 0;
    samples["core.index_probe_frac"] = static_cast<size_t>(replay->probes);
    values["core.eval_us"] = self_us("core.eval");
    values["core.eval_occurrences"] = replay->occurrences / n;
    values["core.eval_derefs"] = replay->derefs / n;
    values["core.eval_peak_bytes"] = replay->peak_bytes / n;
    values["storage.wal_bytes_per_txn"] =
        p.txns > 0 ? static_cast<double>(p.wal_bytes) / p.txns : 0;
    samples["storage.wal_bytes_per_txn"] = static_cast<size_t>(p.txns);
    values["storage.snapshot_bytes_per_object"] =
        snapshot_bytes / static_cast<double>(std::max<size_t>(objects, 1));
    samples["storage.snapshot_bytes_per_object"] = objects;
    values["storage.recovery_replayed"] =
        static_cast<double>(replica->session.last_recovery().replayed);
    samples["storage.recovery_replayed"] = 1;

    std::printf("spans (self time = duration minus child spans):\n");
    std::printf("  %-20s %9s %14s %14s\n", "span", "count", "self ms",
                "mean self us");
    for (const auto& [name, t] : self) {
      std::printf("  %-20s %9" PRId64 " %14.3f %14.3f\n", name.c_str(),
                  t.count, static_cast<double>(t.self_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e3 /
                      static_cast<double>(std::max<int64_t>(t.count, 1)));
    }
    std::printf("per-layer (wire: %.1f s traced window; replay: %d "
                "statements on a recovered replica):\n",
                p.window_s, replay->n);
    PrintHeader();
    for (const auto& d : PerLayerMetrics()) {
      PrintRow(d.name, values[d.name], d.unit, samples[d.name]);
    }
    std::printf("  index-probe plans %d/%d, join plans lowered %d/%d\n",
                replay->probes_indexed, replay->probes, replay->joins_lowered,
                replay->joins);

    const double phases = total_ns("excess.parse") +
                          total_ns("excess.translate") +
                          total_ns("core.plan") + total_ns("core.eval");
    const double whole = total_ns("session.execute");
    const double gap = whole > 0 ? (phases - whole) / whole : 1;
    const bool reconciled = std::abs(gap) <= kReconcileTolerance;
    std::printf("reconciliation: parse+translate+plan+eval %.3f ms vs "
                "Session::Execute %.3f ms over %d statements: %+.1f%% "
                "(tolerance %.0f%%) %s\n",
                phases / 1e6, whole / 1e6, replay->n, gap * 100,
                kReconcileTolerance * 100, reconciled ? "PASS" : "FAIL");
    if (!reconciled) ++failed;

    const Summary base = Summarize(main_phase), with_spans = Summarize(p);
    const double base_rate = base.stmts_per_s;
    const double traced_rate = with_spans.stmts_per_s;
    const double base_p50 = base.read_p50_ms;
    const double traced_p50 = with_spans.read_p50_ms;
    std::printf("tracing overhead: stmts_per_s %.1f untraced vs %.1f traced "
                "(%+.1f%%), read_p50_ms %.4f vs %.4f (%+.1f%%); host steal "
                "time %s untraced, %s traced\n",
                base_rate, traced_rate,
                base_rate > 0 ? (traced_rate - base_rate) / base_rate * 100
                              : 0,
                base_p50, traced_p50,
                base_p50 > 0 ? (traced_p50 - base_p50) / base_p50 * 100 : 0,
                StealLabel(main_phase.steal_frac).c_str(),
                StealLabel(p.steal_frac).c_str());
    Status written = WriteSpans(args.spans, all);
    if (!written.ok()) return fail(written);
    std::printf("spans written to %s\n", args.spans.c_str());
    defs = &PerLayerMetrics();
  }

  const bool correct = failed == 0;
  std::printf("attempted %" PRId64 ", failed %" PRId64 "%s\n", attempted,
              failed, correct ? "" : " -- WRONG ANSWERS");
  auto line = ResultLine(correct, attempted, failed, *defs, values);
  if (!line.ok()) return fail(line.status());
  std::printf("%s\n", line->c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
