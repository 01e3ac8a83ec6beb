// Metric names, the result line, and the percentile rule.

#include <algorithm>
#include <charconv>
#include <cmath>

#include "perfbench.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"stmts_per_s", "1/s"}, {"read_p50_ms", "ms"}, {"read_p99_ms", "ms"},
      {"txns_per_s", "1/s"},  {"txn_p50_ms", "ms"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"server.ping_us", "us"},
      {"server.exec_us", "us"},
      {"server.queue_wire_us", "us"},
      {"server.epoch_capture_us", "us"},
      {"server.epoch_materialize_us", "us"},
      {"server.refreshes_per_txn", "count"},
      {"excess.parse_us", "us"},
      {"excess.translate_us", "us"},
      {"excess.raw_plan_nodes", "count"},
      {"core.rewrite_us", "us"},
      {"core.rules_fired", "count"},
      {"core.plan_us", "us"},
      {"core.plan_alternatives", "count"},
      {"core.join_lowered_frac", "ratio"},
      {"core.index_probe_frac", "ratio"},
      {"core.eval_us", "us"},
      {"core.eval_occurrences", "count"},
      {"core.eval_derefs", "count"},
      {"core.eval_peak_bytes", "bytes"},
      {"objects.txn_snapshot_us", "us"},
      {"objects.deep_bytes_per_object", "bytes"},
      {"storage.wal_group_us", "us"},
      {"storage.wal_bytes_per_txn", "bytes"},
      {"storage.snapshot_bytes_per_object", "bytes"},
      {"storage.recovery_replayed", "count"},
  };
  return defs;
}

namespace {

/// Shortest decimal that reads back as exactly `v`.
std::string Number(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

Result<std::string> ResultLine(bool correct, int64_t attempted, int64_t failed,
                               const std::vector<MetricDef>& defs,
                               const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    if (it == values.end()) {
      return Status::Internal(std::string("metric not measured: ") +
                              defs[i].name);
    }
    if (!std::isfinite(it->second)) {
      return Status::Internal(std::string("metric not finite: ") +
                              defs[i].name);
    }
    if (i > 0) out += ", ";
    out += "\"";
    out += defs[i].name;
    out += "\": {\"value\": ";
    out += Number(it->second);
    out += ", \"unit\": \"";
    out += defs[i].unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

int SupportedPermille(size_t n, int wanted) {
  for (int pm : {999, 990, 950, 900, 750, 500}) {
    if (pm > wanted) continue;
    size_t rank = (static_cast<size_t>(pm) * n + 999) / 1000;  // ceil
    if (n >= rank + 10) return pm;
  }
  return 500;
}

double NearestRank(const std::vector<double>& sorted, int permille) {
  if (sorted.empty()) return 0;
  size_t rank = (static_cast<size_t>(permille) * sorted.size() + 999) / 1000;
  return sorted[std::max<size_t>(rank, 1) - 1];
}

Percentile Tail(std::vector<double> samples, int wanted) {
  std::sort(samples.begin(), samples.end());
  Percentile p;
  p.n = samples.size();
  p.permille = SupportedPermille(p.n, wanted);
  p.value = NearestRank(samples, p.permille);
  return p;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 500);
}

}  // namespace perfbench
