// In-memory spans: recorded per thread, folded into self times, written
// out once when the run ends.

#include <cstdio>

#include "perfbench.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Open(const char* name, uint64_t stmt, int32_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.stmt = stmt;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t id) { spans_[id].end_ns = NowNs(); }

std::map<std::string, LayerTime> SelfTimes(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTime> out;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      LayerTime& t = out[spans[i].name];
      ++t.count;
      t.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
    }
  }
  return out;
}

Status WriteSpans(const std::string& path,
                  const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Invalid("cannot write " + path);
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\": %zu, \"id\": %zu, \"parent\": %d, "
                   "\"name\": \"%s\", \"stmt\": %llu, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   t, i, s.parent, s.name,
                   static_cast<unsigned long long>(s.stmt),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) return Status::Invalid("cannot write " + path);
  return Status::OK();
}

}  // namespace perfbench
