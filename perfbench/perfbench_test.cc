// The benchmark's own tests: the percentile rule, seeded streams, the
// answer checker, and agreement between the printed metric names and
// BENCHMARK.json.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "perfbench.h"

namespace perfbench {
namespace {

TEST(Percentile, TailLeavesTenSamplesBeyond) {
  EXPECT_EQ(SupportedPermille(1000, 990), 990);
  EXPECT_EQ(SupportedPermille(999, 990), 950);
  EXPECT_EQ(SupportedPermille(100, 900), 900);
  EXPECT_EQ(SupportedPermille(99, 900), 750);
  EXPECT_EQ(SupportedPermille(10000, 999), 999);
  EXPECT_EQ(SupportedPermille(5, 990), 500);

  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  Percentile p = Tail(samples, 990);
  EXPECT_EQ(p.permille, 990);
  EXPECT_EQ(p.n, 1000u);
  EXPECT_EQ(p.value, 990);
  samples.pop_back();  // 999 samples: p99 would leave only 9 beyond
  p = Tail(samples, 990);
  EXPECT_EQ(p.permille, 950);
  EXPECT_EQ(p.n, 999u);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(Streams, SameSeedSameStatements) {
  for (WorkloadKind kind :
       {WorkloadKind::kPointRead, WorkloadKind::kReadJoin}) {
    ReadStream a(kind, 20'000, 7, 2), b(kind, 20'000, 7, 2);
    ReadStream other_client(kind, 20'000, 7, 3), other_seed(kind, 20'000, 8, 2);
    bool client_differs = false, seed_differs = false;
    for (int i = 0; i < 200; ++i) {
      const Stmt s = a.Next();
      EXPECT_EQ(s.text, b.Next().text);
      client_differs |= s.text != other_client.Next().text;
      seed_differs |= s.text != other_seed.Next().text;
    }
    EXPECT_TRUE(client_differs);
    EXPECT_TRUE(seed_differs);
  }
  EXPECT_EQ(TxnToken(5, 3), TxnToken(5, 3));
  EXPECT_NE(TxnValue(3), TxnValue(4));
}

TEST(Answers, CanonicalFormIgnoresOrder) {
  EXPECT_EQ(*Canonical("{(b: 2, a: \"x\"), (a: \"y\", b: 1)}"),
            *Canonical("{(a: \"y\", b: 1), (a: \"x\", b: 2)}"));
  EXPECT_EQ(*Canonical("{1, 2, 1}"), *Canonical("{2, 1 x2}"));
  EXPECT_EQ(*Canonical("{{\"b\", \"a\"}, {}}"), "{{\"a\", \"b\"}, {}}");
  EXPECT_NE(*Canonical("[2, 1]"), *Canonical("[1, 2]"));
  EXPECT_EQ(*Canonical("Person(name: \"p\", ssnum: 1)"),
            "Person(name: \"p\", ssnum: 1)");
  EXPECT_EQ(*Canonical("(d: date(-3), r: @1:2, f: 1.5, n: dne)"),
            "(d: date(-3), f: 1.5, n: dne, r: @1:2)");
  EXPECT_FALSE(Canonical("{1, 2").ok());
  EXPECT_FALSE(Canonical("(a: 1) tail").ok());
}

TEST(Answers, CheckerRejectsCorruptedPointAnswers) {
  auto spec = FindWorkload("read_join");  // its small fixture
  ASSERT_TRUE(spec.ok());
  excess::Database db;
  ASSERT_TRUE(excess::BuildUniversity(&db, spec->fixture).ok());
  auto key = AnswerKey::FromFixture(db);
  ASSERT_TRUE(key.ok()) << key.status().ToString();

  ReadStream stream(WorkloadKind::kPointRead, spec->fixture.num_employees, 1,
                    0);
  int checked = 0;
  for (int i = 0; i < 50; ++i) {
    const Stmt s = stream.Next();
    const std::string good = key->Expected(s);
    ASSERT_FALSE(good.empty()) << s.text;
    EXPECT_TRUE(key->Check(s, good)) << s.text;
    const size_t quote = good.find('"');
    ASSERT_NE(quote, std::string::npos);
    const std::string bad =
        good.substr(0, quote + 1) + "x" + good.substr(quote + 1);
    EXPECT_FALSE(key->Check(s, bad)) << bad;
    EXPECT_FALSE(key->Check(s, "")) << s.text;
    ++checked;
  }
  EXPECT_EQ(checked, 50);
  // A lookup answered from the wrong employee is wrong.
  Stmt lookup{StmtClass::kPointLookup, "", 3};
  Stmt neighbour{StmtClass::kPointLookup, "", 4};
  EXPECT_FALSE(key->Check(lookup, key->Expected(neighbour)));
}

TEST(Answers, CheckerRejectsCorruptedJoinAnswers) {
  auto spec = FindWorkload("read_join");
  ASSERT_TRUE(spec.ok());
  auto key = AnswerKey::FromUnoptimizedSession(*spec, JoinStatements());
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  ReadStream stream(WorkloadKind::kReadJoin, spec->fixture.num_employees, 3,
                    1);
  for (int i = 0; i < 12; ++i) {
    const Stmt s = stream.Next();
    const std::string good = key->Expected(s);
    ASSERT_GT(good.size(), 2u) << s.text;  // a non-empty answer
    EXPECT_TRUE(key->Check(s, good));
    // Drop the first member of the outer multiset.
    const size_t cut = good.find("), ");
    ASSERT_NE(cut, std::string::npos);
    std::string bad = "{";
    bad += good.substr(cut + 3);
    EXPECT_FALSE(key->Check(s, bad)) << s.text;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Values of `field` inside the JSON array that follows `"section":`.
std::vector<std::string> SectionValues(const std::string& json,
                                       const std::string& section,
                                       const std::string& field) {
  std::string quoted = "\"";
  quoted += section;
  quoted += "\"";
  const size_t at = json.find(quoted);
  if (at == std::string::npos) return {};
  const size_t open = json.find('[', at);
  const size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  const std::regex re("\"" + field + "\"\\s*:\\s*\"([^\"]*)\"");
  std::vector<std::string> out;
  for (std::sregex_iterator it(body.begin(), body.end(), re), end; it != end;
       ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

std::vector<std::string> Names(const std::vector<MetricDef>& defs) {
  std::vector<std::string> out;
  for (const auto& d : defs) out.push_back(d.name);
  return out;
}

std::vector<std::string> Units(const std::vector<MetricDef>& defs) {
  std::vector<std::string> out;
  for (const auto& d : defs) out.push_back(d.unit);
  return out;
}

TEST(Metrics, PrintedNamesMatchBenchmarkJson) {
  const std::string json = ReadFile(PERFBENCH_JSON);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(SectionValues(json, "workloads", "name"), WorkloadNames());
  EXPECT_EQ(SectionValues(json, "end_to_end", "name"),
            Names(EndToEndMetrics()));
  EXPECT_EQ(SectionValues(json, "end_to_end", "unit"),
            Units(EndToEndMetrics()));
  EXPECT_EQ(SectionValues(json, "per_layer", "name"),
            Names(PerLayerMetrics()));
  EXPECT_EQ(SectionValues(json, "per_layer", "unit"),
            Units(PerLayerMetrics()));

  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    std::map<std::string, double> values;
    for (const auto& d : *defs) values[d.name] = 1.25;
    auto line = ResultLine(true, 10, 0, *defs, values);
    ASSERT_TRUE(line.ok());
    const std::regex key_re("\"([a-z0-9_.]+)\": \\{\"value\"");
    std::vector<std::string> printed;
    for (std::sregex_iterator it(line->begin(), line->end(), key_re), end;
         it != end; ++it) {
      printed.push_back((*it)[1]);
    }
    EXPECT_EQ(printed, Names(*defs));
    values.erase(defs->front().name);
    EXPECT_FALSE(ResultLine(true, 10, 0, *defs, values).ok());
  }
}

}  // namespace
}  // namespace perfbench
