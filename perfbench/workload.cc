// Workloads, their statement streams, and the answer key.

#include <algorithm>
#include <cctype>
#include <utility>

#include "excess/session.h"
#include "methods/registry.h"
#include "perfbench.h"

namespace perfbench {

using excess::Value;
using excess::ValuePtr;

namespace {

excess::UniversityParams LargeFixture() {
  excess::UniversityParams p;
  p.num_employees = 20'000;
  p.num_students = 40'000;
  p.num_departments = 500;
  return p;
}

excess::UniversityParams SmallFixture() {
  excess::UniversityParams p;
  p.num_employees = 60;
  p.num_students = 100;
  p.num_departments = 10;
  p.advisor_pool = 20;
  return p;
}

std::vector<WorkloadSpec> AllWorkloads() {
  const std::string large = "large (20000 employees, 40000 students, "
                            "500 departments)";
  const std::string small = "small (60 employees, 100 students, "
                            "10 departments, advisor_pool 20)";
  std::vector<WorkloadSpec> all;
  // Three reader connections leave one of the four vCPUs idle, so a vCPU
  // lost to another tenant costs about a tenth of the throughput instead of
  // a quarter (NOTES.md).
  all.push_back({WorkloadKind::kPointRead, "point_read", LargeFixture(), large,
                 3, false, 0,
                 {"range of E is Employees",
                  "create index emp_ssnum on Employees (ssnum)",
                  "create Log: { int4 }"},
                 3, 400});
  all.push_back({WorkloadKind::kReadJoin, "read_join", SmallFixture(), small,
                 3, false, 0,
                 {"range of S is Students", "range of E is Employees",
                  "create Log: { int4 }"},
                 51, 36});
  // Readers pause between statements here: without the pause about 1% of
  // reads wait for a re-materialization, so p99 would flip between the
  // 0.4 ms and the 40 ms class from run to run (NOTES.md).
  all.push_back({WorkloadKind::kWriteMix, "write_mix", LargeFixture(), large,
                 3, true, 2'000,
                 {"range of E is Employees",
                  "create index emp_ssnum on Employees (ssnum)",
                  "create Log: { int4 }"},
                 3, 300});
  return all;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Template parameters of read_join: three salary floors for the advisor
// join, three gpa floors for the grouped join.
constexpr int64_t kSalaryFloors[] = {40'000, 80'000, 120'000};
constexpr const char* kGpaFloors[] = {"1.0", "2.0", "3.0"};
constexpr int kVariants = 3;

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& w : AllWorkloads()) out.push_back(w.name);
    return out;
  }();
  return names;
}

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  for (auto& w : AllWorkloads()) {
    if (w.name == name) return w;
  }
  return Status::Invalid("unknown workload: " + name);
}

bool IsProbeClass(StmtClass cls) {
  return cls == StmtClass::kPointLookup || cls == StmtClass::kDeptNav;
}

std::vector<std::string> JoinStatements() {
  std::vector<std::string> out;
  for (int64_t floor : kSalaryFloors) {
    out.push_back(
        "retrieve (S.name, E.name) where S.advisor = E and E.salary >= " +
        std::to_string(floor));
  }
  for (const char* gpa : kGpaFloors) {
    out.push_back(
        "retrieve unique (S.dept.name, E.name) by S.dept "
        "where S.advisor.name = E.name and S.gpa >= " +
        std::string(gpa));
  }
  return out;
}

ReadStream::ReadStream(WorkloadKind kind, int num_employees, uint64_t seed,
                       int client)
    : kind_(kind),
      num_employees_(num_employees),
      rng_(SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(client) + 1))) {}

Stmt ReadStream::Next() {
  if (kind_ == WorkloadKind::kReadJoin) {
    // Each deck holds every advisor-join variant twice and every grouped
    // variant once, shuffled: the composition of every stretch of the
    // stream is fixed, only the order depends on the seed.
    if (deck_.empty()) {
      for (int64_t v = 0; v < kVariants; ++v) {
        deck_.insert(deck_.end(), {v, v, kVariants + v});
      }
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_() % (i + 1)]);
      }
    }
    const int64_t idx = deck_.back();
    deck_.pop_back();
    return {idx < kVariants ? StmtClass::kAdvisorJoin
                            : StmtClass::kGroupedJoin,
            JoinStatements()[idx], idx};
  }
  const uint64_t u = rng_() % 100;
  if (u < 95) {
    const int64_t i = static_cast<int64_t>(rng_() % num_employees_);
    const std::string ssnum = std::to_string(100'000 + i);
    if (u < 80) {
      return {StmtClass::kPointLookup,
              "retrieve (E.name, E.salary) where E.ssnum = " + ssnum, i};
    }
    return {StmtClass::kDeptNav,
            "retrieve (E.dept.name) where E.ssnum = " + ssnum, i};
  }
  const std::string pos = std::to_string(1 + rng_() % 10);
  return {StmtClass::kTopTen,
          "retrieve (TopTen[" + pos + "].name, TopTen[" + pos + "].salary)",
          std::stoll(pos)};
}

int64_t TxnValue(uint64_t i) { return static_cast<int64_t>(i) + 1; }

std::string TxnToken(uint64_t seed, uint64_t i) {
  return "pb-" + std::to_string(seed) + "-" + std::to_string(i);
}

// --- canonical answers -------------------------------------------------------

namespace {

/// Recursive-descent reader of Value::ToString output.
class CanonicalReader {
 public:
  explicit CanonicalReader(const std::string& s) : s_(s) {}

  Result<std::string> Read() {
    auto v = Value();
    if (!v.ok()) return v;
    if (pos_ != s_.size()) return Error("trailing text");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::Invalid("unparsable answer (" + what + " at offset " +
                           std::to_string(pos_) + ")");
  }
  bool Eat(const char* lit) {
    size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  static bool IsWordChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }
  std::string Word() {
    size_t start = pos_;
    while (pos_ < s_.size() && IsWordChar(s_[pos_])) ++pos_;
    return s_.substr(start, pos_ - start);
  }

  Result<std::string> Value() {
    if (pos_ >= s_.size()) return Error("missing value");
    const char c = s_[pos_];
    if (c == '{') return Set();
    if (c == '[') return Array();
    if (c == '(') return Tuple("");
    if (c == '"') {
      size_t end = s_.find('"', pos_ + 1);
      if (end == std::string::npos) return Error("unterminated string");
      std::string out = s_.substr(pos_, end + 1 - pos_);
      pos_ = end + 1;
      return out;
    }
    if (c == '@') {
      size_t start = pos_++;
      while (pos_ < s_.size() && (IsWordChar(s_[pos_]) || s_[pos_] == ':')) {
        ++pos_;
      }
      return s_.substr(start, pos_ - start);
    }
    if (Eat("date(")) {
      std::string days = Scalar();
      if (!Eat(")")) return Error("unterminated date");
      return "date(" + days + ")";
    }
    if (IsWordChar(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      size_t save = pos_;
      std::string word = Word();
      if (pos_ < s_.size() && s_[pos_] == '(') return Tuple(word);
      pos_ = save;
    }
    std::string scalar = Scalar();
    if (scalar.empty()) return Error("unexpected character");
    return scalar;
  }

  // Numbers, booleans, dne / unk: everything up to the next delimiter.
  std::string Scalar() {
    size_t start = pos_;
    while (pos_ < s_.size() && std::string_view(",)]} ").find(s_[pos_]) ==
                                   std::string_view::npos) {
      ++pos_;
    }
    return s_.substr(start, pos_ - start);
  }

  Result<std::string> Set() {
    ++pos_;  // '{'
    std::map<std::string, int64_t> members;
    if (!Eat("}")) {
      do {
        auto v = Value();
        if (!v.ok()) return v;
        int64_t count = 1;
        if (Eat(" x")) {
          std::string n = Scalar();
          if (n.empty() || !std::all_of(n.begin(), n.end(), ::isdigit)) {
            return Error("bad multiplicity");
          }
          count = std::stoll(n);
        }
        members[*v] += count;
      } while (Eat(", "));
      if (!Eat("}")) return Error("unterminated multiset");
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [member, count] : members) {
      if (!first) out += ", ";
      first = false;
      out += member;
      if (count != 1) out += " x" + std::to_string(count);
    }
    return out + "}";
  }

  Result<std::string> Array() {
    ++pos_;  // '['
    std::string out = "[";
    if (!Eat("]")) {
      bool first = true;
      do {
        auto v = Value();
        if (!v.ok()) return v;
        if (!first) out += ", ";
        first = false;
        out += *v;
      } while (Eat(", "));
      if (!Eat("]")) return Error("unterminated array");
    }
    return out + "]";
  }

  Result<std::string> Tuple(const std::string& tag) {
    ++pos_;  // '('
    std::vector<std::pair<std::string, std::string>> fields;
    if (!Eat(")")) {
      do {
        std::string name = Word();
        if (name.empty() || !Eat(": ")) return Error("bad tuple field");
        auto v = Value();
        if (!v.ok()) return v;
        fields.emplace_back(std::move(name), std::move(*v));
      } while (Eat(", "));
      if (!Eat(")")) return Error("unterminated tuple");
    }
    std::stable_sort(fields.begin(), fields.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::string out = tag + "(";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += fields[i].first + ": " + fields[i].second;
    }
    return out + ")";
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::string> Canonical(const std::string& rendered) {
  return CanonicalReader(rendered).Read();
}

Result<AnswerKey> AnswerKey::FromFixture(const excess::Database& db) {
  AnswerKey key;
  const excess::ObjectStore& store = db.store();
  EXA_ASSIGN_OR_RETURN(ValuePtr employees, db.NamedValue("Employees"));
  key.employees_.resize(employees->entries().size());
  for (const auto& entry : employees->entries()) {
    EXA_ASSIGN_OR_RETURN(ValuePtr emp, store.Deref(entry.value->oid()));
    EXA_ASSIGN_OR_RETURN(ValuePtr ssnum, emp->Field("ssnum"));
    const int64_t i = ssnum->as_int() - 100'000;
    if (i < 0 || i >= static_cast<int64_t>(key.employees_.size())) {
      return Status::Invalid("ssnum outside the fixture's range");
    }
    Employee& row = key.employees_[i];
    EXA_ASSIGN_OR_RETURN(ValuePtr name, emp->Field("name"));
    EXA_ASSIGN_OR_RETURN(ValuePtr salary, emp->Field("salary"));
    EXA_ASSIGN_OR_RETURN(ValuePtr dept_ref, emp->Field("dept"));
    EXA_ASSIGN_OR_RETURN(ValuePtr dept, store.Deref(dept_ref->oid()));
    EXA_ASSIGN_OR_RETURN(ValuePtr dept_name, dept->Field("name"));
    row.name = name->as_string();
    row.salary = salary->as_int();
    row.dept = dept_name->as_string();
  }
  EXA_ASSIGN_OR_RETURN(ValuePtr topten, db.NamedValue("TopTen"));
  for (const auto& ref : topten->elems()) {
    EXA_ASSIGN_OR_RETURN(ValuePtr emp, store.Deref(ref->oid()));
    EXA_ASSIGN_OR_RETURN(ValuePtr ssnum, emp->Field("ssnum"));
    key.topten_.push_back(ssnum->as_int() - 100'000);
  }
  return key;
}

Result<AnswerKey> AnswerKey::FromUnoptimizedSession(
    const WorkloadSpec& spec, const std::vector<std::string>& statements) {
  excess::Database db;
  EXA_RETURN_NOT_OK(excess::BuildUniversity(&db, spec.fixture));
  excess::MethodRegistry methods(&db.catalog());
  excess::Session::Options options;
  options.optimize = false;
  options.env_autoopen = false;
  excess::Session session(&db, &methods, options);
  for (const auto& stmt : spec.setup_statements) {
    if (stmt.rfind("range of", 0) == 0) {
      EXA_RETURN_NOT_OK(session.Execute(stmt).status());
    }
  }
  AnswerKey key;
  for (const auto& text : statements) {
    EXA_ASSIGN_OR_RETURN(ValuePtr v, session.Execute(text));
    EXA_ASSIGN_OR_RETURN(std::string canon, Canonical(v->ToString()));
    key.by_text_[text] = std::move(canon);
  }
  return key;
}

std::string AnswerKey::Expected(const Stmt& stmt) const {
  ValuePtr v;
  switch (stmt.cls) {
    case StmtClass::kPointLookup:
    case StmtClass::kDeptNav: {
      if (stmt.key < 0 || stmt.key >= static_cast<int64_t>(employees_.size())) {
        return "";
      }
      const Employee& e = employees_[stmt.key];
      v = stmt.cls == StmtClass::kDeptNav
              ? Value::SetOf({Value::Str(e.dept)})
              : Value::SetOf({Value::Tuple(
                    {"name", "salary"},
                    {Value::Str(e.name), Value::Int(e.salary)})});
      break;
    }
    case StmtClass::kTopTen: {
      if (stmt.key < 1 || stmt.key > static_cast<int64_t>(topten_.size())) {
        return "";
      }
      const Employee& e = employees_[topten_[stmt.key - 1]];
      v = Value::Tuple({"name", "salary"},
                       {Value::Str(e.name), Value::Int(e.salary)});
      break;
    }
    case StmtClass::kAdvisorJoin:
    case StmtClass::kGroupedJoin: {
      auto it = by_text_.find(stmt.text);
      return it == by_text_.end() ? "" : it->second;
    }
  }
  auto canon = Canonical(v->ToString());
  return canon.ok() ? *canon : "";
}

bool AnswerKey::Check(const Stmt& stmt, const std::string& rendered) const {
  const std::string expected = Expected(stmt);
  if (expected.empty()) return false;
  if (rendered == expected) return true;
  auto canon = Canonical(rendered);
  return canon.ok() && *canon == expected;
}

}  // namespace perfbench
