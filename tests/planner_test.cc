#include "core/planner.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/cost.h"
#include "core/eval.h"
#include "excess/session.h"
#include "university/university.h"

namespace excess {
namespace {

using namespace alg;  // NOLINT(build/namespaces)

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UniversityParams p;
    p.num_employees = 40;
    p.num_students = 60;
    ASSERT_TRUE(BuildUniversity(&db_, p).ok());
  }
  ValuePtr Eval(const ExprPtr& e) {
    Evaluator ev(&db_);
    auto r = ev.Eval(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }
  Database db_;
};

TEST_F(PlannerTest, CostModelUsesActualRootCardinalities) {
  CostModel cost(&db_);
  auto employees = cost.Estimate(Var("Employees"));
  ASSERT_TRUE(employees.ok());
  EXPECT_DOUBLE_EQ(employees->cardinality, 40);
  auto cross = cost.Estimate(Cross(Var("Employees"), Var("Students")));
  ASSERT_TRUE(cross.ok());
  EXPECT_DOUBLE_EQ(cross->cardinality, 40.0 * 60.0);
  EXPECT_GT(cross->total, employees->total);
}

TEST_F(PlannerTest, SelectionReducesEstimatedCardinality) {
  CostModel cost(&db_);
  ExprPtr scan = SetApply(Deref(Input()), Var("Employees"));
  ExprPtr filtered = SetApply(
      Comp(Eq(TupExtract("city", Input()), StrLit("city_0")), Input()), scan);
  auto a = cost.Estimate(scan);
  auto b = cost.Estimate(filtered);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b->cardinality, a->cardinality);
}

TEST_F(PlannerTest, DerefsAreWeighted) {
  CostParams cheap;
  cheap.deref_cost = 1;
  CostParams pricey;
  pricey.deref_cost = 100;
  ExprPtr q = SetApply(Deref(Input()), Var("Employees"));
  auto a = CostModel(&db_, cheap).Estimate(q);
  auto b = CostModel(&db_, pricey).Estimate(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->total, a->total);
}

TEST_F(PlannerTest, HeuristicPhaseCollapsesChains) {
  // The Figure 4 chain: four SET_APPLYs collapse into one.
  ExprPtr fig4 = SetApply(
      Project({"name"}, Input()),
      SetApply(
          Deref(TupExtract("dept", Input())),
          SetApply(Comp(Eq(TupExtract("city", Input()), StrLit("city_0")),
                        Input()),
                   SetApply(Deref(Input()), Var("Employees")))));
  Planner planner(&db_);
  auto plan = planner.Optimize(fig4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Semantics preserved.
  EXPECT_TRUE(Eval(fig4)->Equals(*Eval(*plan)));
  // The heuristic trace shows rule 15 firing.
  bool combined = false;
  for (const auto& r : planner.heuristic_trace()) {
    if (r == "combine-set-applys") combined = true;
  }
  EXPECT_TRUE(combined);
  // The plan is a single scan of Employees.
  EXPECT_EQ((*plan)->kind(), OpKind::kSetApply);
  EXPECT_EQ((*plan)->child(0)->kind(), OpKind::kVar);
}

TEST_F(PlannerTest, OptimizedPlanIsNoCostlier) {
  ExprPtr q = DupElim(SetApply(
      TupExtract("name", Deref(TupExtract("_1", Input()))),
      Cross(Var("Employees"), Var("Students"))));
  Planner::Options opts;
  opts.search_budget = 32;
  Planner planner(&db_, opts);
  auto choices = planner.Enumerate(q);
  ASSERT_TRUE(choices.ok()) << choices.status().ToString();
  ASSERT_FALSE(choices->empty());
  CostModel cost(&db_);
  auto original = cost.Estimate(q);
  ASSERT_TRUE(original.ok());
  EXPECT_LE(choices->front().estimate.total, original->total);
  // Rule 5 should have eliminated the cross product entirely somewhere in
  // the considered plans; the best plan must not contain a CROSS.
  std::function<bool(const ExprPtr&)> has_cross = [&](const ExprPtr& e) {
    if (e->kind() == OpKind::kCross) return true;
    for (const auto& c : e->children()) {
      if (has_cross(c)) return true;
    }
    if (e->sub() != nullptr && has_cross(e->sub())) return true;
    return false;
  };
  EXPECT_FALSE(has_cross(choices->front().plan))
      << choices->front().plan->ToTreeString();
  // And the winner computes the same result.
  EXPECT_TRUE(Eval(q)->Equals(*Eval(choices->front().plan)));
}

TEST_F(PlannerTest, SearchIsDeterministicAndBounded) {
  ExprPtr q = SetApply(Arith("+", IntLit(1), IntLit(2)), Var("Employees"));
  Planner::Options opts;
  opts.search_budget = 8;
  Planner p1(&db_, opts);
  Planner p2(&db_, opts);
  auto a = p1.Optimize(q);
  auto b = p2.Optimize(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*a)->Equals(**b));
}

TEST_F(PlannerTest, ZeroBudgetSkipsSearchPhase) {
  Planner::Options opts;
  opts.search_budget = 0;
  Planner planner(&db_, opts);
  auto plan = planner.Optimize(Var("Employees"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind(), OpKind::kVar);
}


// --- translated plan shapes ---------------------------------------------------
// Range variables translate into a plain CROSS of their ranges, so a `where`
// equality between two variables sits directly on the product and lowers to
// HASH_JOIN (§5 Example 1 starts from exactly this select over S × E).

class TranslatedPlanTest : public PlannerTest {
 protected:
  void SetUp() override {
    PlannerTest::SetUp();
    methods_ = std::make_unique<MethodRegistry>(&db_.catalog());
    session_ = std::make_unique<Session>(&db_, methods_.get());
    ASSERT_TRUE(session_
                    ->Execute("range of S is Students, E is Employees, "
                              "D is Departments")
                    .ok());
  }
  ExprPtr Translate(const std::string& q) {
    auto r = session_->Translate(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << q;
    return r.ok() ? *r : nullptr;
  }
  /// The optimized, lowered plan; checks it answers like the raw tree.
  ExprPtr Optimize(const ExprPtr& raw) {
    auto plan = Planner(&db_).Optimize(raw);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    EXPECT_TRUE(Eval(raw)->Equals(*Eval(*plan))) << (*plan)->ToString();
    return *plan;
  }
  /// First node of `kind` in a pre-order walk over children and subscripts.
  static ExprPtr Find(const ExprPtr& e, OpKind kind) {
    if (e == nullptr) return nullptr;
    if (e->kind() == kind) return e;
    for (const auto& c : e->children()) {
      if (ExprPtr hit = Find(c, kind)) return hit;
    }
    return Find(e->sub(), kind);
  }
  std::unique_ptr<MethodRegistry> methods_;
  std::unique_ptr<Session> session_;
};

TEST_F(TranslatedPlanTest, EqualityJoinsLowerToHashJoin) {
  for (const char* q : {
           // bench_optimizer `join-two-vars` and the first wire read_join
           // template.
           "retrieve (S.name, E.name) where S.advisor = E and "
           "E.salary >= 100000",
           // The second read_join template: grouped, deduplicated, keyed
           // on a path through the ref.
           "retrieve unique (S.dept.name, E.name) by S.dept "
           "where S.advisor.name = E.name and S.gpa >= 3.0",
       }) {
    ExprPtr plan = Optimize(Translate(q));
    ASSERT_NE(plan, nullptr) << q;
    EXPECT_NE(Find(plan, OpKind::kHashJoin), nullptr)
        << q << "\n" << plan->ToString();
  }
}

TEST_F(TranslatedPlanTest, UncorrelatedVariablesTranslateToNestedCross) {
  ExprPtr raw = Translate(
      "retrieve (S.name, E.name, D.name) where S.advisor = E and "
      "E.dept = D");
  ASSERT_NE(raw, nullptr);
  // SET_APPLY[target](SET_APPLY[COMP](CROSS(CROSS(S, E), D))).
  ASSERT_EQ(raw->kind(), OpKind::kSetApply);
  const ExprPtr& filter = raw->child(0);
  ASSERT_EQ(filter->kind(), OpKind::kSetApply);
  EXPECT_EQ(filter->sub()->kind(), OpKind::kComp);
  const ExprPtr& outer = filter->child(0);
  ASSERT_EQ(outer->kind(), OpKind::kCross) << raw->ToString();
  ASSERT_EQ(outer->child(0)->kind(), OpKind::kCross) << raw->ToString();
  EXPECT_TRUE(outer->child(0)->child(0)->Equals(Var("Students")));
  EXPECT_TRUE(outer->child(0)->child(1)->Equals(Var("Employees")));
  EXPECT_TRUE(outer->child(1)->Equals(Var("Departments")));
  ExprPtr plan = Optimize(raw);
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(Find(plan, OpKind::kHashJoin), nullptr) << plan->ToString();
}

TEST_F(TranslatedPlanTest, CorrelatedRangeKeepsTheDependentProduct) {
  ExprPtr raw = Translate("retrieve (C.name) from C in E.kids");
  ASSERT_NE(raw, nullptr);
  // SET_APPLY[target](SET_COLLAPSE(SET_APPLY[CROSS(SET(INPUT),
  // E.kids)](Employees))): E.kids differs per employee.
  ASSERT_EQ(raw->kind(), OpKind::kSetApply);
  const ExprPtr& collapse = raw->child(0);
  ASSERT_EQ(collapse->kind(), OpKind::kSetCollapse) << raw->ToString();
  const ExprPtr& per_env = collapse->child(0);
  ASSERT_EQ(per_env->kind(), OpKind::kSetApply);
  EXPECT_TRUE(per_env->child(0)->Equals(Var("Employees")));
  ASSERT_EQ(per_env->sub()->kind(), OpKind::kCross);
  EXPECT_TRUE(per_env->sub()->child(0)->Equals(SetMake(Input())));
  EXPECT_NE(Optimize(raw), nullptr);
}

TEST_F(TranslatedPlanTest, SingleVariableSelectionProbesOnBareInput) {
  ASSERT_TRUE(
      session_->Execute("create index emp_ssnum on Employees (ssnum)").ok());
  ValuePtr first = *db_.store().Deref(
      (*db_.NamedValue("Employees"))->entries()[0].value->oid());
  const int64_t ssnum = (*first->Field("ssnum"))->as_int();
  ExprPtr plan = Optimize(Translate(
      "retrieve (E.name) where E.ssnum = " + std::to_string(ssnum)));
  ASSERT_NE(plan, nullptr);
  ExprPtr probe = Find(plan, OpKind::kIndexProbe);
  ASSERT_NE(probe, nullptr) << plan->ToString();
  EXPECT_EQ(probe->name(), "emp_ssnum");
  // The probed element is the range variable itself, not a tuple around it.
  EXPECT_EQ(probe->sub()->kind(), OpKind::kInput) << probe->ToString();
  EXPECT_EQ(Eval(plan)->TotalCount(), 1);
}

}  // namespace
}  // namespace excess
