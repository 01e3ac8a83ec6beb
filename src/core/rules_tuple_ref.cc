#include <algorithm>

#include "core/analysis.h"
#include "core/builder.h"
#include "core/infer.h"
#include "core/rules.h"

namespace excess {

namespace {

/// Field names of the tuple produced by `e`, when statically known.
std::optional<std::vector<std::string>> StaticFields(const ExprPtr& e,
                                                     const RuleContext& ctx) {
  if (ctx.db == nullptr) return std::nullopt;
  TypeInference infer(ctx.db);
  auto r = infer.Infer(e, ctx.input_schema);
  if (!r.ok()) return std::nullopt;
  const SchemaPtr& s = *r;
  if (!s->is_tup()) return std::nullopt;
  std::vector<std::string> names;
  names.reserve(s->fields().size());
  for (const auto& f : s->fields()) names.push_back(f.name);
  return names;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

void RegisterTupleRefRules(RuleSet* directed, RuleSet* exploratory) {
  // --- Rule 23: commutativity of TUP_CAT. Sound because tuple values use
  // record-style (field-name keyed) equality; see objects/value.cc.
  exploratory->Add(
      {23, "tupcat-commute",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kTupCat) return std::nullopt;
         return alg::TupCat(e->child(1), e->child(0));
       }});

  // --- Rule 24: π distributes over TUP_CAT: π_L(TUP_CAT(A, B)) =
  // TUP_CAT(π_L1(A), π_L2(B)) when L splits cleanly by provenance.
  exploratory->Add(
      {24, "project-distributes-over-tupcat",
       false,
       [](const ExprPtr& e, const RuleContext& ctx) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kProject) return std::nullopt;
         const ExprPtr& cat = e->child(0);
         if (cat->kind() != OpKind::kTupCat) return std::nullopt;
         auto fa = StaticFields(cat->child(0), ctx);
         auto fb = StaticFields(cat->child(1), ctx);
         if (!fa.has_value() || !fb.has_value()) return std::nullopt;
         std::vector<std::string> l1;
         std::vector<std::string> l2;
         for (const auto& name : e->names()) {
           bool in_a = Contains(*fa, name);
           bool in_b = Contains(*fb, name);
           if (in_a == in_b) return std::nullopt;  // ambiguous or missing
           (in_a ? l1 : l2).push_back(name);
         }
         return alg::TupCat(alg::Project(std::move(l1), cat->child(0)),
                            alg::Project(std::move(l2), cat->child(1)));
       }});

  // --- Rule 25: extracting a field of A from TUP_CAT(A, B) skips the
  // concatenation entirely.
  directed->Add(
      {25, "extract-from-tupcat",
       true,
       [](const ExprPtr& e, const RuleContext& ctx) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kTupExtract) return std::nullopt;
         const ExprPtr& cat = e->child(0);
         if (cat->kind() != OpKind::kTupCat) return std::nullopt;
         auto fa = StaticFields(cat->child(0), ctx);
         if (fa.has_value() && Contains(*fa, e->name())) {
           return alg::TupExtract(e->name(), cat->child(0));
         }
         // If the field is provably on the B side only, skip to B.
         auto fb = StaticFields(cat->child(1), ctx);
         if (fa.has_value() && fb.has_value() && !Contains(*fa, e->name()) &&
             Contains(*fb, e->name())) {
           return alg::TupExtract(e->name(), cat->child(1));
         }
         return std::nullopt;
       }});

  // --- π composition (relational-familiar; the Appendix cites the
  // relational rules as consequences): π_L1(π_L2(t)) = π_L1(t), L1 ⊆ L2.
  directed->Add(
      {0, "combine-projects",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kProject) return std::nullopt;
         const ExprPtr& inner = e->child(0);
         if (inner->kind() != OpKind::kProject) return std::nullopt;
         for (const auto& n : e->names()) {
           if (!Contains(inner->names(), n)) return std::nullopt;
         }
         return alg::Project(e->names(), inner->child(0));
       }});
  // TUP_EXTRACT_f(TUP_f(x)) = x — removes the construct-then-extract pairs
  // that rule-15 fusion of a tuple-building subscript leaves (TUP is the
  // named unary constructor). Only fires when the names match: extracting
  // a missing field is a runtime error the rewrite must preserve.
  directed->Add(
      {0, "extract-from-tupmake",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kTupExtract) return std::nullopt;
         const ExprPtr& inner = e->child(0);
         if (inner->kind() != OpKind::kTupMake) return std::nullopt;
         const std::string& field =
             inner->name().empty() ? "_1" : inner->name();
         if (field != e->name()) return std::nullopt;
         return inner->child(0);
       }});
  directed->Add(
      {0, "extract-from-project",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kTupExtract) return std::nullopt;
         const ExprPtr& inner = e->child(0);
         if (inner->kind() != OpKind::kProject) return std::nullopt;
         if (!Contains(inner->names(), e->name())) return std::nullopt;
         return alg::TupExtract(e->name(), inner->child(0));
       }});

  // --- Rule 27: combine successive COMPs into a conjunction. The inner
  // predicate goes first in the conjunction so short-circuit evaluation
  // matches the original order (identical semantics for unk-free data; the
  // printed rule glosses over the COMP(unk) case, see DESIGN.md).
  directed->Add(
      {27, "combine-comps",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kComp) return std::nullopt;
         const ExprPtr& inner = e->child(0);
         if (inner->kind() != OpKind::kComp) return std::nullopt;
         return alg::Comp(Predicate::And(inner->pred(), e->pred()),
                          inner->child(0));
       }});

  // --- Rule 28: invertibility of REF and DEREF.
  directed->Add(
      {28, "deref-of-ref",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kDeref) return std::nullopt;
         if (e->child(0)->kind() != OpKind::kRef) return std::nullopt;
         return e->child(0)->child(0);
       }});
  directed->Add(
      {28, "ref-of-deref",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kRef) return std::nullopt;
         if (e->child(0)->kind() != OpKind::kDeref) return std::nullopt;
         // REF(DEREF(r)) = r up to value-interned identity (the store
         // registers created objects in the intern table; see DESIGN.md).
         return e->child(0)->child(0);
       }});
}

}  // namespace excess
