#ifndef EXCESS_CORE_BUILDER_H_
#define EXCESS_CORE_BUILDER_H_

#include <string>
#include <utility>
#include <vector>

#include "core/expr.h"

namespace excess {
/// Typed construction helpers for algebra expressions. `alg::` is the
/// public surface for building query trees by hand; the EXCESS translator
/// and the rewrite rules are built on it too.
namespace alg {

inline ExprPtr Make(OpKind kind, std::vector<ExprPtr> children = {},
                    ExprPtr sub = nullptr, PredicatePtr pred = nullptr,
                    ValuePtr literal = nullptr, std::string name = "",
                    std::vector<std::string> names = {},
                    std::string type_filter = "", int64_t index = 0,
                    int64_t lo = 0, int64_t hi = 0, bool index_is_last = false,
                    bool lo_is_last = false, bool hi_is_last = false) {
  return MakeExpr(kind, std::move(children), std::move(sub), std::move(pred),
                  std::move(literal), std::move(name), std::move(names),
                  std::move(type_filter), index, lo, hi, index_is_last,
                  lo_is_last, hi_is_last);
}

// --- leaves ----------------------------------------------------------------
inline ExprPtr Input() { return Make(OpKind::kInput); }
inline ExprPtr Const(ValuePtr v) {
  return Make(OpKind::kConst, {}, nullptr, nullptr, std::move(v));
}
inline ExprPtr Var(std::string name) {
  return Make(OpKind::kVar, {}, nullptr, nullptr, nullptr, std::move(name));
}
inline ExprPtr Param(int64_t i) {
  return Make(OpKind::kParam, {}, nullptr, nullptr, nullptr, "", {}, "", i);
}

// --- multiset primitives ----------------------------------------------------
inline ExprPtr AddUnion(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kAddUnion, {std::move(a), std::move(b)});
}
inline ExprPtr SetMake(ExprPtr x) {
  return Make(OpKind::kSetMake, {std::move(x)});
}
/// SET_APPLY_E(in); `type_filter` non-empty restricts application to
/// occurrences whose exact type equals `type_filter` (others are dropped) —
/// the §4 extension.
inline ExprPtr SetApply(ExprPtr e, ExprPtr in, std::string type_filter = "") {
  return Make(OpKind::kSetApply, {std::move(in)}, std::move(e), nullptr,
              nullptr, "", {}, std::move(type_filter));
}
inline ExprPtr Group(ExprPtr e, ExprPtr in) {
  return Make(OpKind::kGroup, {std::move(in)}, std::move(e));
}
inline ExprPtr DupElim(ExprPtr in) {
  return Make(OpKind::kDupElim, {std::move(in)});
}
inline ExprPtr Diff(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kDiff, {std::move(a), std::move(b)});
}
inline ExprPtr Cross(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kCross, {std::move(a), std::move(b)});
}
inline ExprPtr SetCollapse(ExprPtr in) {
  return Make(OpKind::kSetCollapse, {std::move(in)});
}

// --- tuple primitives --------------------------------------------------------
inline ExprPtr Project(std::vector<std::string> fields, ExprPtr in) {
  return Make(OpKind::kProject, {std::move(in)}, nullptr, nullptr, nullptr, "",
              std::move(fields));
}
inline ExprPtr TupCat(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kTupCat, {std::move(a), std::move(b)});
}
inline ExprPtr TupExtract(std::string field, ExprPtr in) {
  return Make(OpKind::kTupExtract, {std::move(in)}, nullptr, nullptr, nullptr,
              std::move(field));
}
inline ExprPtr TupMake(ExprPtr x) {
  return Make(OpKind::kTupMake, {std::move(x)});
}
/// TUP with an explicit field name instead of the default "_1"; the EXCESS
/// translator uses this to build named targets and tuple literals.
inline ExprPtr TupMakeNamed(std::string field, ExprPtr x) {
  return Make(OpKind::kTupMake, {std::move(x)}, nullptr, nullptr, nullptr,
              std::move(field));
}

// --- array primitives --------------------------------------------------------
inline ExprPtr ArrMake(ExprPtr x) {
  return Make(OpKind::kArrMake, {std::move(x)});
}
inline ExprPtr ArrExtract(int64_t index, ExprPtr in) {
  return Make(OpKind::kArrExtract, {std::move(in)}, nullptr, nullptr, nullptr,
              "", {}, "", index);
}
inline ExprPtr ArrExtractLast(ExprPtr in) {
  return Make(OpKind::kArrExtract, {std::move(in)}, nullptr, nullptr, nullptr,
              "", {}, "", 0, 0, 0, /*index_is_last=*/true);
}
inline ExprPtr ArrApply(ExprPtr e, ExprPtr in) {
  return Make(OpKind::kArrApply, {std::move(in)}, std::move(e));
}
inline ExprPtr SubArr(int64_t lo, int64_t hi, ExprPtr in, bool lo_last = false,
                      bool hi_last = false) {
  return Make(OpKind::kSubArr, {std::move(in)}, nullptr, nullptr, nullptr, "",
              {}, "", 0, lo, hi, false, lo_last, hi_last);
}
inline ExprPtr ArrCat(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kArrCat, {std::move(a), std::move(b)});
}
inline ExprPtr ArrCollapse(ExprPtr in) {
  return Make(OpKind::kArrCollapse, {std::move(in)});
}
inline ExprPtr ArrDiff(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kArrDiff, {std::move(a), std::move(b)});
}
inline ExprPtr ArrDupElim(ExprPtr in) {
  return Make(OpKind::kArrDupElim, {std::move(in)});
}
inline ExprPtr ArrCross(ExprPtr a, ExprPtr b) {
  return Make(OpKind::kArrCross, {std::move(a), std::move(b)});
}

// --- reference operators -------------------------------------------------------
/// REF with an explicit target type ("" lets the evaluator derive one from
/// the operand's exact-type tag or fall back to an anonymous type).
inline ExprPtr RefOp(ExprPtr in, std::string target_type = "") {
  return Make(OpKind::kRef, {std::move(in)}, nullptr, nullptr, nullptr,
              std::move(target_type));
}
inline ExprPtr Deref(ExprPtr in) { return Make(OpKind::kDeref, {std::move(in)}); }

// --- predicates ----------------------------------------------------------------
inline ExprPtr Comp(PredicatePtr pred, ExprPtr in) {
  return Make(OpKind::kComp, {std::move(in)}, nullptr, std::move(pred));
}

// --- extensions ------------------------------------------------------------------
inline ExprPtr Arith(std::string op, ExprPtr a, ExprPtr b) {
  return Make(OpKind::kArith, {std::move(a), std::move(b)}, nullptr, nullptr,
              nullptr, std::move(op));
}
/// Aggregate over a multiset: name in {"min","max","count","sum","avg"}.
inline ExprPtr Agg(std::string name, ExprPtr in) {
  return Make(OpKind::kAgg, {std::move(in)}, nullptr, nullptr, nullptr,
              std::move(name));
}
/// Late-bound method call: children[0] is the receiver, the rest are
/// arguments. Resolved through the Evaluator's MethodResolver using the
/// receiver's run-time exact type (§4 strategy A).
inline ExprPtr MethodCall(std::string method, ExprPtr receiver,
                          std::vector<ExprPtr> args = {}) {
  std::vector<ExprPtr> children;
  children.reserve(1 + args.size());
  children.push_back(std::move(receiver));
  for (auto& a : args) children.push_back(std::move(a));
  return Make(OpKind::kMethodCall, std::move(children), nullptr, nullptr,
              nullptr, std::move(method));
}

// --- derived operators (Appendix §1) -----------------------------------------------
/// Multiset union: A ∪ B = (A - B) ⊎ B (max of cardinalities).
inline ExprPtr Union(ExprPtr a, ExprPtr b) {
  return AddUnion(Diff(a, b), b);
}
/// Multiset intersection: A ∩ B = A - (A - B) (min of cardinalities).
inline ExprPtr Intersect(ExprPtr a, ExprPtr b) {
  return Diff(a, Diff(a, b));
}
/// Multiset selection σ_P(A) = SET_APPLY_{COMP_P(INPUT)}(A).
inline ExprPtr Select(PredicatePtr pred, ExprPtr in) {
  return SetApply(Comp(std::move(pred), Input()), std::move(in));
}
/// Array selection: ARR_APPLY_{COMP_P}(A).
inline ExprPtr ArrSelect(PredicatePtr pred, ExprPtr in) {
  return ArrApply(Comp(std::move(pred), Input()), std::move(in));
}
/// Relational-like cross product: flattens the pairs produced by × with
/// TUP_CAT (Appendix §1).
inline ExprPtr RelCross(ExprPtr a, ExprPtr b) {
  return SetApply(TupCat(TupExtract("_1", Input()), TupExtract("_2", Input())),
                  Cross(std::move(a), std::move(b)));
}
/// Relational-like θ-join: select over ×, then flatten each ordered pair
/// with TUP_CAT. The predicate sees the *pair*, so its atoms address the
/// sides as TUP_EXTRACT_{_1}/TUP_EXTRACT_{_2}(INPUT).
inline ExprPtr RelJoin(PredicatePtr theta, ExprPtr a, ExprPtr b) {
  return SetApply(
      TupCat(TupExtract("_1", Input()), TupExtract("_2", Input())),
      SetApply(Comp(std::move(theta), Input()), Cross(std::move(a), std::move(b))));
}

// --- physical operators (planner output; see core/physical.h) ----------------
/// HASH_JOIN(A, B, lkey, rkey)[θ]: answer-equal to
/// SET_APPLY_{COMP_θ(INPUT)}(CROSS(A, B)) when lkey/rkey are the two sides
/// of an equality atom conjoined in θ. lkey/rkey bind INPUT to an element
/// of A resp. B; θ sees the pair tuple (_1, _2). Built by the physical
/// lowering pass, not by translation from EXCESS.
inline ExprPtr HashJoin(PredicatePtr theta, ExprPtr a, ExprPtr b, ExprPtr lkey,
                        ExprPtr rkey) {
  return Make(OpKind::kHashJoin,
              {std::move(a), std::move(b), std::move(lkey), std::move(rkey)},
              nullptr, std::move(theta));
}

/// IDX_PROBE<index>(probe)[opnd][θ]: answer-equal to
/// SET_APPLY_{COMP_θ(opnd)}(Var(set_name)) when one conjunct of θ compares
/// the index's key path of the element against the (closed) probe
/// expression with `cmp`. `opnd` is the COMP operand binder (INPUT = set
/// element). Built by the physical lowering pass.
inline ExprPtr IndexProbe(std::string index_name, std::string set_name,
                          CmpOp cmp, ExprPtr probe, ExprPtr opnd,
                          PredicatePtr theta) {
  return Make(OpKind::kIndexProbe, {std::move(probe)}, std::move(opnd),
              std::move(theta), nullptr, std::move(index_name),
              {std::move(set_name)}, "", static_cast<int64_t>(cmp));
}

/// IDX_JOIN<index>(A, B, kA, kB)[θ]: HASH_JOIN whose `indexed_side` (0 = A,
/// 1 = B) is served from a secondary index instead of a scan-built hash
/// table. Built by the physical lowering pass.
inline ExprPtr IndexJoin(std::string index_name, int64_t indexed_side,
                         PredicatePtr theta, ExprPtr a, ExprPtr b, ExprPtr lkey,
                         ExprPtr rkey) {
  return Make(OpKind::kIndexJoin,
              {std::move(a), std::move(b), std::move(lkey), std::move(rkey)},
              nullptr, std::move(theta), nullptr, std::move(index_name), {}, "",
              indexed_side);
}

/// Shorthand for TUP_EXTRACT chains: Path({"a","b"}, Input()) is
/// TUP_EXTRACT_b(TUP_EXTRACT_a(INPUT)).
inline ExprPtr Path(const std::vector<std::string>& fields, ExprPtr base) {
  ExprPtr e = std::move(base);
  for (const auto& f : fields) e = TupExtract(f, std::move(e));
  return e;
}

// Predicate atom helpers.
inline PredicatePtr Eq(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kEq, std::move(b));
}
inline PredicatePtr Ne(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kNe, std::move(b));
}
inline PredicatePtr Lt(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kLt, std::move(b));
}
inline PredicatePtr Le(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kLe, std::move(b));
}
inline PredicatePtr Gt(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kGt, std::move(b));
}
inline PredicatePtr Ge(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kGe, std::move(b));
}
inline PredicatePtr In(ExprPtr a, ExprPtr b) {
  return Predicate::Atom(std::move(a), CmpOp::kIn, std::move(b));
}

// Literal shorthands.
inline ExprPtr IntLit(int64_t v) { return Const(Value::Int(v)); }
inline ExprPtr FloatLit(double v) { return Const(Value::Float(v)); }
inline ExprPtr StrLit(std::string v) { return Const(Value::Str(std::move(v))); }
inline ExprPtr BoolLit(bool v) { return Const(Value::Bool(v)); }

}  // namespace alg
}  // namespace excess

#endif  // EXCESS_CORE_BUILDER_H_
