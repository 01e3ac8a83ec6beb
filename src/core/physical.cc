#include "core/physical.h"

#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/builder.h"
#include "obs/metrics.h"

namespace excess {

namespace {

/// Shared state of one lowering pass. With a null cost model the pass is
/// the classic hash-join-only lowering; the index rules need the database
/// (for index lookup) and the cost model (to compete against the scan).
struct LowerCtx {
  const Database* db = nullptr;
  const CostModel* cost = nullptr;
  RewriteObserver* observer = nullptr;
};

/// Flattens the ∧-spine of a predicate into its conjuncts.
void Conjuncts(const PredicatePtr& p, std::vector<PredicatePtr>* out) {
  if (p->kind == Predicate::Kind::kAnd) {
    Conjuncts(p->a, out);
    Conjuncts(p->b, out);
    return;
  }
  out->push_back(p);
}

/// If `p` is an equality atom joining the two halves of the pair, extracts
/// the per-element key expressions (INPUT re-bound from the pair to an
/// element of the matching side). A side without free INPUT is a constant —
/// that atom is a selection, not a join key.
bool EquiKeys(const Predicate& p, ExprPtr* lkey, ExprPtr* rkey) {
  if (p.kind != Predicate::Kind::kAtom || p.cmp != CmpOp::kEq) return false;
  if (!analysis::ContainsFreeInput(p.lhs) ||
      !analysis::ContainsFreeInput(p.rhs)) {
    return false;
  }
  if (analysis::DependsOnlyOnField(p.lhs, "_1") &&
      analysis::DependsOnlyOnField(p.rhs, "_2")) {
    *lkey = analysis::StripFieldExtract(p.lhs, "_1");
    *rkey = analysis::StripFieldExtract(p.rhs, "_2");
    return true;
  }
  if (analysis::DependsOnlyOnField(p.lhs, "_2") &&
      analysis::DependsOnlyOnField(p.rhs, "_1")) {
    *lkey = analysis::StripFieldExtract(p.rhs, "_1");
    *rkey = analysis::StripFieldExtract(p.lhs, "_2");
    return true;
  }
  return false;
}

/// Matches SET_APPLY[COMP_θ(INPUT)](CROSS(A, B)) with an equality atom
/// between the sides and builds the HASH_JOIN replacement, or returns null.
ExprPtr TryHashJoin(const ExprPtr& e) {
  if (e->kind() != OpKind::kSetApply || !e->type_filter().empty()) {
    return nullptr;
  }
  const ExprPtr& sub = e->sub();
  if (sub->kind() != OpKind::kComp ||
      sub->child(0)->kind() != OpKind::kInput) {
    return nullptr;
  }
  const ExprPtr& cross = e->child(0);
  if (cross->kind() != OpKind::kCross) return nullptr;

  std::vector<PredicatePtr> conj;
  Conjuncts(sub->pred(), &conj);
  std::vector<ExprPtr> lkeys, rkeys;
  for (const auto& c : conj) {
    ExprPtr lk, rk;
    if (EquiKeys(*c, &lk, &rk)) {
      lkeys.push_back(std::move(lk));
      rkeys.push_back(std::move(rk));
    }
  }
  if (lkeys.empty()) return nullptr;

  ExprPtr lkey, rkey;
  if (lkeys.size() == 1) {
    lkey = std::move(lkeys[0]);
    rkey = std::move(rkeys[0]);
  } else {
    // Composite key: a positional tuple per side. Tuple equality compares
    // positionally on values, so key equality is the conjunction of the
    // atoms; a dne/unk component poisons the whole key through the
    // evaluator's uniform null propagation, which is what routes the
    // element to the right fallback bucket.
    lkey = alg::TupMake(std::move(lkeys[0]));
    rkey = alg::TupMake(std::move(rkeys[0]));
    for (size_t i = 1; i < lkeys.size(); ++i) {
      lkey = alg::TupCat(std::move(lkey), alg::TupMake(std::move(lkeys[i])));
      rkey = alg::TupCat(std::move(rkey), alg::TupMake(std::move(rkeys[i])));
    }
  }
  return alg::HashJoin(sub->pred(), cross->child(0), cross->child(1),
                       std::move(lkey), std::move(rkey));
}

/// Parses a pure extraction path over a free INPUT — a TUP_EXTRACT chain
/// with DEREFs interleaved — exactly as the index extractor walks it
/// (derefs happen lazily en route to the next field, never after the last
/// one). Appends field names to `path`.
bool ExtractionPath(const ExprPtr& e, std::vector<std::string>* path) {
  switch (e->kind()) {
    case OpKind::kInput:
      return true;
    case OpKind::kDeref:
      return ExtractionPath(e->child(0), path);
    case OpKind::kTupExtract: {
      if (!ExtractionPath(e->child(0), path)) return false;
      path->push_back(e->name());
      return true;
    }
    default:
      return false;
  }
}

/// True when the compared value is a *dereferenced* object (the expression
/// ends in DEREF): the extractor never derefs after the last field, so such
/// keys only line up with an index when more fields follow the deref.
bool EndsInDeref(const ExprPtr& e) { return e->kind() == OpKind::kDeref; }

/// A probe can be hoisted out of the per-element predicate only when it is
/// closed (no free INPUT) and side-effect-free / deterministic (no REF
/// interning, no method dispatch).
bool HoistableProbe(const ExprPtr& e) {
  return !analysis::ContainsFreeInput(e) && analysis::IsParallelSafe(e);
}

const RewriteRule& IndexProbeRule() {
  static const RewriteRule rule{0, "lower-index-probe", true, nullptr};
  return rule;
}

const RewriteRule& IndexJoinRule() {
  static const RewriteRule rule{0, "lower-index-join", true, nullptr};
  return rule;
}

ExprPtr Adopt(const RewriteRule& rule, const LowerCtx& lctx,
              const ExprPtr& before, ExprPtr after) {
  obs::MetricsRegistry::Global()
      .GetCounter("rules.fired." + rule.name)
      ->Increment();
  if (lctx.observer != nullptr) {
    lctx.observer->OnRewrite("lowering", rule, before, after);
  }
  return after;
}

/// Matches SET_APPLY[χ(COMP_θ(opnd))](Var(S)) where χ is a (possibly
/// empty) chain of TUP_EXTRACT/DEREF steps, opnd is a pure extraction path,
/// and θ's ∧-spine holds an atom comparing another extraction path (over
/// the operand result) against a hoistable probe, covered by an index on S
/// over the concatenated path. Returns the cheapest replacement that beats
/// the scan's estimate, or null: the bare
/// IDX_PROBE when χ is empty, else SET_APPLY[χ'(INPUT)](IDX_PROBE) — χ
/// maps the dropped dne and retained unk occurrences exactly as the fused
/// logical subscript did (extraction steps send unk to unk, dne to dne).
ExprPtr TryIndexProbe(const ExprPtr& e, const LowerCtx& lctx) {
  if (lctx.cost == nullptr) return nullptr;
  if (e->kind() != OpKind::kSetApply || !e->type_filter().empty()) {
    return nullptr;
  }
  if (e->child(0)->kind() != OpKind::kVar) return nullptr;
  // Peel the pure extraction suffix χ off the subscript (rule-15 fusion
  // leaves the projection wrapped around the COMP in translated plans).
  std::vector<const Expr*> suffix;  // outermost first
  ExprPtr sub = e->sub();
  while (sub->kind() == OpKind::kTupExtract ||
         sub->kind() == OpKind::kDeref) {
    suffix.push_back(sub.get());
    sub = sub->child(0);
  }
  if (sub->kind() != OpKind::kComp) return nullptr;
  const std::string& set_name = e->child(0)->name();
  std::vector<const SecondaryIndex*> indexes = lctx.db->IndexesOn(set_name);
  if (indexes.empty()) return nullptr;

  // The operand feeds θ its INPUT.
  const ExprPtr& opnd = sub->child(0);
  std::vector<std::string> opnd_path;
  if (!ExtractionPath(opnd, &opnd_path)) return nullptr;
  const bool opnd_derefs_last = EndsInDeref(opnd);

  auto base_est = lctx.cost->Estimate(e);
  if (!base_est.ok()) return nullptr;
  double best_total = base_est->total;
  ExprPtr best;

  std::vector<PredicatePtr> conj;
  Conjuncts(sub->pred(), &conj);
  for (const auto& c : conj) {
    if (c->kind != Predicate::Kind::kAtom) continue;
    // Normalize to path-on-the-left: = is symmetric, ordered comparisons
    // mirror, and 'in' only serves the path as the (left) member side.
    struct Form {
      const ExprPtr& path_side;
      const ExprPtr& probe;
      CmpOp cmp;
    };
    std::vector<Form> forms;
    forms.push_back({c->lhs, c->rhs, c->cmp});
    switch (c->cmp) {
      case CmpOp::kEq:
        forms.push_back({c->rhs, c->lhs, CmpOp::kEq});
        break;
      case CmpOp::kLt:
        forms.push_back({c->rhs, c->lhs, CmpOp::kGt});
        break;
      case CmpOp::kLe:
        forms.push_back({c->rhs, c->lhs, CmpOp::kGe});
        break;
      case CmpOp::kGt:
        forms.push_back({c->rhs, c->lhs, CmpOp::kLt});
        break;
      case CmpOp::kGe:
        forms.push_back({c->rhs, c->lhs, CmpOp::kLe});
        break;
      default:
        break;
    }
    for (const Form& f : forms) {
      if (f.cmp == CmpOp::kNe) continue;
      std::vector<std::string> atom_path;
      if (!ExtractionPath(f.path_side, &atom_path)) continue;
      if (EndsInDeref(f.path_side)) continue;
      // A trailing deref in the operand is only reachable when the atom
      // navigates on into the dereferenced object.
      if (opnd_derefs_last && atom_path.empty()) continue;
      if (!HoistableProbe(f.probe)) continue;
      std::vector<std::string> full = opnd_path;
      full.insert(full.end(), atom_path.begin(), atom_path.end());
      const bool range_cmp = f.cmp == CmpOp::kLt || f.cmp == CmpOp::kLe ||
                             f.cmp == CmpOp::kGt || f.cmp == CmpOp::kGe;
      for (const SecondaryIndex* idx : indexes) {
        if (idx->def().path != full) continue;
        if (range_cmp && idx->def().kind != IndexKind::kOrdered) continue;
        ExprPtr cand = alg::IndexProbe(idx->def().name, set_name, f.cmp,
                                       f.probe, opnd, sub->pred());
        if (!suffix.empty()) {
          // Re-wrap the peeled extraction steps around the probe's output.
          ExprPtr chi = alg::Input();
          for (auto it = suffix.rbegin(); it != suffix.rend(); ++it) {
            chi = (*it)->kind() == OpKind::kDeref
                      ? alg::Deref(std::move(chi))
                      : alg::TupExtract((*it)->name(), std::move(chi));
          }
          cand = alg::SetApply(std::move(chi), std::move(cand));
        }
        auto est = lctx.cost->Estimate(cand);
        if (!est.ok() || est->total >= best_total) continue;
        best_total = est->total;
        best = std::move(cand);
      }
    }
  }
  return best;
}

/// Post-processes a freshly lowered HASH_JOIN: when one side is Var(S) (or
/// a pure extraction-path SET_APPLY over Var(S)) and that side's key binder
/// concatenates with the mapping into the path of an index on S, the join
/// can be served from the index without ever scanning S. Returns the
/// cheapest IDX_JOIN that beats the hash join's estimate, or null.
ExprPtr TryIndexJoin(const ExprPtr& hj, const LowerCtx& lctx) {
  if (lctx.cost == nullptr || hj->kind() != OpKind::kHashJoin) return nullptr;
  auto base_est = lctx.cost->Estimate(hj);
  if (!base_est.ok()) return nullptr;
  double best_total = base_est->total;
  ExprPtr best;
  for (size_t side = 0; side < 2; ++side) {
    const ExprPtr& child = hj->child(side);
    std::string set_name;
    ExprPtr transform;
    if (child->kind() == OpKind::kVar) {
      set_name = child->name();
    } else if (child->kind() == OpKind::kSetApply &&
               child->type_filter().empty() &&
               child->child(0)->kind() == OpKind::kVar) {
      set_name = child->child(0)->name();
      transform = child->sub();
    } else {
      continue;
    }
    std::vector<std::string> path;
    if (transform != nullptr && !ExtractionPath(transform, &path)) continue;
    const ExprPtr& binder = hj->child(2 + side);
    std::vector<std::string> binder_path;
    if (!ExtractionPath(binder, &binder_path)) continue;
    if (EndsInDeref(binder)) continue;
    if (transform != nullptr && EndsInDeref(transform) &&
        binder_path.empty()) {
      continue;  // the dereferenced element is keyed, not the raw one
    }
    path.insert(path.end(), binder_path.begin(), binder_path.end());
    for (const SecondaryIndex* idx : lctx.db->IndexesOn(set_name)) {
      if (idx->def().path != path) continue;
      ExprPtr cand = alg::IndexJoin(idx->def().name,
                                    static_cast<int64_t>(side), hj->pred(),
                                    hj->child(0), hj->child(1), hj->child(2),
                                    hj->child(3));
      auto est = lctx.cost->Estimate(cand);
      if (!est.ok() || est->total >= best_total) continue;
      best_total = est->total;
      best = std::move(cand);
    }
  }
  return best;
}

ExprPtr LowerNode(const ExprPtr& e, const LowerCtx& lctx);

PredicatePtr LowerPredicate(const PredicatePtr& p, const LowerCtx& lctx) {
  switch (p->kind) {
    case Predicate::Kind::kAtom: {
      ExprPtr l = LowerNode(p->lhs, lctx);
      ExprPtr r = LowerNode(p->rhs, lctx);
      if (l == p->lhs && r == p->rhs) return p;
      return Predicate::Atom(std::move(l), p->cmp, std::move(r));
    }
    case Predicate::Kind::kAnd: {
      PredicatePtr a = LowerPredicate(p->a, lctx);
      PredicatePtr b = LowerPredicate(p->b, lctx);
      if (a == p->a && b == p->b) return p;
      return Predicate::And(std::move(a), std::move(b));
    }
    case Predicate::Kind::kOr: {
      PredicatePtr a = LowerPredicate(p->a, lctx);
      PredicatePtr b = LowerPredicate(p->b, lctx);
      if (a == p->a && b == p->b) return p;
      return Predicate::Or(std::move(a), std::move(b));
    }
    case Predicate::Kind::kNot: {
      PredicatePtr a = LowerPredicate(p->a, lctx);
      if (a == p->a) return p;
      return Predicate::Not(std::move(a));
    }
    case Predicate::Kind::kTrue:
      return p;
  }
  return p;
}

ExprPtr LowerNode(const ExprPtr& e, const LowerCtx& lctx) {
  if (e == nullptr) return e;
  // Bottom-up: lower children, subscript and predicate operands first, so
  // joins nested under other operators (or inside atoms) are found too.
  bool changed = false;
  std::vector<ExprPtr> kids;
  kids.reserve(e->num_children());
  for (const auto& c : e->children()) {
    ExprPtr nc = LowerNode(c, lctx);
    changed = changed || nc != c;
    kids.push_back(std::move(nc));
  }
  ExprPtr sub = e->sub() != nullptr ? LowerNode(e->sub(), lctx) : nullptr;
  changed = changed || sub != e->sub();
  PredicatePtr pred =
      e->pred() != nullptr ? LowerPredicate(e->pred(), lctx) : nullptr;
  changed = changed || pred != e->pred();
  ExprPtr cur =
      changed ? MakeExpr(e->kind(), std::move(kids), std::move(sub),
                         std::move(pred), e->literal(), e->name(), e->names(),
                         e->type_filter(), e->index(), e->lo(), e->hi(),
                         e->index_is_last(), e->lo_is_last(), e->hi_is_last())
              : e;
  if (ExprPtr hj = TryHashJoin(cur)) {
    if (ExprPtr ij = TryIndexJoin(hj, lctx)) {
      return Adopt(IndexJoinRule(), lctx, cur, std::move(ij));
    }
    return hj;
  }
  if (cur->kind() == OpKind::kHashJoin) {
    // A pre-lowered plan passed through again (e.g. re-optimization).
    if (ExprPtr ij = TryIndexJoin(cur, lctx)) {
      return Adopt(IndexJoinRule(), lctx, cur, std::move(ij));
    }
  }
  if (ExprPtr ip = TryIndexProbe(cur, lctx)) {
    return Adopt(IndexProbeRule(), lctx, cur, std::move(ip));
  }
  return cur;
}

}  // namespace

ExprPtr LowerPhysical(const ExprPtr& plan) {
  LowerCtx lctx;
  return LowerNode(plan, lctx);
}

ExprPtr LowerPhysical(const ExprPtr& plan, const Database* db,
                      const CostParams& params, RewriteObserver* observer) {
  if (db == nullptr) return LowerPhysical(plan);
  CostModel cost(db, params);
  LowerCtx lctx{db, &cost, observer};
  return LowerNode(plan, lctx);
}

}  // namespace excess
