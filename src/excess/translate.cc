#include "excess/translate.h"

#include <algorithm>
#include <set>

#include "core/analysis.h"
#include "core/builder.h"
#include "util/string_util.h"

namespace excess {

namespace {

bool IsAnySchema(const SchemaPtr& s) {
  return s->is_val() && s->scalar_kind() == ScalarKind::kAny;
}

SchemaPtr ElemOf(const SchemaPtr& s) {
  if (IsAnySchema(s)) return AnySchema();
  return s->elem();
}

/// Display-name derivation for unnamed targets / keys: the last path
/// component, the bare variable name, or "".
std::string DeriveName(const ExprAstPtr& e) {
  switch (e->kind) {
    case ExprAst::Kind::kField:
      return e->text;
    case ExprAst::Kind::kName:
      return e->text;
    case ExprAst::Kind::kIndex:
    case ExprAst::Kind::kSlice:
      return DeriveName(e->base);
    case ExprAst::Kind::kCall:
    case ExprAst::Kind::kAgg:
      return e->text;
    default:
      return "";
  }
}

}  // namespace

// -----------------------------------------------------------------------------
// DDL: surface types to schemas.
// -----------------------------------------------------------------------------

Result<SchemaPtr> Translator::BuildSchema(const TypeAstPtr& type) const {
  EXA_RETURN_NOT_OK(CheckDepth());
  DepthGuard guard(&depth_);
  switch (type->kind) {
    case TypeAst::Kind::kNamed: {
      const std::string& n = type->name;
      if (n == "int4" || n == "int2" || n == "int8" || n == "int") {
        return IntSchema();
      }
      if (n == "float4" || n == "float8" || n == "float") return FloatSchema();
      if (n == "char" || n == "varchar" || n == "string" || n == "text") {
        return StringSchema();
      }
      if (n == "bool" || n == "boolean") return BoolSchema();
      if (n == "date" || n == "Date") return DateSchema();
      if (n == "any") return AnySchema();  // dynamic; used by the emitter
      // A user type by value: inline its effective schema (tagged).
      if (db_->catalog().HasType(n)) return db_->catalog().EffectiveSchema(n);
      return Status::NotFound(StrCat("unknown type '", n, "'"));
    }
    case TypeAst::Kind::kTuple: {
      std::vector<Field> fields;
      for (const auto& [fname, ftype] : type->fields) {
        EXA_ASSIGN_OR_RETURN(SchemaPtr fs, BuildSchema(ftype));
        fields.push_back({fname, std::move(fs)});
      }
      return Schema::Tup(std::move(fields));
    }
    case TypeAst::Kind::kSet: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr elem, BuildSchema(type->elem));
      return Schema::Set(std::move(elem));
    }
    case TypeAst::Kind::kArray: {
      EXA_ASSIGN_OR_RETURN(SchemaPtr elem, BuildSchema(type->elem));
      if (type->array_size.has_value()) {
        return Schema::FixedArr(std::move(elem), *type->array_size);
      }
      return Schema::Arr(std::move(elem));
    }
    case TypeAst::Kind::kRef:
      // Forward references are legal (Figure 1); Catalog::Validate checks.
      return Schema::Ref(type->name);
  }
  return Status::Internal("unknown surface type kind");
}

// ---------------------------------------------------------------------------
// Name collection.
// ---------------------------------------------------------------------------

void Translator::CollectNameUses(const ExprAstPtr& e,
                                 std::vector<std::string>* names,
                                 std::vector<std::string> bound) {
  if (e == nullptr) return;
  if (e->kind == ExprAst::Kind::kName) {
    for (const auto& b : bound) {
      if (b == e->text) return;
    }
    names->push_back(e->text);
    return;
  }
  if (e->kind == ExprAst::Kind::kAgg) {
    // Each `from` collection sees the variables declared before it; the
    // operand and `where` see all of them.
    std::vector<std::string> inner = bound;
    for (const auto& [v, c] : e->agg_from) {
      CollectNameUses(c, names, inner);
      inner.push_back(v);
    }
    CollectNameUses(e->base, names, inner);
    CollectNameUses(e->agg_where, names, inner);
    return;
  }
  CollectNameUses(e->base, names, bound);
  CollectNameUses(e->rhs, names, bound);
  CollectNameUses(e->rhs2, names, bound);
  for (const auto& a : e->args) CollectNameUses(a, names, bound);
  for (const auto& [n, a] : e->named_args) CollectNameUses(a, names, bound);
}

void Translator::CollectPathRoots(const ExprAstPtr& e,
                                  std::vector<std::string>* roots) {
  if (e == nullptr) return;
  if (e->kind == ExprAst::Kind::kAgg) return;  // aggregates scope themselves
  if (e->kind == ExprAst::Kind::kField || e->kind == ExprAst::Kind::kIndex ||
      e->kind == ExprAst::Kind::kSlice ||
      (e->kind == ExprAst::Kind::kCall && e->base != nullptr)) {
    // Walk to the root of the chain.
    ExprAstPtr root = e->base;
    while (root != nullptr &&
           (root->kind == ExprAst::Kind::kField ||
            root->kind == ExprAst::Kind::kIndex ||
            root->kind == ExprAst::Kind::kSlice ||
            (root->kind == ExprAst::Kind::kCall && root->base != nullptr))) {
      root = root->base;
    }
    if (root != nullptr && root->kind == ExprAst::Kind::kName) {
      roots->push_back(root->text);
    }
  }
  CollectPathRoots(e->base, roots);
  CollectPathRoots(e->rhs, roots);
  CollectPathRoots(e->rhs2, roots);
  for (const auto& a : e->args) CollectPathRoots(a, roots);
  for (const auto& [n, a] : e->named_args) CollectPathRoots(a, roots);
  for (const auto& [v, c] : e->agg_from) CollectPathRoots(c, roots);
  CollectPathRoots(e->agg_where, roots);
}

// --------------------------------------------------------------------------
// Expression translation.
// ---------------------------------------------------------------------------

Result<Translator::Typed> Translator::AutoDeref(Typed t) const {
  if (!t.schema->is_ref()) return t;
  const std::string& target = t.schema->ref_target();
  SchemaPtr resolved = AnySchema();
  if (db_->catalog().HasType(target)) {
    EXA_ASSIGN_OR_RETURN(resolved, db_->catalog().EffectiveSchema(target));
  }
  return Typed{alg::Deref(std::move(t.expr)), std::move(resolved)};
}

Result<Translator::Typed> Translator::TranslateField(
    const Typed& base_in, const std::string& field, const Scope& scope) const {
  EXA_ASSIGN_OR_RETURN(Typed base, AutoDeref(base_in));
  if (base.schema->is_set()) {
    // Projection into a multiset: E.kids.name maps over the members.
    SchemaPtr elem = ElemOf(base.schema);
    Typed elem_t{alg::Input(), elem};
    EXA_ASSIGN_OR_RETURN(Typed mapped, TranslateField(elem_t, field, scope));
    return Typed{alg::SetApply(mapped.expr, base.expr),
                 Schema::Set(mapped.schema)};
  }
  if (base.schema->is_tup()) {
    auto ft = base.schema->FieldType(field);
    if (ft.ok()) {
      return Typed{alg::TupExtract(field, base.expr), *ft};
    }
    // A zero-argument method acts as a virtual field (e.g. `age`).
    const std::string& tname = base.schema->type_name();
    if (methods_ != nullptr && !tname.empty()) {
      auto def = methods_->Dispatch(tname, field);
      if (def.ok()) {
        SchemaPtr out =
            (*def)->return_schema ? (*def)->return_schema : AnySchema();
        return Typed{alg::MethodCall(field, base.expr), std::move(out)};
      }
    }
    return ft.status();
  }
  if (IsAnySchema(base.schema)) {
    return Typed{alg::TupExtract(field, base.expr), AnySchema()};
  }
  return Status::TypeError(StrCat("field access '.", field,
                                  "' on non-tuple schema ",
                                  base.schema->ToString()));
}

Result<Translator::Typed> Translator::TranslateAgg(const ExprAstPtr& e,
                                                   const Scope& scope) const {
  auto result_schema = [&](const SchemaPtr& elem) -> SchemaPtr {
    if (e->text == "count") return IntSchema();
    if (e->text == "avg") return FloatSchema();
    if (e->text == "sum") {
      if (elem->is_val() && elem->scalar_kind() == ScalarKind::kInt) {
        return IntSchema();
      }
      if (elem->is_val() && elem->scalar_kind() == ScalarKind::kFloat) {
        return FloatSchema();
      }
      return AnySchema();
    }
    return elem;  // min/max
  };

  if (e->agg_from.empty() && e->agg_where == nullptr) {
    // Direct aggregate over a set-valued expression: min(E.kids.age).
    EXA_ASSIGN_OR_RETURN(Typed coll, TranslateExpr(e->base, scope));
    if (!coll.schema->is_set() && !IsAnySchema(coll.schema)) {
      return Status::TypeError(
          StrCat("aggregate '", e->text, "' over non-multiset ",
                 coll.schema->ToString()));
    }
    return Typed{alg::Agg(e->text, coll.expr),
                 result_schema(ElemOf(coll.schema))};
  }

  // Correlated sub-iteration: start the inner environments from the
  // *current* environment so outer variables stay visible.
  Scope inner = scope;
  ExprPtr envs;
  if (!scope.env.empty()) {
    envs = alg::SetMake(alg::Input());
  }
  for (const auto& [v, coll] : e->agg_from) {
    EXA_ASSIGN_OR_RETURN(envs, BindVar(&inner, std::move(envs), v, coll));
  }
  if (envs == nullptr) {
    return Status::Invalid("aggregate 'where' without iteration");
  }
  if (e->agg_where != nullptr) {
    EXA_ASSIGN_OR_RETURN(PredicatePtr pred,
                         TranslateBool(e->agg_where, inner));
    envs = alg::SetApply(alg::Comp(std::move(pred), alg::Input()),
                         std::move(envs));
  }
  EXA_ASSIGN_OR_RETURN(Typed mapped, TranslateExpr(e->base, inner));
  ExprPtr coll = alg::SetApply(mapped.expr, std::move(envs));
  SchemaPtr elem = mapped.schema;
  if (mapped.schema->is_set()) {
    // Set-valued per-environment results (e.g. E.kids.age) flatten.
    coll = alg::SetCollapse(std::move(coll));
    elem = ElemOf(mapped.schema);
  }
  return Typed{alg::Agg(e->text, std::move(coll)), result_schema(elem)};
}

Result<Translator::Typed> Translator::TranslateCall(const ExprAstPtr& e,
                                                    const Scope& scope) const {
  // Method invocation through a receiver.
  if (e->base != nullptr) {
    EXA_ASSIGN_OR_RETURN(Typed recv, TranslateExpr(e->base, scope));
    if (methods_ == nullptr) {
      return Status::Unsupported(
          StrCat("method call '.", e->text, "(...)' without a method registry"));
    }
    std::vector<ExprPtr> args;
    for (const auto& a : e->args) {
      EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(a, scope));
      args.push_back(std::move(t.expr));
    }
    // Best-effort static check + return schema through the declared type.
    std::string tname = recv.schema->is_ref() ? recv.schema->ref_target()
                                              : recv.schema->type_name();
    SchemaPtr out = AnySchema();
    if (!tname.empty()) {
      auto def = methods_->Dispatch(tname, e->text);
      if (!def.ok()) return def.status();
      if ((*def)->param_names.size() != args.size()) {
        return Status::TypeError(
            StrCat("method '", e->text, "' expects ",
                   (*def)->param_names.size(), " arguments, got ",
                   args.size()));
      }
      if ((*def)->return_schema != nullptr) out = (*def)->return_schema;
    }
    return Typed{alg::MethodCall(e->text, recv.expr, std::move(args)),
                 std::move(out)};
  }

  // Registered builtins (the paper's ADT-function extensibility story).
  auto expect_args = [&](size_t n) -> Status {
    if (e->args.size() != n) {
      return Status::Invalid(StrCat("builtin '", e->text, "' expects ", n,
                                    " argument(s), got ", e->args.size()));
    }
    return Status::OK();
  };
  auto arg = [&](size_t i) { return TranslateExpr(e->args[i], scope); };

  if (e->text == "deref") {
    EXA_RETURN_NOT_OK(expect_args(1));
    EXA_ASSIGN_OR_RETURN(Typed t, arg(0));
    if (!t.schema->is_ref() && !IsAnySchema(t.schema)) {
      return Status::TypeError("deref() of a non-reference");
    }
    return AutoDeref(std::move(t));
  }
  if (e->text == "mkref") {
    EXA_RETURN_NOT_OK(expect_args(1));
    EXA_ASSIGN_OR_RETURN(Typed t, arg(0));
    std::string target = t.schema->type_name();
    return Typed{alg::RefOp(t.expr, target),
                 Schema::Ref(target.empty() ? "$anon" : target)};
  }
  if (e->text == "de") {
    EXA_RETURN_NOT_OK(expect_args(1));
    EXA_ASSIGN_OR_RETURN(Typed t, arg(0));
    return Typed{alg::DupElim(t.expr), t.schema};
  }
  if (e->text == "collapse") {
    EXA_RETURN_NOT_OK(expect_args(1));
    EXA_ASSIGN_OR_RETURN(Typed t, arg(0));
    return Typed{alg::SetCollapse(t.expr),
                 t.schema->is_set() ? ElemOf(t.schema) : AnySchema()};
  }
  if (e->text == "arrcat") {
    EXA_RETURN_NOT_OK(expect_args(2));
    EXA_ASSIGN_OR_RETURN(Typed a, arg(0));
    EXA_ASSIGN_OR_RETURN(Typed b, arg(1));
    return Typed{alg::ArrCat(a.expr, b.expr), a.schema};
  }
  if (e->text == "arrcollapse") {
    EXA_RETURN_NOT_OK(expect_args(1));
    EXA_ASSIGN_OR_RETURN(Typed t, arg(0));
    return Typed{alg::ArrCollapse(t.expr),
                 t.schema->is_arr() ? ElemOf(t.schema) : AnySchema()};
  }
  if (e->text == "arrde") {
    EXA_RETURN_NOT_OK(expect_args(1));
    EXA_ASSIGN_OR_RETURN(Typed t, arg(0));
    return Typed{alg::ArrDupElim(t.expr), t.schema};
  }
  if (e->text == "arrdiff") {
    EXA_RETURN_NOT_OK(expect_args(2));
    EXA_ASSIGN_OR_RETURN(Typed a, arg(0));
    EXA_ASSIGN_OR_RETURN(Typed b, arg(1));
    return Typed{alg::ArrDiff(a.expr, b.expr), a.schema};
  }
  if (e->text == "arrcross") {
    EXA_RETURN_NOT_OK(expect_args(2));
    EXA_ASSIGN_OR_RETURN(Typed a, arg(0));
    EXA_ASSIGN_OR_RETURN(Typed b, arg(1));
    return Typed{alg::ArrCross(a.expr, b.expr),
                 Schema::Arr(Schema::Tup({{"_1", ElemOf(a.schema)},
                                          {"_2", ElemOf(b.schema)}}))};
  }
  if (e->text == "arrapply") {
    // arrapply(A, f): maps a registered unary function over the array.
    EXA_RETURN_NOT_OK(expect_args(2));
    EXA_ASSIGN_OR_RETURN(Typed a, arg(0));
    if (e->args[1]->kind != ExprAst::Kind::kName) {
      return Status::Invalid("arrapply() needs a function name");
    }
    if (methods_ == nullptr) {
      return Status::Unsupported("arrapply() without a method registry");
    }
    SchemaPtr elem = ElemOf(a.schema);
    std::string tname =
        elem->is_ref() ? elem->ref_target() : elem->type_name();
    EXA_ASSIGN_OR_RETURN(const MethodDef* def,
                         methods_->Dispatch(tname, e->args[1]->text));
    ExprPtr body = def->body;
    if (elem->is_ref()) {
      body = analysis::SubstituteInput(body, alg::Deref(alg::Input()));
    }
    return Typed{alg::ArrApply(std::move(body), a.expr),
                 Schema::Arr(def->return_schema ? def->return_schema
                                                : AnySchema())};
  }
  return Status::NotFound(StrCat("unknown function '", e->text, "'"));
}

Result<Translator::Typed> Translator::TranslateExpr(const ExprAstPtr& e,
                                                    const Scope& scope) const {
  EXA_RETURN_NOT_OK(CheckDepth());
  DepthGuard guard(&depth_);
  switch (e->kind) {
    case ExprAst::Kind::kIntLit:
      return Typed{alg::IntLit(e->int_value), IntSchema()};
    case ExprAst::Kind::kFloatLit:
      return Typed{alg::FloatLit(e->float_value), FloatSchema()};
    case ExprAst::Kind::kStrLit:
      return Typed{alg::StrLit(e->text), StringSchema()};
    case ExprAst::Kind::kBoolLit:
      return Typed{alg::BoolLit(e->bool_value), BoolSchema()};

    case ExprAst::Kind::kName: {
      if (const Binding* b = scope.Lookup(e->text); b != nullptr) {
        return Typed{b->path, b->schema};
      }
      int pi = scope.ParamIndex(e->text);
      if (pi >= 0) return Typed{alg::Param(pi), AnySchema()};
      if (db_->HasNamed(e->text)) {
        EXA_ASSIGN_OR_RETURN(SchemaPtr s, db_->NamedSchema(e->text));
        return Typed{alg::Var(e->text), std::move(s)};
      }
      return Status::NotFound(StrCat("unknown name '", e->text, "'"));
    }

    case ExprAst::Kind::kField: {
      EXA_ASSIGN_OR_RETURN(Typed base, TranslateExpr(e->base, scope));
      return TranslateField(base, e->text, scope);
    }

    case ExprAst::Kind::kIndex: {
      EXA_ASSIGN_OR_RETURN(Typed base0, TranslateExpr(e->base, scope));
      EXA_ASSIGN_OR_RETURN(Typed base, AutoDeref(std::move(base0)));
      if (!base.schema->is_arr() && !IsAnySchema(base.schema)) {
        return Status::TypeError(StrCat("indexing into non-array schema ",
                                        base.schema->ToString()));
      }
      if (e->index_is_last) {
        return Typed{alg::ArrExtractLast(base.expr), ElemOf(base.schema)};
      }
      if (e->rhs->kind != ExprAst::Kind::kIntLit) {
        return Status::Unsupported(
            "array subscripts must be integer literals or `last` (the "
            "ARR_EXTRACT operator is parameterized by a constant index)");
      }
      return Typed{alg::ArrExtract(e->rhs->int_value, base.expr),
                   ElemOf(base.schema)};
    }

    case ExprAst::Kind::kSlice: {
      EXA_ASSIGN_OR_RETURN(Typed base0, TranslateExpr(e->base, scope));
      EXA_ASSIGN_OR_RETURN(Typed base, AutoDeref(std::move(base0)));
      if (!base.schema->is_arr() && !IsAnySchema(base.schema)) {
        return Status::TypeError("slicing a non-array");
      }
      int64_t lo = 0;
      int64_t hi = 0;
      if (!e->lo_is_last) {
        if (e->rhs->kind != ExprAst::Kind::kIntLit) {
          return Status::Unsupported("slice bounds must be literals or `last`");
        }
        lo = e->rhs->int_value;
      }
      if (!e->hi_is_last) {
        if (e->rhs2->kind != ExprAst::Kind::kIntLit) {
          return Status::Unsupported("slice bounds must be literals or `last`");
        }
        hi = e->rhs2->int_value;
      }
      SchemaPtr out = IsAnySchema(base.schema)
                          ? Schema::Arr(AnySchema())
                          : Schema::Arr(base.schema->elem());
      return Typed{alg::SubArr(lo, hi, base.expr, e->lo_is_last,
                               e->hi_is_last),
                   std::move(out)};
    }

    case ExprAst::Kind::kCall:
      return TranslateCall(e, scope);
    case ExprAst::Kind::kAgg:
      return TranslateAgg(e, scope);

    case ExprAst::Kind::kBinary: {
      EXA_ASSIGN_OR_RETURN(Typed a, TranslateExpr(e->base, scope));
      EXA_ASSIGN_OR_RETURN(Typed b, TranslateExpr(e->rhs, scope));
      bool sets = a.schema->is_set() || b.schema->is_set();
      if (e->text == "union") {
        return Typed{alg::Union(a.expr, b.expr), a.schema};
      }
      if (e->text == "intersect") {
        return Typed{alg::Intersect(a.expr, b.expr), a.schema};
      }
      if (sets && e->text == "-") {
        return Typed{alg::Diff(a.expr, b.expr), a.schema};
      }
      if (sets && e->text == "+") {
        return Typed{alg::AddUnion(a.expr, b.expr), a.schema};
      }
      SchemaPtr out =
          (a.schema->is_val() && a.schema->scalar_kind() == ScalarKind::kInt &&
           b.schema->is_val() && b.schema->scalar_kind() == ScalarKind::kInt)
              ? IntSchema()
              : (a.schema->is_val() &&
                         a.schema->scalar_kind() == ScalarKind::kString
                     ? StringSchema()
                     : FloatSchema());
      if (IsAnySchema(a.schema) || IsAnySchema(b.schema)) out = AnySchema();
      return Typed{alg::Arith(e->text, a.expr, b.expr), std::move(out)};
    }

    case ExprAst::Kind::kSetLit: {
      if (e->args.empty()) {
        return Typed{alg::Const(Value::EmptySet()), Schema::Set(AnySchema())};
      }
      ExprPtr acc;
      SchemaPtr elem;
      for (const auto& el : e->args) {
        EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(el, scope));
        if (elem == nullptr) elem = t.schema;
        ExprPtr single = alg::SetMake(t.expr);
        acc = acc == nullptr ? std::move(single)
                             : alg::AddUnion(std::move(acc), std::move(single));
      }
      return Typed{std::move(acc), Schema::Set(std::move(elem))};
    }

    case ExprAst::Kind::kArrLit: {
      if (e->args.empty()) {
        return Typed{alg::Const(Value::EmptyArray()),
                     Schema::Arr(AnySchema())};
      }
      ExprPtr acc;
      SchemaPtr elem;
      for (const auto& el : e->args) {
        EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(el, scope));
        if (elem == nullptr) elem = t.schema;
        ExprPtr single = alg::ArrMake(t.expr);
        acc = acc == nullptr ? std::move(single)
                             : alg::ArrCat(std::move(acc), std::move(single));
      }
      return Typed{std::move(acc), Schema::Arr(std::move(elem))};
    }

    case ExprAst::Kind::kTupLit: {
      ExprPtr acc;
      std::vector<Field> fields;
      size_t k = 0;
      for (const auto& [name, el] : e->named_args) {
        ++k;
        std::string fname = name.empty() ? StrCat("_", k) : name;
        EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(el, scope));
        ExprPtr one = alg::TupMakeNamed(fname, t.expr);
        fields.push_back({fname, t.schema});
        acc = acc == nullptr ? std::move(one)
                             : alg::TupCat(std::move(acc), std::move(one));
      }
      if (acc == nullptr) {
        return Typed{alg::Const(Value::Tuple({}, {})), Schema::Tup({})};
      }
      return Typed{std::move(acc), Schema::Tup(std::move(fields))};
    }

    case ExprAst::Kind::kCompare:
    case ExprAst::Kind::kAnd:
    case ExprAst::Kind::kOr:
    case ExprAst::Kind::kNot:
      return Status::Unsupported(
          "boolean expressions are only allowed in where clauses");
  }
  return Status::Internal("unknown expression kind");
}

Result<PredicatePtr> Translator::TranslateBool(const ExprAstPtr& e,
                                               const Scope& scope) const {
  EXA_RETURN_NOT_OK(CheckDepth());
  DepthGuard guard(&depth_);
  switch (e->kind) {
    case ExprAst::Kind::kCompare: {
      EXA_ASSIGN_OR_RETURN(Typed a, TranslateExpr(e->base, scope));
      EXA_ASSIGN_OR_RETURN(Typed b, TranslateExpr(e->rhs, scope));
      CmpOp op;
      if (e->text == "=") op = CmpOp::kEq;
      else if (e->text == "!=") op = CmpOp::kNe;
      else if (e->text == "<") op = CmpOp::kLt;
      else if (e->text == "<=") op = CmpOp::kLe;
      else if (e->text == ">") op = CmpOp::kGt;
      else if (e->text == ">=") op = CmpOp::kGe;
      else if (e->text == "in") op = CmpOp::kIn;
      else return Status::Internal("unknown comparator spelling");
      return Predicate::Atom(a.expr, op, b.expr);
    }
    case ExprAst::Kind::kAnd: {
      EXA_ASSIGN_OR_RETURN(PredicatePtr a, TranslateBool(e->base, scope));
      EXA_ASSIGN_OR_RETURN(PredicatePtr b, TranslateBool(e->rhs, scope));
      return Predicate::And(std::move(a), std::move(b));
    }
    case ExprAst::Kind::kOr: {
      EXA_ASSIGN_OR_RETURN(PredicatePtr a, TranslateBool(e->base, scope));
      EXA_ASSIGN_OR_RETURN(PredicatePtr b, TranslateBool(e->rhs, scope));
      return Predicate::Or(std::move(a), std::move(b));
    }
    case ExprAst::Kind::kNot: {
      EXA_ASSIGN_OR_RETURN(PredicatePtr a, TranslateBool(e->base, scope));
      return Predicate::Not(std::move(a));
    }
    case ExprAst::Kind::kBoolLit:
      return e->bool_value
                 ? Predicate::True()
                 : Predicate::Not(Predicate::True());
    default:
      return Status::TypeError(
          "where clause must be a boolean combination of comparisons");
  }
}

// -----------------------------------------------------------------------------
// Environment pipeline.
// ----------------------------------------------------------------------------

Result<ExprPtr> Translator::BindVar(Scope* scope, ExprPtr envs,
                                    const std::string& var,
                                    const ExprAstPtr& coll_ast) const {
  EXA_ASSIGN_OR_RETURN(Typed coll, TranslateExpr(coll_ast, *scope));
  if (!coll.schema->is_set() && !IsAnySchema(coll.schema)) {
    return Status::TypeError(StrCat("'", var, "' must range over a multiset; ",
                                    coll_ast->text, " has schema ",
                                    coll.schema->ToString()));
  }
  SchemaPtr elem = ElemOf(coll.schema);
  if (envs == nullptr) {
    // First variable with no prior environment: the element is the
    // environment.
    scope->env.push_back({var, alg::Input(), std::move(elem)});
    return coll.expr;
  }
  // Pair every environment env with every element of coll(env): an
  // INPUT-free range is one plain CROSS (so a filter over it can become a
  // join); a correlated one is crossed per environment and flattened.
  ExprPtr out =
      analysis::ContainsFreeInput(coll.expr)
          ? alg::SetCollapse(alg::SetApply(
                alg::Cross(alg::SetMake(alg::Input()), coll.expr),
                std::move(envs)))
          : alg::Cross(std::move(envs), coll.expr);
  ExprPtr first = alg::TupExtract("_1", alg::Input());
  for (Binding& b : scope->env) {
    b.path = analysis::SubstituteInput(b.path, first);
  }
  scope->env.push_back(
      {var, alg::TupExtract("_2", alg::Input()), std::move(elem)});
  return out;
}

Result<ExprPtr> Translator::TranslateRetrieve(
    const RetrieveStmt& stmt,
    const std::vector<std::pair<std::string, ExprAstPtr>>& ranges) const {
  Scope scope;
  return TranslateCore(stmt, ranges, std::move(scope), nullptr);
}

Result<ExprPtr> Translator::TranslateMethodBody(
    const RetrieveStmt& stmt, const std::vector<std::string>& params,
    const SchemaPtr& this_schema) const {
  // Plain bodies (no iteration, filter, or grouping) evaluate their single
  // target directly over the receiver — `age` is just an expression of
  // `this`. Bodies that iterate (`from K in this.kids ...`) go through the
  // full environment pipeline and return the multiset the retrieve
  // denotes.
  Scope scope;
  scope.params = params;
  scope.env.push_back({"this", alg::Input(), this_schema});
  if (stmt.from.empty() && stmt.where == nullptr && stmt.by.empty() &&
      stmt.targets.size() == 1 && stmt.targets[0].first.empty() &&
      !stmt.unique) {
    EXA_ASSIGN_OR_RETURN(Typed t,
                         TranslateExpr(stmt.targets[0].second, scope));
    return t.expr;
  }
  return TranslateCore(stmt, {}, std::move(scope),
                       alg::SetMake(alg::Input()));
}

Result<ExprPtr> Translator::TranslateClosedExpr(const ExprAstPtr& e) const {
  Scope scope;
  EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(e, scope));
  return t.expr;
}

Result<ExprPtr> Translator::TranslateDeletePlan(const std::string& target,
                                                const ExprAstPtr& pred) const {
  EXA_ASSIGN_OR_RETURN(SchemaPtr set_schema, db_->NamedSchema(target));
  if (!set_schema->is_set()) {
    return Status::TypeError(
        StrCat("delete requires a multiset object; '", target, "' is ",
               set_schema->ToString()));
  }
  Scope scope;
  scope.env.push_back({target, alg::Input(), set_schema->elem()});
  EXA_ASSIGN_OR_RETURN(PredicatePtr p, TranslateBool(pred, scope));
  // matching = { x | x ∈ target, pred(x) }; result = target − matching.
  // Subtracting (rather than keeping ¬pred) retains unknown-predicate
  // occurrences unchanged.
  ExprPtr matching =
      alg::SetApply(alg::Comp(std::move(p), alg::Input()), alg::Var(target));
  return alg::Diff(alg::Var(target), std::move(matching));
}

Result<ExprPtr> Translator::TranslateCore(
    const RetrieveStmt& stmt,
    const std::vector<std::pair<std::string, ExprAstPtr>>& ranges, Scope scope,
    ExprPtr initial_env) const {
  // ---- 1. Which names does the query mention, and with paths? ------------
  std::vector<std::string> used_names;
  std::vector<std::string> path_roots;
  auto collect = [&](const ExprAstPtr& e) {
    CollectNameUses(e, &used_names);
    CollectPathRoots(e, &path_roots);
  };
  for (const auto& [n, t] : stmt.targets) collect(t);
  for (const auto& k : stmt.by) collect(k);
  collect(stmt.where);
  for (const auto& fc : stmt.from) collect(fc.collection);

  auto is_used = [&](const std::string& n) {
    return std::find(used_names.begin(), used_names.end(), n) !=
           used_names.end();
  };
  std::set<std::string> explicit_vars;
  for (const auto& fc : stmt.from) explicit_vars.insert(fc.var);
  for (const auto& b : scope.env) explicit_vars.insert(b.var);

  // ---- 2. Iteration sources in dependency order. --------------------------
  std::vector<std::pair<std::string, ExprAstPtr>> iters;
  for (const auto& [v, coll] : ranges) {
    if (is_used(v) && explicit_vars.count(v) == 0) iters.emplace_back(v, coll);
  }
  for (const auto& fc : stmt.from) iters.emplace_back(fc.var, fc.collection);
  // Implicit ranges: a named multiset accessed through a path iterates.
  for (const auto& root : path_roots) {
    bool already = explicit_vars.count(root) > 0 ||
                   std::any_of(iters.begin(), iters.end(),
                               [&](const auto& p) { return p.first == root; });
    if (already || scope.ParamIndex(root) >= 0) continue;
    if (!db_->HasNamed(root)) continue;
    auto s = db_->NamedSchema(root);
    if (!s.ok() || !(*s)->is_set()) continue;
    auto name_ast = std::make_shared<ExprAst>();
    name_ast->kind = ExprAst::Kind::kName;
    name_ast->text = root;
    iters.emplace_back(root, std::move(name_ast));
  }

  // ---- 3. Build the environments. ------------------------------------------
  ExprPtr envs = std::move(initial_env);
  for (const auto& [v, coll] : iters) {
    EXA_ASSIGN_OR_RETURN(envs, BindVar(&scope, std::move(envs), v, coll));
  }

  // ---- 4. where -> COMP. ----------------------------------------------------
  PredicatePtr pred;
  if (stmt.where != nullptr) {
    EXA_ASSIGN_OR_RETURN(pred, TranslateBool(stmt.where, scope));
  }
  if (envs != nullptr && pred != nullptr) {
    envs = alg::SetApply(alg::Comp(pred, alg::Input()), std::move(envs));
    pred = nullptr;
  }

  // ---- 5. Target tuple over one environment. ------------------------------
  if (stmt.targets.empty()) {
    return Status::Invalid("retrieve needs at least one target");
  }
  ExprPtr target;
  SchemaPtr target_schema;
  if (stmt.targets.size() == 1 && stmt.targets[0].first.empty()) {
    EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(stmt.targets[0].second, scope));
    target = std::move(t.expr);
    target_schema = std::move(t.schema);
  } else {
    std::set<std::string> seen;
    for (const auto& [name, texpr] : stmt.targets) {
      std::string fname = name.empty() ? DeriveName(texpr) : name;
      if (fname.empty()) fname = StrCat("_", seen.size() + 1);
      std::string unique_name = fname;
      int suffix = 2;
      while (!seen.insert(unique_name).second) {
        unique_name = StrCat(fname, "_", suffix++);
      }
      EXA_ASSIGN_OR_RETURN(Typed t, TranslateExpr(texpr, scope));
      ExprPtr one = alg::TupMakeNamed(unique_name, t.expr);
      target = target == nullptr
                   ? std::move(one)
                   : alg::TupCat(std::move(target), std::move(one));
    }
    target_schema = AnySchema();
  }

  // ---- 6. Assemble. ---------------------------------------------------------
  if (envs == nullptr) {
    ExprPtr result = std::move(target);
    if (pred != nullptr) result = alg::Comp(std::move(pred), std::move(result));
    if (!stmt.by.empty()) {
      return Status::Invalid("'by' requires at least one range variable");
    }
    if (stmt.unique) {
      if (target_schema != nullptr && target_schema->is_arr()) {
        result = alg::ArrDupElim(std::move(result));
      } else {
        result = alg::DupElim(std::move(result));
      }
    }
    return result;
  }

  if (stmt.by.empty()) {
    ExprPtr result = alg::SetApply(std::move(target), std::move(envs));
    if (stmt.unique) result = alg::DupElim(std::move(result));
    return result;
  }

  // Grouped retrieval: GRP on the key, then project (and dedupe) within
  // each group.
  ExprPtr key;
  if (stmt.by.size() == 1) {
    EXA_ASSIGN_OR_RETURN(Typed k, TranslateExpr(stmt.by[0], scope));
    key = std::move(k.expr);
  } else {
    size_t i = 0;
    for (const auto& kexpr : stmt.by) {
      ++i;
      EXA_ASSIGN_OR_RETURN(Typed k, TranslateExpr(kexpr, scope));
      ExprPtr one = alg::TupMakeNamed(StrCat("_", i), k.expr);
      key = key == nullptr ? std::move(one)
                           : alg::TupCat(std::move(key), std::move(one));
    }
  }
  ExprPtr inner = alg::SetApply(std::move(target), alg::Input());
  if (stmt.unique) inner = alg::DupElim(std::move(inner));
  return alg::SetApply(std::move(inner),
                       alg::Group(std::move(key), std::move(envs)));
}

}  // namespace excess
