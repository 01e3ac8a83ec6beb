#ifndef EXCESS_EXCESS_TRANSLATE_H_
#define EXCESS_EXCESS_TRANSLATE_H_

#include <map>
#include <string>
#include <vector>

#include "core/expr.h"
#include "excess/ast.h"
#include "methods/registry.h"
#include "objects/database.h"
#include "util/status.h"

namespace excess {

/// EXCESS → algebra translation (the first half of the §3.4 equipollence
/// theorem). The algorithm follows the proof sketch: all iteration sources
/// (explicit `range of` declarations actually used, `from` clauses, and
/// implicit ranges over named multisets accessed through paths) are
/// combined into one multiset of environments: the first variable's range
/// as is, each later one paired on by CROSS (or, when its range depends on
/// earlier variables, by a per-environment CROSS flattened with
/// SET_COLLAPSE). Each variable is read by an access path of `_1`/`_2`
/// extractions into the nested pair. The `where` clause becomes a COMP; the
/// target list a projection; `by` a GRP; `unique` a DE.
///
/// Reference-typed values are dereferenced lazily at field access, so a
/// query returning range variables over `{ ref T }` returns the
/// references themselves (identity), while any `.field` step inserts a
/// DEREF — mirroring EXCESS's uniform dot notation.
class Translator {
 public:
  /// `methods` may be null; then method-call syntax is rejected.
  Translator(const Database* db, const MethodRegistry* methods)
      : db_(db), methods_(methods) {}

  /// Builds the schema declared by an EXTRA surface type. Named user types
  /// are inlined by value (substitutability via exact-type tags); `ref T`
  /// stays symbolic.
  Result<SchemaPtr> BuildSchema(const TypeAstPtr& type) const;

  /// Translates a retrieve statement. `ranges` are the session's `range
  /// of` declarations in declaration order (only those actually referenced
  /// are iterated).
  Result<ExprPtr> TranslateRetrieve(
      const RetrieveStmt& stmt,
      const std::vector<std::pair<std::string, ExprAstPtr>>& ranges) const;

  /// Translates a method body (a retrieve over `this`): the result is an
  /// expression over INPUT (= the receiver, with schema `this_schema`) and
  /// kParam placeholders for `params`.
  Result<ExprPtr> TranslateMethodBody(const RetrieveStmt& stmt,
                                      const std::vector<std::string>& params,
                                      const SchemaPtr& this_schema) const;

  /// Translates a closed (variable-free) expression — append values, etc.
  Result<ExprPtr> TranslateClosedExpr(const ExprAstPtr& e) const;

  /// Plan computing the new value of `target` after `delete target where
  /// pred`: the original multiset minus the occurrences matching the
  /// predicate (in which `target` names the element). Unknown-predicate
  /// occurrences survive, following the usual conservative delete.
  Result<ExprPtr> TranslateDeletePlan(const std::string& target,
                                      const ExprAstPtr& pred) const;

 private:
  struct Typed {
    ExprPtr expr;
    SchemaPtr schema;
  };
  /// Variables visible to expressions: range and from variables plus
  /// `this`, each read from the environment (INPUT) by an access path, and
  /// method parameters.
  struct Binding {
    std::string var;  // surface name
    ExprPtr path;     // the variable's value as an expression over INPUT
    SchemaPtr schema;
  };
  struct Scope {
    // Env bindings in binding order; an aggregate's `from` variable may
    // shadow an outer variable of the same name. Lookups resolve to the
    // *latest* binding.
    std::vector<Binding> env;
    std::vector<std::string> params;

    const Binding* Lookup(const std::string& name) const {
      for (auto it = env.rbegin(); it != env.rend(); ++it) {
        if (it->var == name) return &*it;
      }
      return nullptr;
    }
    bool HasVar(const std::string& name) const {
      return Lookup(name) != nullptr;
    }
    SchemaPtr VarSchema(const std::string& name) const {
      const Binding* b = Lookup(name);
      return b != nullptr ? b->schema : nullptr;
    }
    int ParamIndex(const std::string& name) const {
      for (size_t i = 0; i < params.size(); ++i) {
        if (params[i] == name) return static_cast<int>(i);
      }
      return -1;
    }
  };

  Result<ExprPtr> TranslateCore(
      const RetrieveStmt& stmt,
      const std::vector<std::pair<std::string, ExprAstPtr>>& ranges,
      Scope scope, ExprPtr initial_env) const;

  /// Extends the environment pipeline with one iteration variable bound to
  /// `coll_ast` (translated in the current scope). Updates scope and
  /// returns the new environment expression.
  Result<ExprPtr> BindVar(Scope* scope, ExprPtr envs, const std::string& var,
                          const ExprAstPtr& coll_ast) const;

  /// Collects names referenced with a field/index path rooted at them (the
  /// trigger for implicit ranges over named multisets). Aggregate operands
  /// are skipped: "the variable ranges over the set within the scope of the
  /// aggregate" (§2.2), so paths inside an aggregate never iterate the
  /// enclosing query.
  static void CollectPathRoots(const ExprAstPtr& e,
                               std::vector<std::string>* roots);
  /// Collects *free* name uses: names bound by an enclosing aggregate's
  /// `from` clauses are not free within the aggregate (QUEL scoping — "the
  /// variable E ranges over Employees within the scope of the min
  /// aggregate"), so an outer `range of E` declaration is not triggered by
  /// them.
  static void CollectNameUses(const ExprAstPtr& e,
                              std::vector<std::string>* names,
                              std::vector<std::string> bound = {});

  Result<Typed> TranslateExpr(const ExprAstPtr& e, const Scope& scope) const;
  Result<PredicatePtr> TranslateBool(const ExprAstPtr& e,
                                     const Scope& scope) const;
  Result<Typed> TranslateField(const Typed& base, const std::string& field,
                               const Scope& scope) const;
  Result<Typed> TranslateAgg(const ExprAstPtr& e, const Scope& scope) const;
  Result<Typed> TranslateCall(const ExprAstPtr& e, const Scope& scope) const;

  /// Dereference through a ref schema: wraps `t` in DEREF and resolves the
  /// target schema (identity when not a ref).
  Result<Typed> AutoDeref(Typed t) const;

  /// The parser caps AST nesting at 200, but ASTs can also be built
  /// directly; translation recurses over them (including re-entering
  /// TranslateCore for nested aggregates), so it carries its own guard —
  /// comfortably above anything a legal parse produces.
  static constexpr int kMaxDepth = 500;
  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
    ~DepthGuard() { --*depth_; }
    int* depth_;
  };
  Status CheckDepth() const {
    if (depth_ >= kMaxDepth) {
      return Status::ResourceExhausted("expression nesting too deep to translate");
    }
    return Status::OK();
  }

  const Database* db_;
  const MethodRegistry* methods_;
  mutable int depth_ = 0;  // guards recursion in const translate methods
};

}  // namespace excess

#endif  // EXCESS_EXCESS_TRANSLATE_H_
