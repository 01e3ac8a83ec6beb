#ifndef EXCESS_CORE_PHYSICAL_H_
#define EXCESS_CORE_PHYSICAL_H_

#include "core/cost.h"
#include "core/expr.h"
#include "core/rewriter.h"
#include "objects/database.h"

namespace excess {

/// Physical lowering: the last planner phase, run after the rewrite rules
/// (which only ever see logical trees). Recognizes the equi-join shape
///
///   SET_APPLY[COMP_θ(INPUT)](CROSS(A, B))
///
/// — including the one inside the RelJoin derived form — where θ's
/// conjunction contains at least one equality atom whose sides address
/// opposite halves of the pair (free INPUT only through TUP_EXTRACT_{_1}
/// resp. TUP_EXTRACT_{_2}), and replaces it with HASH_JOIN(A, B, kA, kB)[θ]
/// so the cross product is never materialized. Several equality atoms
/// become one composite positional-tuple key (tuple equality is positional
/// on values, so composite-key equality is exactly the atom conjunction).
///
/// The whole of θ rides along on the physical node and is re-evaluated on
/// key-matching pairs, which keeps the answer (including unk occurrences
/// from three-valued residual atoms) identical to the logical plan; see
/// Evaluator::EvalHashJoin for the null-key fallbacks and the tiny-input
/// nested-loop gate.
ExprPtr LowerPhysical(const ExprPtr& plan);

/// Index-aware physical lowering. Everything the plain overload does, plus
/// two rules that consult the database's secondary indexes and only fire
/// when the cost model scores the indexed alternative strictly cheaper:
///
///  - lower-index-probe: SET_APPLY[χ(COMP_θ(opnd))](Var(S)) — χ a possibly
///    empty TUP_EXTRACT/DEREF suffix (rule-15 fusion wraps the projection
///    around the COMP in translated plans), opnd a pure extraction path —
///    where θ's ∧-spine holds an atom comparing a pure extraction path
///    over INPUT against a closed, side-effect-free probe, and an index on
///    S covers the operand+atom path (hash for =/in, ordered for
///    </<=/>/>=) — becomes IDX_PROBE(probe)[opnd][θ], re-wrapped in
///    SET_APPLY[χ(INPUT)] when χ is non-empty.
///  - lower-index-join: a freshly lowered HASH_JOIN whose one side is
///    Var(S) (or a pure extraction-path SET_APPLY over Var(S)) with a key
///    binder matching an index on S — becomes IDX_JOIN, which never scans
///    the indexed side.
///
/// Firings are counted as rules.fired.lower-index-probe / -join and
/// reported to `observer` (phase "lowering"). With a null `db` this is the
/// plain overload: plans come out byte-identical to it.
ExprPtr LowerPhysical(const ExprPtr& plan, const Database* db,
                      const CostParams& params,
                      RewriteObserver* observer = nullptr);

}  // namespace excess

#endif  // EXCESS_CORE_PHYSICAL_H_
