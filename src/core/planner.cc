#include "core/planner.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "core/physical.h"
#include "obs/metrics.h"

namespace excess {

namespace {

struct TreeKey {
  uint64_t hash;
  ExprPtr tree;
};

}  // namespace

Result<std::vector<PlanChoice>> Planner::Enumerate(const ExprPtr& query) {
  if (query == nullptr) return Status::Invalid("Enumerate on null query");

  // Phase 1: heuristic fixpoint.
  Rewriter heuristic(db_, RuleSet::Heuristic());
  heuristic.set_observer(observer_);
  EXA_ASSIGN_OR_RETURN(ExprPtr seed, heuristic.Rewrite(query));
  heuristic_trace_ = heuristic.applied();

  CostModel cost(db_, options_.cost_params);
  std::vector<PlanChoice> choices;
  auto add_choice = [&](const ExprPtr& plan) -> Status {
    EXA_ASSIGN_OR_RETURN(CostEstimate est, cost.Estimate(plan));
    choices.push_back({plan, est});
    return Status::OK();
  };
  EXA_RETURN_NOT_OK(add_choice(seed));

  // Phase 2: best-first exploration of the full rule set. The frontier is
  // seeded with BOTH the heuristic fixpoint and the original tree: some
  // rewrites (e.g. rule 10 feeding rule 26) only match shapes the
  // always-beneficial phase already collapsed, so restricting the search
  // to the fixpoint would make parts of the plan space unreachable. The
  // original tree is a candidate itself, ahead of its neighbors: on a cost
  // tie it wins over a mere reordering such as tupcat-commute, which would
  // change the field order of stored results.
  if (options_.search_budget > 0) {
    Rewriter all(db_, RuleSet::All());
    // Memo on (hash, deep equality).
    std::unordered_map<uint64_t, std::vector<ExprPtr>> seen;
    auto mark_seen = [&](const ExprPtr& t) -> bool {
      auto& bucket = seen[t->Hash()];
      for (const auto& prev : bucket) {
        if (prev->Equals(*t)) return false;
      }
      bucket.push_back(t);
      return true;
    };
    mark_seen(seed);

    auto cmp = [](const PlanChoice& a, const PlanChoice& b) {
      return a.estimate.total > b.estimate.total;  // min-heap
    };
    std::priority_queue<PlanChoice, std::vector<PlanChoice>, decltype(cmp)>
        frontier(cmp);
    frontier.push(choices.front());
    if (mark_seen(query)) {
      auto raw_est = cost.Estimate(query);
      if (raw_est.ok()) {
        choices.push_back({query, *raw_est});
        frontier.push(choices.back());
      }
    }

    double best_total = choices.front().estimate.total;
    int expanded = 0;
    while (!frontier.empty() && expanded < options_.search_budget) {
      PlanChoice current = frontier.top();
      frontier.pop();
      ++expanded;
      for (auto& tagged : all.EnumerateNeighborsTagged(current.plan)) {
        const ExprPtr& next = tagged.tree;
        if (!mark_seen(next)) continue;
        auto est = cost.Estimate(next);
        if (!est.ok()) continue;
        // An adopted improvement: this single rule application produced the
        // cheapest plan seen so far. The trace records these (and only
        // these) search steps — the full neighbor fan-out is noise.
        if (observer_ != nullptr && est->total < best_total) {
          observer_->OnRewrite("search", *tagged.rule, current.plan, next);
        }
        best_total = std::min(best_total, est->total);
        PlanChoice choice{next, *est};
        choices.push_back(choice);
        frontier.push(std::move(choice));
      }
    }
    obs::MetricsRegistry::Global()
        .GetCounter("planner.search_expanded")
        ->Increment(expanded);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("planner.plans_considered")
      ->Increment(static_cast<int64_t>(choices.size()));

  std::stable_sort(choices.begin(), choices.end(),
                   [](const PlanChoice& a, const PlanChoice& b) {
                     return a.estimate.total < b.estimate.total;
                   });
  return choices;
}

Result<ExprPtr> Planner::Optimize(const ExprPtr& query) {
  EXA_ASSIGN_OR_RETURN(std::vector<PlanChoice> choices, Enumerate(query));
  ExprPtr best = choices.front().plan;
  if (options_.lower_physical) {
    best = options_.use_indexes
               ? LowerPhysical(best, db_, options_.cost_params, observer_)
               : LowerPhysical(best);
  }
  return best;
}

}  // namespace excess
