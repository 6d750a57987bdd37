#ifndef CQA_TESTS_SOLVE_HELPERS_H_
#define CQA_TESTS_SOLVE_HELPERS_H_

#include <memory>
#include <optional>
#include <vector>

#include "cq/matcher.h"
#include "cq/query.h"
#include "db/database.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "serve/session.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// One-shot solve helpers for tests, built directly on the supported
/// plan layer (PlanCache + QueryPlan + matcher) — the same machinery
/// `cqa::Service` serves through, without a registry or a session.
/// These replace the deleted `Engine` shim in the differential tests:
/// each helper compiles through the global plan cache and evaluates the
/// plan against a transient context, except the `Session*` pair, which
/// hands the plan to a session's plan-resolved entry points.

namespace cqa {
namespace testutil {

/// The plan of (q, free_vars) from the global plan cache, resolved as
/// `Service::ResolvePlan` resolves an ad-hoc query: Boolean when
/// free_vars is empty.
inline Result<std::shared_ptr<const QueryPlan>> GlobalPlan(
    const Query& q, const std::vector<SymbolId>& free_vars = {}) {
  return free_vars.empty() ? PlanCache::Global().GetOrCompile(q)
                           : PlanCache::Global().GetOrCompile(q, free_vars);
}

inline Result<SolveOutcome> Solve(const Database& db, const Query& q) {
  Result<std::shared_ptr<const QueryPlan>> plan = GlobalPlan(q);
  if (!plan.ok()) return plan.status();
  return (*plan)->Solve(db);
}

inline Result<std::vector<std::vector<SymbolId>>> PossibleAnswers(
    const Database& db, const Query& q,
    const std::vector<SymbolId>& free_vars) {
  CQA_RETURN_NOT_OK(ValidateFreeVars(q, free_vars));
  EvalContext ctx(db);
  return CollectProjectionsSorted(ctx.fact_index(), q, Valuation(),
                                  free_vars);
}

inline Result<std::vector<std::vector<SymbolId>>> CertainAnswers(
    const Database& db, const Query& q,
    const std::vector<SymbolId>& free_vars) {
  Result<std::shared_ptr<const QueryPlan>> plan = GlobalPlan(q, free_vars);
  if (!plan.ok()) return plan.status();

  CQA_RETURN_NOT_OK(ValidateFreeVars(q, free_vars));
  EvalContext ctx(db);
  std::vector<std::vector<SymbolId>> possible =
      CollectProjectionsSorted(ctx.fact_index(), q, Valuation(), free_vars);
  std::vector<std::vector<SymbolId>> out;
  if (possible.empty()) return out;

  if (free_vars.empty()) {
    // Boolean semantics: the single (empty) candidate row is a certain
    // answer iff db ∈ CERTAINTY(q).
    Result<SolveOutcome> solved = (*plan)->Solve(ctx);
    if (!solved.ok()) return solved.status();
    if (solved->certain) out.push_back({});
    return out;
  }

  Result<std::vector<char>> certain = (*plan)->IsCertainRows(ctx, possible);
  if (!certain.ok()) return certain.status();
  for (size_t i = 0; i < possible.size(); ++i) {
    if ((*certain)[i]) out.push_back(possible[i]);
  }
  return out;
}

inline Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
    const Database& db, const Query& q) {
  Result<std::shared_ptr<const QueryPlan>> plan = GlobalPlan(q);
  if (!plan.ok()) return plan.status();
  return (*plan)->FindFalsifyingRepair(db);
}

/// CERTAINTY(q) decided by `session` on q's global plan.
inline Result<SolveOutcome> SessionSolve(Session& session, const Query& q) {
  Result<std::shared_ptr<const QueryPlan>> plan = GlobalPlan(q);
  if (!plan.ok()) return plan.status();
  return session.SolveBatch({*plan})[0];
}

/// The certain answers of (q, free_vars) served by `session` on their
/// global plan.
inline Result<std::shared_ptr<const RowBlock>> SessionCertainAnswers(
    Session& session, const Query& q, const std::vector<SymbolId>& free_vars,
    const Deadline& deadline = Deadline()) {
  Result<std::shared_ptr<const QueryPlan>> plan = GlobalPlan(q, free_vars);
  if (!plan.ok()) return plan.status();
  return session.CertainAnswers(*plan, q, free_vars, nullptr, deadline);
}

}  // namespace testutil
}  // namespace cqa

#endif  // CQA_TESTS_SOLVE_HELPERS_H_
