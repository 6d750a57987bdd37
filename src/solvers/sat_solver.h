#ifndef CQA_SOLVERS_SAT_SOLVER_H_
#define CQA_SOLVERS_SAT_SOLVER_H_

#include <optional>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "solvers/solver.h"

/// \file
/// Decides CERTAINTY(q) by searching for a falsifying repair with a SAT
/// solver. Encoding:
///   * one boolean per fact ("chosen by the repair"),
///   * exactly-one constraints per block,
///   * for every embedding θ(q) ⊆ db, the clause ¬⋀ θ(q)
///     ("the repair must not contain all facts of any embedding").
/// The formula is satisfiable iff some repair falsifies q, i.e. iff
/// db ∉ CERTAINTY(q). Sound and complete for *every* conjunctive query;
/// worst-case exponential (as expected: Theorem 2 queries are
/// coNP-complete), but far faster than enumerating repairs.
///
/// Encoding statistics (variables, clauses, DPLL decisions) are reported
/// per call through `SolverCall` and accumulated per instance — there is
/// no global mutable state, so one SatSolver can serve many threads.

namespace cqa {

class SatSolver final : public Solver {
 public:
  explicit SatSolver(Query q) : Solver(std::move(q)) {}

  SolverKind kind() const override { return SolverKind::kSat; }

  Result<SolverCall> Decide(EvalContext& ctx) const override;

  using Solver::FindFalsifyingRepair;
  Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
      EvalContext& ctx) const override;

  /// The shared encode-and-solve core: a repair of ctx.db() falsifying
  /// `q`, with the encoding metrics written to `call`. Used by this class
  /// and as the universal fallback of Solver::FindFalsifyingRepair.
  /// Polls ctx.deadline() while encoding and searching, and answers
  /// kDeadlineExceeded once it expires.
  static Result<std::optional<std::vector<Fact>>> SearchFalsifyingRepair(
      EvalContext& ctx, const Query& q, SolverCall* call);
};

}  // namespace cqa

#endif  // CQA_SOLVERS_SAT_SOLVER_H_
