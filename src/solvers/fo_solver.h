#ifndef CQA_SOLVERS_FO_SOLVER_H_
#define CQA_SOLVERS_FO_SOLVER_H_

#include <memory>
#include <vector>

#include "cq/query.h"
#include "cq/valuation.h"
#include "db/database.h"
#include "fo/evaluator.h"
#include "fo/formula.h"
#include "fo/program.h"
#include "solvers/solver.h"
#include "util/status.h"

/// \file
/// CERTAINTY(q) for queries with an acyclic attack graph, by evaluating
/// the certain first-order rewriting (Theorem 1). The rewriting is
/// computed once per query — at Create time — and can be reused across
/// databases and threads; via the parameterized Create overload it also
/// serves every grounding of a fixed set of free variables (the
/// QueryPlan compile path for non-Boolean queries).
///
/// Create also lowers the rewriting into a set-at-a-time `FoProgram`
/// (fo/program.h), and `Decide` always runs it. `IsCertainRow` runs the
/// tree interpreter instead: it is the per-row differential oracle the
/// program executor is tested against, and only tests and benches call
/// it.

namespace cqa {

class FoSolver final : public Solver {
 public:
  /// Fails when q's attack graph is cyclic (Theorem 1: not FO).
  static Result<FoSolver> Create(const Query& q);

  /// Parameterized compile: `params` are kept free in the rewriting and
  /// must be bound at evaluation time. Fails when the attack graph with
  /// `params` frozen is cyclic.
  static Result<FoSolver> Create(const Query& q, const VarSet& params);

  SolverKind kind() const override { return SolverKind::kFoRewriting; }

  /// db ∈ CERTAINTY(q), by compiled-program execution — polynomial
  /// time. Reuses the context's shared index (one FactIndex per
  /// database, not per call). Polls ctx.deadline(). A parameterized
  /// rewriting has no Boolean answer: InvalidArgument.
  Result<SolverCall> Decide(EvalContext& ctx) const override;

  /// Decide under `deadline` instead of the context's: the program
  /// polls it at its batch checkpoints and answers kDeadlineExceeded
  /// once it fires. An unlimited deadline reads no clock. This lets a
  /// long-lived worker context serve requests with different budgets.
  Result<SolverCall> Decide(EvalContext& ctx, const Deadline& deadline) const;

  /// db ∈ CERTAINTY(θ(q)) for the parameter binding θ, by tree
  /// interpretation over a caller-provided evaluator. This is the
  /// row-at-a-time oracle; batch row traffic runs program() through
  /// QueryPlan::IsCertainRows.
  bool IsCertainRow(const FormulaEvaluator& evaluator,
                    const Valuation& params_binding) const;

  const FormulaPtr& rewriting() const { return rewriting_; }

  /// The lowered set-at-a-time program (never null: lowering a
  /// rewriting cannot fail). Batch row decisions go through
  /// QueryPlan::IsCertainRows, which owns the row-arity validation; the
  /// program's parameters here follow ascending SymbolId order over the
  /// Create params.
  std::shared_ptr<const FoProgram> program() const { return program_; }

 private:
  FoSolver(Query q, FormulaPtr rewriting,
           std::shared_ptr<const FoProgram> program)
      : Solver(std::move(q)),
        rewriting_(std::move(rewriting)),
        program_(std::move(program)) {}
  FormulaPtr rewriting_;
  std::shared_ptr<const FoProgram> program_;
};

}  // namespace cqa

#endif  // CQA_SOLVERS_FO_SOLVER_H_
