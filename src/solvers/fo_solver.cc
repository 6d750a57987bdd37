#include "solvers/fo_solver.h"

#include <utility>

#include "fo/rewriter.h"

namespace cqa {

Result<FoSolver> FoSolver::Create(const Query& q) {
  return Create(q, VarSet());
}

Result<FoSolver> FoSolver::Create(const Query& q, const VarSet& params) {
  Result<FormulaPtr> rewriting = CertainRewriting(q, params);
  if (!rewriting.ok()) return rewriting.status();
  // Lower once at compile time; the rewriter emits well-scoped formulas
  // whose free variables are exactly `params`, so lowering cannot fail.
  std::vector<SymbolId> param_order(params.begin(), params.end());
  Result<FoProgram> program = FoProgram::Lower(*rewriting, param_order);
  if (!program.ok()) return program.status();
  return FoSolver(q, std::move(rewriting).value(),
                  std::make_shared<const FoProgram>(std::move(*program)));
}

Result<SolverCall> FoSolver::Decide(EvalContext& ctx) const {
  return Decide(ctx, ctx.deadline());
}

Result<SolverCall> FoSolver::Decide(EvalContext& ctx,
                                    const Deadline& deadline) const {
  if (!program_->params().empty()) {
    return Status::InvalidArgument(
        "parameterized rewriting has no Boolean answer; bind its "
        "parameters per row");
  }
  std::vector<std::vector<SymbolId>> one_row(1);
  Result<std::vector<char>> mask =
      program_->EvaluateRows(ctx.fact_index(), one_row, 0, 1, deadline);
  if (!mask.ok()) return mask.status();
  SolverCall call;
  call.certain = (*mask)[0] != 0;
  return call;
}

bool FoSolver::IsCertainRow(const FormulaEvaluator& evaluator,
                            const Valuation& params_binding) const {
  return evaluator.Eval(rewriting_, params_binding);
}

}  // namespace cqa
