#ifndef CQA_FO_EVALUATOR_H_
#define CQA_FO_EVALUATOR_H_

#include <optional>

#include "cq/matcher.h"
#include "cq/valuation.h"
#include "db/database.h"
#include "fo/formula.h"

/// \file
/// The tree interpreter of FO formulas over an uncertain database: one
/// AST descent per binding, each guarded quantifier scanning the facts
/// of its guard's relation. Production execution is the compiled
/// `FoProgram` (fo/program.h); this interpreter is kept as the oracle
/// the program is tested against, and a test or bench names it at its
/// call site (directly, through `FoSolver::IsCertainRow` or through
/// `QueryPlan::IsCertainRow`).

namespace cqa {

class FormulaEvaluator {
 public:
  /// Owning constructor: builds a private index over `db`.
  explicit FormulaEvaluator(const Database& db);

  /// Borrowing constructor: evaluates over an externally owned index,
  /// which must outlive the evaluator. The evaluator holds no other
  /// state, so building one per call costs nothing.
  explicit FormulaEvaluator(const FactIndex& index);

  /// Evaluates a sentence (no free variables outside `binding`).
  bool Eval(const FormulaPtr& formula) const;

  /// Evaluates under an initial binding (free variables allowed when
  /// bound here).
  bool Eval(const FormulaPtr& formula, const Valuation& binding) const;

 private:
  bool EvalRec(const Formula& f, Valuation* binding) const;

  /// Set only by the owning constructor; `index_` points at it or at
  /// the borrowed external index.
  std::optional<FactIndex> owned_index_;
  const FactIndex* index_;
};

}  // namespace cqa

#endif  // CQA_FO_EVALUATOR_H_
