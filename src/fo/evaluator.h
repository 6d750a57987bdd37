#ifndef CQA_FO_EVALUATOR_H_
#define CQA_FO_EVALUATOR_H_

#include <optional>
#include <vector>

#include "cq/matcher.h"
#include "cq/valuation.h"
#include "db/database.h"
#include "fo/formula.h"

/// \file
/// Evaluation of FO formulas over an uncertain database, with active-
/// domain semantics for the unguarded quantifiers. Guarded quantifiers
/// iterate only over facts of the guard's relation, which keeps the
/// certain rewritings produced by `CertainRewriting` polynomial to
/// evaluate.

namespace cqa {

class FormulaEvaluator {
 public:
  /// Owning constructor: builds a private index and the active domain
  /// from `db`.
  explicit FormulaEvaluator(const Database& db);

  /// Borrowing constructor for long-lived serving contexts: evaluates
  /// over an externally owned index (which the owner keeps current
  /// across database deltas) with an explicit active domain. `index`
  /// must outlive the evaluator. The domain is a snapshot: the
  /// unguarded quantifiers range over it, and rewritings contain
  /// negation, so a stale superset is not sound — the owner drops the
  /// evaluator when a delta may have changed it
  /// (`EvalContext::ResetEvaluator`).
  FormulaEvaluator(const FactIndex* index, std::vector<SymbolId> adom);

  /// The active domain the unguarded quantifiers range over. The
  /// set-at-a-time program executor reads it from here so both execution
  /// modes always see the same domain.
  const std::vector<SymbolId>& adom() const { return adom_; }

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
  std::vector<SymbolId> adom_;
};

}  // namespace cqa

#endif  // CQA_FO_EVALUATOR_H_
