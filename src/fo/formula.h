#ifndef CQA_FO_FORMULA_H_
#define CQA_FO_FORMULA_H_

#include <memory>
#include <string>
#include <vector>

#include "cq/atom.h"
#include "cq/term.h"

/// \file
/// First-order formulas over the database vocabulary, used to *represent*
/// certain first-order rewritings (Theorem 1). The AST is relational-
/// calculus flavoured: besides the boolean connectives it offers *guarded*
/// quantifiers
///   ExistsGuard(A, φ)  ==  ∃ free(A) . (A ∧ φ)
///   ForallGuard(A, φ)  ==  ∀ free(A) . (A → φ)
/// which bind exactly the variables of A that are unbound in the current
/// environment, iterating facts of A's relation instead of the whole
/// active domain. These are the only quantifiers the rewriter emits, so
/// they are the only ones the AST offers.

namespace cqa {

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

class Formula {
 public:
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,         // Membership test: θ(atom) ∈ db (all vars must be bound).
    kEquals,       // term == term under the current binding.
    kNot,
    kAnd,
    kOr,
    kExistsGuard,  // ∃ unbound vars of `atom`: atom holds ∧ child.
    kForallGuard,  // ∀ matches of `atom`: child holds.
  };

  static FormulaPtr True();
  static FormulaPtr False();
  static FormulaPtr MakeAtom(Atom atom);
  static FormulaPtr Equals(Term lhs, Term rhs);
  static FormulaPtr Not(FormulaPtr f);
  static FormulaPtr And(std::vector<FormulaPtr> children);
  static FormulaPtr Or(std::vector<FormulaPtr> children);
  static FormulaPtr ExistsGuard(Atom guard, FormulaPtr child);
  static FormulaPtr ForallGuard(Atom guard, FormulaPtr child);

  Kind kind() const { return kind_; }
  const Atom& atom() const { return atom_; }
  const Term& lhs() const { return lhs_; }
  const Term& rhs() const { return rhs_; }
  const std::vector<FormulaPtr>& children() const { return children_; }

  /// Number of AST nodes.
  int NodeCount() const;
  /// Quantifier nesting depth.
  int QuantifierDepth() const;

  std::string ToString() const;

 protected:
  explicit Formula(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
  Atom atom_;                        // kAtom, k*Guard.
  Term lhs_, rhs_;                   // kEquals.
  std::vector<FormulaPtr> children_; // kNot, kAnd, kOr, quantifiers.
};

}  // namespace cqa

#endif  // CQA_FO_FORMULA_H_
