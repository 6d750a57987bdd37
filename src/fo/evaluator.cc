#include "fo/evaluator.h"

#include <cassert>

namespace cqa {

namespace {

/// Resolves a term to a constant under `binding`; asserts on unbound
/// variables (the rewriter only produces well-scoped formulas).
SymbolId Resolve(const Term& t, const Valuation& binding) {
  if (t.is_const()) return t.id();
  auto v = binding.Get(t.id());
  assert(v.has_value() && "unbound variable in formula evaluation");
  return *v;
}

/// Unifies `guard` against `fact` extending `binding`; returns the newly
/// bound variables via `bound`, or false (with no change).
bool UnifyGuard(const Atom& guard, const Fact& fact, Valuation* binding,
                std::vector<SymbolId>* bound) {
  if (guard.relation() != fact.relation() ||
      guard.arity() != fact.arity()) {
    return false;
  }
  size_t before = bound->size();
  for (int i = 0; i < guard.arity(); ++i) {
    const Term& t = guard.terms()[i];
    SymbolId v = fact.values()[i];
    bool ok;
    if (t.is_const()) {
      ok = t.id() == v;
    } else {
      auto existing = binding->Get(t.id());
      if (existing.has_value()) {
        ok = *existing == v;
      } else {
        binding->Bind(t.id(), v);
        bound->push_back(t.id());
        ok = true;
      }
    }
    if (!ok) {
      while (bound->size() > before) {
        binding->Unbind(bound->back());
        bound->pop_back();
      }
      return false;
    }
  }
  return true;
}

}  // namespace

FormulaEvaluator::FormulaEvaluator(const Database& db)
    : owned_index_(std::in_place, db), index_(&*owned_index_) {}

FormulaEvaluator::FormulaEvaluator(const FactIndex& index) : index_(&index) {}

bool FormulaEvaluator::Eval(const FormulaPtr& formula) const {
  return Eval(formula, Valuation());
}

bool FormulaEvaluator::Eval(const FormulaPtr& formula,
                            const Valuation& binding) const {
  Valuation local = binding;
  return EvalRec(*formula, &local);
}

bool FormulaEvaluator::EvalRec(const Formula& f, Valuation* binding) const {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom:
      return index_->Contains(binding->Apply(f.atom()));
    case Formula::Kind::kEquals:
      return Resolve(f.lhs(), *binding) == Resolve(f.rhs(), *binding);
    case Formula::Kind::kNot:
      return !EvalRec(*f.children()[0], binding);
    case Formula::Kind::kAnd: {
      for (const FormulaPtr& c : f.children()) {
        if (!EvalRec(*c, binding)) return false;
      }
      return true;
    }
    case Formula::Kind::kOr: {
      for (const FormulaPtr& c : f.children()) {
        if (EvalRec(*c, binding)) return true;
      }
      return false;
    }
    case Formula::Kind::kExistsGuard: {
      for (int id : index_->Facts(f.atom().relation())) {
        std::vector<SymbolId> bound;
        if (!UnifyGuard(f.atom(), index_->fact(id), binding, &bound)) {
          continue;
        }
        bool ok = EvalRec(*f.children()[0], binding);
        for (SymbolId v : bound) binding->Unbind(v);
        if (ok) return true;
      }
      return false;
    }
    case Formula::Kind::kForallGuard: {
      for (int id : index_->Facts(f.atom().relation())) {
        std::vector<SymbolId> bound;
        if (!UnifyGuard(f.atom(), index_->fact(id), binding, &bound)) {
          continue;
        }
        bool ok = EvalRec(*f.children()[0], binding);
        for (SymbolId v : bound) binding->Unbind(v);
        if (!ok) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace cqa
