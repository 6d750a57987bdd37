#include "fo/formula.h"

#include <algorithm>
#include <sstream>

namespace cqa {

// The constructor is protected; this local subclass lets the static
// factory methods below use std::make_shared.
struct FormulaFactory : Formula {
  explicit FormulaFactory(Kind k) : Formula(k) {}
};

FormulaPtr Formula::True() {
  return std::make_shared<const FormulaFactory>(Kind::kTrue);
}

FormulaPtr Formula::False() {
  return std::make_shared<const FormulaFactory>(Kind::kFalse);
}

FormulaPtr Formula::MakeAtom(Atom atom) {
  auto f = std::make_shared<FormulaFactory>(Kind::kAtom);
  f->atom_ = std::move(atom);
  return f;
}

FormulaPtr Formula::Equals(Term lhs, Term rhs) {
  auto f = std::make_shared<FormulaFactory>(Kind::kEquals);
  f->lhs_ = lhs;
  f->rhs_ = rhs;
  return f;
}

FormulaPtr Formula::Not(FormulaPtr child) {
  auto f = std::make_shared<FormulaFactory>(Kind::kNot);
  f->children_.push_back(std::move(child));
  return f;
}

FormulaPtr Formula::And(std::vector<FormulaPtr> children) {
  if (children.empty()) return True();
  if (children.size() == 1) return children[0];
  auto f = std::make_shared<FormulaFactory>(Kind::kAnd);
  f->children_ = std::move(children);
  return f;
}

FormulaPtr Formula::Or(std::vector<FormulaPtr> children) {
  if (children.empty()) return False();
  if (children.size() == 1) return children[0];
  auto f = std::make_shared<FormulaFactory>(Kind::kOr);
  f->children_ = std::move(children);
  return f;
}

FormulaPtr Formula::ExistsGuard(Atom guard, FormulaPtr child) {
  auto f = std::make_shared<FormulaFactory>(Kind::kExistsGuard);
  f->atom_ = std::move(guard);
  f->children_.push_back(std::move(child));
  return f;
}

FormulaPtr Formula::ForallGuard(Atom guard, FormulaPtr child) {
  auto f = std::make_shared<FormulaFactory>(Kind::kForallGuard);
  f->atom_ = std::move(guard);
  f->children_.push_back(std::move(child));
  return f;
}

int Formula::NodeCount() const {
  int count = 1;
  for (const FormulaPtr& c : children_) count += c->NodeCount();
  return count;
}

int Formula::QuantifierDepth() const {
  int child_max = 0;
  for (const FormulaPtr& c : children_) {
    child_max = std::max(child_max, c->QuantifierDepth());
  }
  bool quantifier =
      kind_ == Kind::kExistsGuard || kind_ == Kind::kForallGuard;
  return child_max + (quantifier ? 1 : 0);
}

std::string Formula::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kTrue:
      os << "true";
      break;
    case Kind::kFalse:
      os << "false";
      break;
    case Kind::kAtom:
      os << atom_.ToString();
      break;
    case Kind::kEquals:
      os << lhs_.ToString() << " = " << rhs_.ToString();
      break;
    case Kind::kNot:
      os << "NOT(" << children_[0]->ToString() << ")";
      break;
    case Kind::kAnd: {
      os << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << " AND ";
        os << children_[i]->ToString();
      }
      os << ")";
      break;
    }
    case Kind::kOr: {
      os << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << " OR ";
        os << children_[i]->ToString();
      }
      os << ")";
      break;
    }
    case Kind::kExistsGuard:
      os << "EXISTS[" << atom_.ToString() << "](" << children_[0]->ToString()
         << ")";
      break;
    case Kind::kForallGuard:
      os << "FORALL[" << atom_.ToString() << "](" << children_[0]->ToString()
         << ")";
      break;
  }
  return os.str();
}

}  // namespace cqa
