#include "fo/sql_gen.h"

#include <map>
#include <sstream>
#include <vector>

#include "fo/rewriter.h"

namespace cqa {

namespace {

/// Variable -> SQL column expression ("t3.c2") for the current scope.
using Scope = std::map<SymbolId, std::string>;

/// Table reference for a relation symbol: its (hostile-name safe)
/// quoted identifier.
std::string TableRef(SymbolId relation) {
  return QuoteSqlIdentifier(SymbolName(relation));
}

std::string SqlLiteral(SymbolId constant) {
  // Standard SQL string literal; single quotes doubled.
  std::string out = "'";
  for (char c : SymbolName(constant)) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

struct SqlGen {
  int next_alias = 0;
  Status error = Status::OK();

  std::string TermExpr(const Term& t, const Scope& scope) {
    if (t.is_const()) return SqlLiteral(t.id());
    auto it = scope.find(t.id());
    if (it == scope.end()) {
      error = Status::Internal("unbound variable " + SymbolName(t.id()) +
                               " in formula-to-SQL translation");
      return "NULL";
    }
    return it->second;
  }

  /// Emits the FROM alias and WHERE constraints for matching `atom`,
  /// extending `scope` with newly bound variables.
  std::string GuardConstraints(const Atom& atom, const std::string& alias,
                               Scope* scope) {
    std::vector<std::string> conds;
    for (int i = 0; i < atom.arity(); ++i) {
      std::string column = alias + ".c" + std::to_string(i + 1);
      const Term& t = atom.terms()[i];
      if (t.is_const()) {
        conds.push_back(column + " = " + SqlLiteral(t.id()));
      } else {
        auto it = scope->find(t.id());
        if (it == scope->end()) {
          scope->emplace(t.id(), column);
        } else {
          conds.push_back(column + " = " + it->second);
        }
      }
    }
    if (conds.empty()) return "TRUE";
    std::string out = conds[0];
    for (size_t i = 1; i < conds.size(); ++i) out += " AND " + conds[i];
    return out;
  }

  std::string Translate(const Formula& f, Scope scope) {
    switch (f.kind()) {
      case Formula::Kind::kTrue:
        return "TRUE";
      case Formula::Kind::kFalse:
        return "FALSE";
      case Formula::Kind::kEquals:
        return "(" + TermExpr(f.lhs(), scope) + " = " +
               TermExpr(f.rhs(), scope) + ")";
      case Formula::Kind::kNot:
        return "(NOT " + Translate(*f.children()[0], scope) + ")";
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        std::string joiner =
            f.kind() == Formula::Kind::kAnd ? " AND " : " OR ";
        std::string out = "(";
        for (size_t i = 0; i < f.children().size(); ++i) {
          if (i > 0) out += joiner;
          out += Translate(*f.children()[i], scope);
        }
        return out + ")";
      }
      case Formula::Kind::kAtom: {
        // Membership test: EXISTS over the relation with all positions
        // pinned.
        std::string alias = "t" + std::to_string(next_alias++);
        Scope inner = scope;
        std::string conds = GuardConstraints(f.atom(), alias, &inner);
        return "EXISTS (SELECT 1 FROM " + TableRef(f.atom().relation()) +
               " AS " + alias + " WHERE " + conds + ")";
      }
      case Formula::Kind::kExistsGuard: {
        std::string alias = "t" + std::to_string(next_alias++);
        Scope inner = scope;
        std::string conds = GuardConstraints(f.atom(), alias, &inner);
        std::string child = Translate(*f.children()[0], inner);
        return "EXISTS (SELECT 1 FROM " + TableRef(f.atom().relation()) +
               " AS " + alias + " WHERE " + conds + " AND " + child + ")";
      }
      case Formula::Kind::kForallGuard: {
        std::string alias = "t" + std::to_string(next_alias++);
        Scope inner = scope;
        std::string conds = GuardConstraints(f.atom(), alias, &inner);
        std::string child = Translate(*f.children()[0], inner);
        return "NOT EXISTS (SELECT 1 FROM " + TableRef(f.atom().relation()) +
               " AS " + alias + " WHERE " + conds + " AND NOT (" + child +
               "))";
      }
    }
    return "FALSE";
  }
};

}  // namespace

std::string QuoteSqlIdentifier(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

Result<std::string> FormulaToSql(const FormulaPtr& formula) {
  SqlGen gen;
  std::string sql = gen.Translate(*formula, Scope());
  if (!gen.error.ok()) return gen.error;
  return sql;
}

Result<std::string> CertainSqlRewriting(const Query& q) {
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  if (!rewriting.ok()) return rewriting.status();
  Result<std::string> condition = FormulaToSql(*rewriting);
  if (!condition.ok()) return condition.status();
  return "SELECT " + *condition + ";";
}

}  // namespace cqa
