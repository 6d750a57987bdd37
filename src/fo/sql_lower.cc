#include "fo/sql_lower.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "fo/rewriter.h"

namespace cqa {

namespace {

using Op = FoProgram::Op;
using Slot = FoProgram::Slot;

/// How a constant renders: the mirror stores interned symbols as
/// INTEGER columns, so there a constant is its id — never a string
/// literal that would need escaping.
using LiteralFn = std::string (*)(SymbolId);

std::string IdLiteral(SymbolId id) { return std::to_string(id); }

/// A standard SQL string literal of the constant's name, single quotes
/// doubled: the rendering of `CertainSqlRewriting`, whose tables hold
/// the names themselves.
std::string NameLiteral(SymbolId id) {
  std::string out = "'";
  for (char c : SymbolName(id)) {
    if (c == '\'') out += "''";
    else out += c;
  }
  return out + "'";
}

std::string JoinAnd(const std::vector<std::string>& conds) {
  if (conds.empty()) return "1";
  std::string out = conds[0];
  for (size_t i = 1; i < conds.size(); ++i) out += " AND " + conds[i];
  return out;
}

/// Recursive op-to-SQL renderer. `reg_exprs` is the static register
/// scope: reg_exprs[r] is the SQL expression currently holding register
/// r (a parameter rendering at 0..k-1, a guard alias column inside join
/// subqueries), empty when r is out of scope — mirroring the Lowerer's
/// binding environment. `literal` renders constant slots.
class CondLowerer {
 public:
  CondLowerer(const FoProgram& program, std::vector<std::string> reg_exprs,
              LiteralFn literal)
      : program_(program), reg_exprs_(std::move(reg_exprs)),
        literal_(literal) {}

  Result<std::string> Render(int op_index) {
    const Op& op = program_.ops()[op_index];
    switch (op.kind) {
      case Op::Kind::kTrue:
        return std::string("1");
      case Op::Kind::kFalse:
        return std::string("0");
      case Op::Kind::kEquals: {
        Result<std::string> lhs = SlotExpr(op.lhs);
        if (!lhs.ok()) return lhs.status();
        Result<std::string> rhs = SlotExpr(op.rhs);
        if (!rhs.ok()) return rhs.status();
        return "(" + *lhs + " = " + *rhs + ")";
      }
      case Op::Kind::kNot: {
        Result<std::string> child = Render(op.child);
        if (!child.ok()) return child.status();
        return "(NOT " + *child + ")";
      }
      case Op::Kind::kAnd:
      case Op::Kind::kOr: {
        if (op.children.empty())
          return std::string(op.kind == Op::Kind::kAnd ? "1" : "0");
        std::string joiner = op.kind == Op::Kind::kAnd ? " AND " : " OR ";
        std::string out = "(";
        for (size_t i = 0; i < op.children.size(); ++i) {
          Result<std::string> child = Render(op.children[i]);
          if (!child.ok()) return child.status();
          if (i > 0) out += joiner;
          out += *child;
        }
        return out + ")";
      }
      case Op::Kind::kContains: {
        // Membership probe: every slot is a read, no bindings.
        std::string alias = NextAlias();
        Result<std::vector<std::string>> conds = GuardConds(op, alias, nullptr);
        if (!conds.ok()) return conds.status();
        return "EXISTS (SELECT 1 FROM " + SqlTableName(op.relation) + " AS " +
               alias + " WHERE " + JoinAnd(*conds) + ")";
      }
      case Op::Kind::kSemiJoin:
      case Op::Kind::kAntiJoin: {
        std::string alias = NextAlias();
        std::vector<int> bound;
        Result<std::vector<std::string>> conds = GuardConds(op, alias, &bound);
        if (!conds.ok()) return conds.status();
        Result<std::string> child = Render(op.child);
        // Guard bindings scope over the child only.
        for (int reg : bound) reg_exprs_[reg].clear();
        if (!child.ok()) return child.status();
        if (op.kind == Op::Kind::kSemiJoin) {
          return "EXISTS (SELECT 1 FROM " + SqlTableName(op.relation) +
                 " AS " + alias + " WHERE " + JoinAnd(*conds) + " AND " +
                 *child + ")";
        }
        return "NOT EXISTS (SELECT 1 FROM " + SqlTableName(op.relation) +
               " AS " + alias + " WHERE " + JoinAnd(*conds) + " AND NOT (" +
               *child + "))";
      }
    }
    return Status::Internal("unknown FoProgram op kind");
  }

 private:
  std::string NextAlias() { return "t" + std::to_string(next_alias_++); }

  Result<std::string> SlotExpr(const Slot& s) {
    if (s.is_const) return literal_(s.value);
    if (s.reg < 0 || s.reg >= static_cast<int>(reg_exprs_.size()) ||
        reg_exprs_[s.reg].empty()) {
      return Status::Internal("SQL lowering read register r" +
                              std::to_string(s.reg) + " out of scope");
    }
    return reg_exprs_[s.reg];
  }

  /// Renders the guard/membership atom of `op` against `alias`: read and
  /// constant slots become equality conditions, bind slots enter the
  /// register scope (recorded in `bound` for the caller to unwind). A
  /// later slot repeating a just-bound register compares against the
  /// alias column the bind installed, exactly MatchBind's behaviour for
  /// repeated fresh variables.
  Result<std::vector<std::string>> GuardConds(const Op& op,
                                              const std::string& alias,
                                              std::vector<int>* bound) {
    std::vector<std::string> conds;
    for (size_t i = 0; i < op.slots.size(); ++i) {
      const Slot& s = op.slots[i];
      std::string column = alias + "." + SqlColumnName(static_cast<int>(i));
      if (s.bind) {
        if (bound == nullptr)
          return Status::Internal("bind slot in a membership probe");
        if (s.reg >= static_cast<int>(reg_exprs_.size()))
          reg_exprs_.resize(s.reg + 1);
        reg_exprs_[s.reg] = column;
        bound->push_back(s.reg);
        continue;
      }
      Result<std::string> expr = SlotExpr(s);
      if (!expr.ok()) return expr.status();
      conds.push_back(column + " = " + *expr);
    }
    return conds;
  }

  const FoProgram& program_;
  std::vector<std::string> reg_exprs_;
  const LiteralFn literal_;
  int next_alias_ = 0;
};

/// The program's root condition with register i (i < k) rendered as
/// `param_exprs[i]` and constants rendered by `literal`.
Result<std::string> LowerCondition(const FoProgram& program,
                                   const std::vector<std::string>& param_exprs,
                                   LiteralFn literal) {
  if (param_exprs.size() != program.params().size()) {
    return Status::Internal(
        "SQL lowering got " + std::to_string(param_exprs.size()) +
        " parameter renderings for " +
        std::to_string(program.params().size()) + " program parameters");
  }
  // Parameters occupy registers 0..k-1 positionally.
  std::vector<std::string> reg_exprs(
      std::max(static_cast<size_t>(program.width()), param_exprs.size()));
  for (size_t i = 0; i < param_exprs.size(); ++i) reg_exprs[i] = param_exprs[i];
  CondLowerer lowerer(program, std::move(reg_exprs), literal);
  return lowerer.Render(program.root());
}

/// Output column name of 0-based parameter `i`: p1..pk.
std::string ParamColumn(int i) { return "p" + std::to_string(i + 1); }

/// The correlated condition of `program` with parameters rendered as
/// the candidate subquery's output columns cand.p1..pk.
Result<std::string> CandidateCondition(const FoProgram& program) {
  std::vector<std::string> param_exprs;
  param_exprs.reserve(program.params().size());
  for (size_t i = 0; i < program.params().size(); ++i)
    param_exprs.push_back("cand." + ParamColumn(static_cast<int>(i)));
  return LowerProgramCondition(program, param_exprs);
}

/// Shared body of the answer-set statements:
/// `FROM (<candidates>) AS cand WHERE <condition>`.
Result<std::string> AnswersBody(const CanonicalQuery& canonical,
                                const FoProgram& program) {
  Result<std::string> candidates = CandidateSelectSql(canonical);
  if (!candidates.ok()) return candidates.status();
  Result<std::string> condition = CandidateCondition(program);
  if (!condition.ok()) return condition.status();
  return "FROM (" + *candidates + ") AS cand WHERE " + *condition;
}

std::string AnswersSelectList(const FoProgram& program) {
  std::string out;
  for (size_t i = 0; i < program.params().size(); ++i) {
    if (i > 0) out += ", ";
    out += "cand." + ParamColumn(static_cast<int>(i));
  }
  return out;
}

}  // namespace

std::string QuoteSqlIdentifier(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  return out + "\"";
}

Result<std::string> CertainSqlRewriting(const Query& q) {
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  if (!rewriting.ok()) return rewriting.status();
  Result<FoProgram> program = FoProgram::Lower(*rewriting, {});
  if (!program.ok()) return program.status();
  Result<std::string> condition = LowerCondition(*program, {}, NameLiteral);
  if (!condition.ok()) return condition.status();
  return "SELECT " + *condition + ";";
}

std::string SqlTableName(SymbolId relation) {
  return QuoteSqlIdentifier(SymbolName(relation));
}

std::string SqlColumnName(int pos) { return "c" + std::to_string(pos + 1); }

Result<std::string> LowerProgramCondition(
    const FoProgram& program, const std::vector<std::string>& param_exprs) {
  return LowerCondition(program, param_exprs, IdLiteral);
}

Result<std::string> RowDecisionSql(const FoProgram& program) {
  std::vector<std::string> param_exprs;
  param_exprs.reserve(program.params().size());
  for (size_t i = 0; i < program.params().size(); ++i)
    param_exprs.push_back("?" + std::to_string(i + 1));
  Result<std::string> condition = LowerProgramCondition(program, param_exprs);
  if (!condition.ok()) return condition.status();
  return "SELECT " + *condition;
}

Result<std::string> CandidateSelectSql(const CanonicalQuery& canonical) {
  if (canonical.params.empty()) {
    return Status::Unsupported(
        "Boolean canonicalization has no candidate projection; use "
        "BooleanSolveSql");
  }
  // The join of the atoms: FROM aliases q0..qm-1, WHERE conditions
  // equating repeated variables and pinning constants, and each
  // variable's first-occurrence column.
  std::string from;
  std::vector<std::string> conds;
  std::map<SymbolId, std::string> var_exprs;
  const std::vector<Atom>& atoms = canonical.query.atoms();
  for (size_t a = 0; a < atoms.size(); ++a) {
    std::string alias = "q" + std::to_string(a);
    if (a > 0) from += ", ";
    from += SqlTableName(atoms[a].relation()) + " AS " + alias;
    for (int i = 0; i < atoms[a].arity(); ++i) {
      const Term& t = atoms[a].terms()[i];
      std::string column = alias + "." + SqlColumnName(i);
      if (t.is_const()) {
        conds.push_back(column + " = " + IdLiteral(t.id()));
      } else if (auto it = var_exprs.find(t.id()); it != var_exprs.end()) {
        conds.push_back(column + " = " + it->second);
      } else {
        var_exprs.emplace(t.id(), column);
      }
    }
  }
  std::string out = "SELECT DISTINCT ";
  for (size_t i = 0; i < canonical.params.size(); ++i) {
    auto it = var_exprs.find(canonical.params[i]);
    if (it == var_exprs.end()) {
      return Status::Unsupported("parameter " +
                                 SymbolName(canonical.params[i]) +
                                 " does not occur in the query");
    }
    if (i > 0) out += ", ";
    out += it->second + " AS " + ParamColumn(static_cast<int>(i));
  }
  out += " FROM " + from;
  if (!conds.empty()) out += " WHERE " + JoinAnd(conds);
  return out;
}

Result<std::string> CertainAnswersSql(const CanonicalQuery& canonical,
                                      const FoProgram& program) {
  Result<std::string> body = AnswersBody(canonical, program);
  if (!body.ok()) return body.status();
  std::string select = AnswersSelectList(program);
  return "SELECT " + select + " " + *body + " ORDER BY " + select;
}

Result<std::string> CertainAnswersPageSql(const CanonicalQuery& canonical,
                                          const FoProgram& program) {
  Result<std::string> full = CertainAnswersSql(canonical, program);
  if (!full.ok()) return full.status();
  return *full + " LIMIT ?1 OFFSET ?2";
}

Result<std::string> CertainAnswersCountSql(const CanonicalQuery& canonical,
                                           const FoProgram& program) {
  Result<std::string> body = AnswersBody(canonical, program);
  if (!body.ok()) return body.status();
  return "SELECT COUNT(*) " + *body;
}

Result<std::string> BooleanSolveSql(const FoProgram& program) {
  if (!program.params().empty()) {
    return Status::Internal("BooleanSolveSql requires a parameterless program");
  }
  return RowDecisionSql(program);
}

Result<std::vector<std::string>> ProgramIndexDdl(const FoProgram& program) {
  std::vector<std::string> ddl;
  std::set<std::pair<SymbolId, int>> seen;
  for (const Op& op : program.ops()) {
    if (op.kind != Op::Kind::kContains && op.kind != Op::Kind::kSemiJoin &&
        op.kind != Op::Kind::kAntiJoin) {
      continue;
    }
    // The clustered PRIMARY KEY (c1..cn) already serves key-prefix
    // probes; single-position probes outside the prefix get their own
    // index, mirroring FactIndex's single-position buckets.
    for (int pos : op.probe_positions) {
      if (!seen.emplace(op.relation, pos).second) continue;
      std::string index = QuoteSqlIdentifier(
          "idx:" + SymbolName(op.relation) + ":" + SqlColumnName(pos));
      ddl.push_back("CREATE INDEX IF NOT EXISTS " + index + " ON " +
                    SqlTableName(op.relation) + " (" + SqlColumnName(pos) +
                    ")");
    }
  }
  return ddl;
}

}  // namespace cqa
