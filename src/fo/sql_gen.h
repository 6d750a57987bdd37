#ifndef CQA_FO_SQL_GEN_H_
#define CQA_FO_SQL_GEN_H_

#include <string>

#include "cq/query.h"
#include "fo/formula.h"
#include "util/status.h"

/// \file
/// SQL generation for certain first-order rewritings — the practical
/// deployment path pioneered by Fuxman–Miller's ConQuer (cited as the
/// origin of the CERTAINTY(q) program in Section 2): when CERTAINTY(q)
/// is FO-expressible, the rewriting compiles to a plain SQL boolean
/// query that any RDBMS evaluates over the *inconsistent* database
/// directly, no repair enumeration anywhere.
///
/// Conventions: relation R of arity n is a table named R with columns
/// c1..cn (key columns first); the guarded quantifiers become
/// EXISTS / NOT EXISTS ... NOT(...) subqueries.

namespace cqa {

/// Renders `name` as a quoted SQL identifier: wrapped in double quotes
/// with embedded double quotes doubled, the identifier-side twin of the
/// single-quote literal escaping below. Relation names are user input
/// (the same hostile-name discipline store/ applies to tenant dirs):
/// a relation named `R; DROP TABLE` or `R" OR "1"="1` must land in the
/// emitted SQL as data, never as syntax. Shared with fo/sql_lower.h.
std::string QuoteSqlIdentifier(const std::string& name);

/// Renders a formula as a SQL boolean expression. Fails on a formula
/// that reads a variable no quantifier binds.
Result<std::string> FormulaToSql(const FormulaPtr& formula);

/// Convenience: certain rewriting of `q` compiled to a complete
/// statement `SELECT <boolean expr>;`. Fails when the attack graph of
/// `q` is cyclic (Theorem 1) or the query has a self-join.
Result<std::string> CertainSqlRewriting(const Query& q);

}  // namespace cqa

#endif  // CQA_FO_SQL_GEN_H_
