#ifndef CQA_FO_SQL_LOWER_H_
#define CQA_FO_SQL_LOWER_H_

#include <string>
#include <vector>

#include "cq/canonicalize.h"
#include "cq/query.h"
#include "fo/program.h"
#include "util/status.h"

/// \file
/// The SQL tier's one generator: SQL lowering of compiled FO plans. It
/// walks the flat physical `FoProgram` (one correlated EXISTS / NOT
/// EXISTS subquery per semijoin / antijoin op) and renders either of two
/// statement families, which differ only in how a constant renders:
///
///   * `CertainSqlRewriting(q)` — the ConQuer deployment path pioneered
///     by Fuxman–Miller (cited as the origin of the CERTAINTY(q) program
///     in Section 2): the certain rewriting of q as one Boolean statement
///     over tables named by the relation names, with constants as quoted
///     string literals, which an RDBMS runs over the *inconsistent*
///     database directly, no repair enumeration anywhere;
///   * everything else here — the statements the SQLite backend executes
///     over a table mirror that stores interned `SymbolId`s as INTEGER
///     columns, so a constant renders as its id.
///
/// Conventions:
///
///   * relation R of arity n is a table `QuoteSqlIdentifier(name)` with
///     columns c1..cn (key positions first); in the mirror they are
///     INTEGER, with a PRIMARY KEY over all columns (facts are a set) —
///     the clustered PK doubles as the key-prefix index `FactIndex`
///     probes;
///   * truth values render as 1 and 0 (SQLite's dialect);
///   * integer storage makes `ORDER BY c1, c2, ...` coincide exactly
///     with the lexicographic `std::vector<SymbolId>` order the
///     in-memory `RowSet` is sorted by, so a pushed-down answer set is
///     byte-identical to the in-memory one, row for row and in order;
///   * the program's parameters occupy registers 0..k-1; each call
///     chooses what they render to — `?1..?k` placeholders for the
///     per-row decision statement, outer candidate columns for the
///     one-shot certain-answers query.
///
/// Every op has a SQL form, so every FO-rewritable plan lowers.

namespace cqa {

/// Renders `name` as a quoted SQL identifier: wrapped in double quotes
/// with embedded double quotes doubled. Relation names are user input
/// (the same hostile-name discipline store/ applies to tenant dirs):
/// a relation named `R; DROP TABLE` or `R" OR "1"="1` must land in the
/// emitted SQL as data, never as syntax.
std::string QuoteSqlIdentifier(const std::string& name);

/// The certain rewriting of `q` (Theorem 1) as one complete statement
/// `SELECT <condition>;`: `CertainRewriting(q)`, lowered to a program
/// and rendered with each constant as a string literal (single quotes
/// doubled). Fails when the attack graph of `q` is cyclic or the query
/// has a self-join.
Result<std::string> CertainSqlRewriting(const Query& q);

/// The table identifier (already quoted) mirroring `relation`.
std::string SqlTableName(SymbolId relation);

/// Column identifier of 0-based position `pos`: c1..cn.
std::string SqlColumnName(int pos);

/// Lowers the program's root condition to one SQL boolean expression
/// over the mirror (constants as INTEGER ids). `param_exprs` renders register i (one entry per program parameter):
/// positional placeholders ("?1") for a prepared per-row statement,
/// column expressions ("cand.p1") for a correlated outer query.
Result<std::string> LowerProgramCondition(
    const FoProgram& program, const std::vector<std::string>& param_exprs);

/// `SELECT <condition>` with placeholders ?1..?k — the prepared
/// statement a row batch binds against, one row per execution.
Result<std::string> RowDecisionSql(const FoProgram& program);

/// Candidate enumeration of the canonical query: the distinct
/// projections of its embeddings onto the parameters, one output column
/// pI per parameter. Exactly `CollectProjectionsSorted` as SQL (without
/// the ORDER BY — callers append it or wrap the query). Boolean
/// canonicalizations (no parameters) are rejected: a Boolean plan is
/// decided by `BooleanSolveSql`.
Result<std::string> CandidateSelectSql(const CanonicalQuery& canonical);

/// The whole certain-answer set in ONE statement: candidates (inner
/// DISTINCT subquery) filtered by the correlated rewriting condition,
/// ordered lexicographically. No placeholders.
Result<std::string> CertainAnswersSql(const CanonicalQuery& canonical,
                                      const FoProgram& program);

/// `CertainAnswersSql` + ` LIMIT ?1 OFFSET ?2` — the page statement a
/// SQL cursor binds per fetch over one held read transaction.
Result<std::string> CertainAnswersPageSql(const CanonicalQuery& canonical,
                                          const FoProgram& program);

/// `SELECT COUNT(*)` over the certain-answer set (a cursor's
/// total_rows).
Result<std::string> CertainAnswersCountSql(const CanonicalQuery& canonical,
                                           const FoProgram& program);

/// `SELECT <certain>` — the pushdown of `QueryPlan::Solve`, which
/// decides a Boolean solve and a Boolean answer page alike (a certain
/// query is always possible, so the page needs no possibility check).
Result<std::string> BooleanSolveSql(const FoProgram& program);

/// Index DDL statements (CREATE INDEX IF NOT EXISTS ...) suggested by
/// the program's probe positions: single-column indexes for statically
/// bound positions outside the clustered key prefix, mirroring the
/// single-position buckets `FactIndex` builds. The PK already covers
/// key-prefix probes.
Result<std::vector<std::string>> ProgramIndexDdl(const FoProgram& program);

}  // namespace cqa

#endif  // CQA_FO_SQL_LOWER_H_
