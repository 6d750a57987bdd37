#ifndef CQA_FO_SQL_LOWER_H_
#define CQA_FO_SQL_LOWER_H_

#include <string>
#include <vector>

#include "cq/canonicalize.h"
#include "fo/program.h"
#include "util/status.h"

/// \file
/// SQL lowering of compiled FO plans — the execution-grade twin of
/// fo/sql_gen.h. The pretty-printer walks the Formula AST and renders
/// symbol *names*; this lowering walks the flat physical `FoProgram`
/// (one correlated EXISTS / NOT EXISTS subquery per semijoin / antijoin
/// op) and renders a statement an embedded RDBMS executes over a table
/// mirror that stores interned `SymbolId`s as INTEGER columns:
///
///   * relation R of arity n is a table `QuoteSqlIdentifier(name)` with
///     INTEGER columns c1..cn (key positions first), PRIMARY KEY over
///     all columns (facts are a set) — the clustered PK doubles as the
///     key-prefix index `FactIndex` probes;
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

/// The table identifier (already quoted) mirroring `relation`.
std::string SqlTableName(SymbolId relation);

/// Column identifier of 0-based position `pos`: c1..cn.
std::string SqlColumnName(int pos);

/// Lowers the program's root condition to one SQL boolean expression.
/// `param_exprs` renders register i (one entry per program parameter):
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
/// canonicalizations (no parameters) are rejected; use
/// `BooleanCertainSql`.
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

/// Boolean serving semantics of ComputeCertainFull in one statement:
/// `SELECT (possible) AND (certain)` where `possible` is an EXISTS over
/// the canonical query's joins and `certain` is the lowered rewriting.
/// Returns exactly one row with one 0/1 column.
Result<std::string> BooleanCertainSql(const CanonicalQuery& canonical,
                                      const FoProgram& program);

/// `SELECT <certain>` alone — the pushdown of `QueryPlan::Solve` (no
/// possibility conjunct, mirroring the plan-level Boolean solve).
Result<std::string> BooleanSolveSql(const FoProgram& program);

/// Index DDL statements (CREATE INDEX IF NOT EXISTS ...) suggested by
/// the program's probe positions: single-column indexes for statically
/// bound positions outside the clustered key prefix, mirroring the
/// single-position buckets `FactIndex` builds. The PK already covers
/// key-prefix probes.
Result<std::vector<std::string>> ProgramIndexDdl(const FoProgram& program);

}  // namespace cqa

#endif  // CQA_FO_SQL_LOWER_H_
