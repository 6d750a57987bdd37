#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "fo/formula.h"
#include "fo/program.h"
#include "fo/sql_lower.h"
#include "plan/query_plan.h"
#include "util/status.h"

/// \file
/// Units for the execution-grade SQL lowering (fo/sql_lower.h): shape
/// of the generated statements, identifier quoting, placeholder
/// discipline, and the Unsupported edges. Semantic equivalence against
/// a real SQLite engine is covered end-to-end by backend_diff_test.cc.

namespace cqa {
namespace {

std::shared_ptr<const QueryPlan> MustCompile(
    const Query& q, const std::vector<SymbolId>& free_vars = {}) {
  Result<std::shared_ptr<const QueryPlan>> plan =
      free_vars.empty() ? QueryPlan::Compile(q)
                        : QueryPlan::Compile(q, free_vars);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(SqlLowerTest, TableAndColumnNames) {
  EXPECT_EQ(SqlTableName(InternSymbol("R")), "\"R\"");
  // Hostile relation names cannot break out of the identifier quotes:
  // embedded quotes are doubled, everything else is inert inside "".
  EXPECT_EQ(SqlTableName(InternSymbol("evil\"name")), "\"evil\"\"name\"");
  EXPECT_EQ(SqlColumnName(0), "c1");
  EXPECT_EQ(SqlColumnName(4), "c5");
}

TEST(SqlLowerTest, BooleanSolveLowersToExistsChain) {
  auto plan = MustCompile(corpus::ConferenceQuery());
  ASSERT_NE(plan->fo_program(), nullptr);
  Result<std::string> sql = BooleanSolveSql(*plan->fo_program());
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_TRUE(Contains(*sql, "SELECT")) << *sql;
  EXPECT_TRUE(Contains(*sql, "EXISTS")) << *sql;
  // Table references come out quoted.
  EXPECT_TRUE(Contains(*sql, "\"C\"")) << *sql;
  EXPECT_TRUE(Contains(*sql, "\"R\"")) << *sql;
  // A Boolean solve has no parameters, hence no placeholders.
  EXPECT_FALSE(Contains(*sql, "?1")) << *sql;
}

TEST(SqlLowerTest, RowDecisionUsesPositionalPlaceholders) {
  Query q = corpus::PathQuery2();  // R(x | y), S(y | z)
  auto plan = MustCompile(q, {InternSymbol("x")});
  ASSERT_NE(plan->fo_program(), nullptr);
  Result<std::string> sql = RowDecisionSql(*plan->fo_program());
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_TRUE(Contains(*sql, "?1")) << *sql;
  // The certain rewriting of a path query needs the blockwise
  // universal check — a NOT EXISTS under the key quantification.
  EXPECT_TRUE(Contains(*sql, "NOT EXISTS")) << *sql;
}

TEST(SqlLowerTest, CertainAnswersStatementFamily) {
  Query q = corpus::PathQuery2();
  auto plan = MustCompile(q, {InternSymbol("x")});
  ASSERT_NE(plan->fo_program(), nullptr);
  const FoProgram& program = *plan->fo_program();

  Result<std::string> full = CertainAnswersSql(plan->canonical(), program);
  ASSERT_TRUE(full.ok()) << full.status();
  // Candidates are DISTINCT projections, the stream is ordered, and a
  // one-shot statement carries no placeholders.
  EXPECT_TRUE(Contains(*full, "DISTINCT")) << *full;
  EXPECT_TRUE(Contains(*full, "ORDER BY")) << *full;
  EXPECT_FALSE(Contains(*full, "?1")) << *full;

  Result<std::string> page =
      CertainAnswersPageSql(plan->canonical(), program);
  ASSERT_TRUE(page.ok()) << page.status();
  // The page statement is the full statement plus the window binds.
  EXPECT_EQ(*page, *full + " LIMIT ?1 OFFSET ?2");

  Result<std::string> count =
      CertainAnswersCountSql(plan->canonical(), program);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_TRUE(Contains(*count, "COUNT(*)")) << *count;
  EXPECT_FALSE(Contains(*count, "ORDER BY")) << *count;

  // The Boolean pushdown is for parameterless plans only.
  EXPECT_FALSE(BooleanSolveSql(program).ok());
}

TEST(SqlLowerTest, CandidateSelectRejectsBooleanCanonicalizations) {
  auto plan = MustCompile(corpus::ConferenceQuery());
  EXPECT_FALSE(CandidateSelectSql(plan->canonical()).ok());
}

TEST(SqlLowerTest, LowerProgramConditionValidatesParamExprs) {
  Query q = corpus::PathQuery2();
  auto plan = MustCompile(q, {InternSymbol("x")});
  ASSERT_NE(plan->fo_program(), nullptr);
  const FoProgram& program = *plan->fo_program();
  // One parameter -> one renderer required.
  EXPECT_FALSE(LowerProgramCondition(program, {}).ok());
  Result<std::string> cond =
      LowerProgramCondition(program, {"cand.p1"});
  ASSERT_TRUE(cond.ok()) << cond.status();
  EXPECT_TRUE(Contains(*cond, "cand.p1")) << *cond;
  EXPECT_FALSE(Contains(*cond, "?1")) << *cond;
}

TEST(SqlLowerTest, ProgramIndexDdlIsCreateIfNotExists) {
  // 'Rome' and 'A' are statically bound non-key probe positions in the
  // conference rewriting — each suggests a single-column index.
  auto plan = MustCompile(corpus::ConferenceQuery());
  ASSERT_NE(plan->fo_program(), nullptr);
  Result<std::vector<std::string>> ddl =
      ProgramIndexDdl(*plan->fo_program());
  ASSERT_TRUE(ddl.ok()) << ddl.status();
  for (const std::string& stmt : *ddl) {
    EXPECT_TRUE(Contains(stmt, "CREATE INDEX IF NOT EXISTS")) << stmt;
  }
}

}  // namespace
}  // namespace cqa
