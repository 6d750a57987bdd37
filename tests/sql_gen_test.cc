#include <gtest/gtest.h>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "fo/sql_gen.h"
#include "gen/query_gen.h"

namespace cqa {
namespace {

bool ParensBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\'') in_string = !in_string;
    if (in_string) continue;
    if (c == '(') ++depth;
    if (c == ')') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(SqlGenTest, ConferenceQueryCompiles) {
  Result<std::string> sql = CertainSqlRewriting(corpus::ConferenceQuery());
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Certain rewriting shape: outer EXISTS over one relation, inner
  // NOT EXISTS over the same relation's block.
  EXPECT_NE(sql->find("EXISTS (SELECT 1 FROM"), std::string::npos);
  EXPECT_NE(sql->find("NOT EXISTS"), std::string::npos);
  // Relation names render as quoted identifiers.
  EXPECT_NE(sql->find(" \"C\" "), std::string::npos);
  EXPECT_NE(sql->find(" \"R\" "), std::string::npos);
  EXPECT_NE(sql->find("'Rome'"), std::string::npos);
  EXPECT_NE(sql->find("'A'"), std::string::npos);
  EXPECT_TRUE(ParensBalanced(*sql)) << *sql;
}

TEST(SqlGenTest, QuotesHostileRelationNames) {
  // A relation named to break out of an identifier position: quoting
  // must neutralize both the embedded double-quote and the SQL tail.
  Query q;
  q.AddAtom(Atom(InternSymbol("R\" FROM x; DROP TABLE users; --"),
                 {Term::Var("x"), Term::Var("y")}, 1));
  Result<std::string> sql = CertainSqlRewriting(q);
  ASSERT_TRUE(sql.ok()) << sql.status();
  // The embedded quote doubles, so the whole hostile name stays INSIDE
  // one quoted identifier — the `"` the attacker embedded cannot close
  // the identifier early.
  EXPECT_NE(sql->find("\"R\"\" FROM x; DROP TABLE users; --\""),
            std::string::npos)
      << *sql;
  // The raw (undoubled) breakout `R" FROM` never appears.
  EXPECT_EQ(sql->find("R\" FROM"), std::string::npos) << *sql;
}

TEST(SqlGenTest, QuoteSqlIdentifierEscapes) {
  EXPECT_EQ(QuoteSqlIdentifier("plain"), "\"plain\"");
  EXPECT_EQ(QuoteSqlIdentifier("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(QuoteSqlIdentifier(""), "\"\"");
}

TEST(SqlGenTest, PathQueryNestsPerAtom) {
  Result<std::string> sql = CertainSqlRewriting(corpus::PathQuery(3));
  ASSERT_TRUE(sql.ok());
  // Three atoms -> three NOT EXISTS blocks (one per block check).
  size_t count = 0;
  for (size_t pos = sql->find("NOT EXISTS"); pos != std::string::npos;
       pos = sql->find("NOT EXISTS", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_TRUE(ParensBalanced(*sql)) << *sql;
}

TEST(SqlGenTest, QuotesEmbeddedQuotes) {
  Query q;
  q.AddAtom(Atom(InternSymbol("R"),
                 {Term::Var("x"), Term::Const(InternSymbol("O'Brien"))}, 1));
  Result<std::string> sql = CertainSqlRewriting(q);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'O''Brien'"), std::string::npos) << *sql;
  EXPECT_TRUE(ParensBalanced(*sql)) << *sql;
}

TEST(SqlGenTest, RefusesNonFoQueries) {
  EXPECT_FALSE(CertainSqlRewriting(corpus::Q0()).ok());
  EXPECT_FALSE(CertainSqlRewriting(corpus::Ck(2)).ok());
}

TEST(SqlGenTest, AliasesAreUnique) {
  Result<std::string> sql = CertainSqlRewriting(corpus::PathQuery(4));
  ASSERT_TRUE(sql.ok());
  // Every alias tN introduced with "AS tN" must appear exactly once in
  // an AS clause.
  std::map<std::string, int> alias_defs;
  for (size_t pos = sql->find(" AS t"); pos != std::string::npos;
       pos = sql->find(" AS t", pos + 1)) {
    size_t start = pos + 4;
    size_t end = start;
    while (end < sql->size() && isalnum(static_cast<unsigned char>(
                                    (*sql)[end]))) {
      ++end;
    }
    ++alias_defs[sql->substr(start, end - start)];
  }
  EXPECT_FALSE(alias_defs.empty());
  for (const auto& [alias, count] : alias_defs) {
    EXPECT_EQ(count, 1) << alias;
  }
}

/// Every FO-classified random query must compile to balanced SQL.
class SqlGenSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlGenSweep, RandomFoQueriesCompile) {
  QueryGenOptions options;
  options.seed = GetParam();
  options.num_atoms = 2 + static_cast<int>(GetParam() % 3);
  Query q = RandomAcyclicQuery(options);
  Result<std::string> sql = CertainSqlRewriting(q);
  if (!sql.ok()) return;  // Non-FO: rejection is the correct behaviour.
  EXPECT_TRUE(ParensBalanced(*sql)) << q.ToString() << "\n" << *sql;
  EXPECT_NE(sql->find("SELECT "), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlGenSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{100}));

}  // namespace
}  // namespace cqa
