#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "fo/sql_lower.h"
#include "gen/query_gen.h"

/// \file
/// Units for `CertainSqlRewriting` (fo/sql_lower.h): the certain
/// rewriting of a query printed as one SQL statement over tables named
/// by the relation names, with identifier and literal quoting and the
/// refusal of non-FO queries.

namespace cqa {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

bool ParensBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (char c : s) {
    if (c == '\'') in_string = !in_string;
    if (in_string) continue;
    if (c == '(') ++depth;
    if (c == ')' && --depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(SqlGenTest, ConferenceQueryCompiles) {
  Result<std::string> sql = CertainSqlRewriting(corpus::ConferenceQuery());
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Certain rewriting shape: outer EXISTS over one relation, inner
  // NOT EXISTS over the same relation's block.
  EXPECT_TRUE(Contains(*sql, "EXISTS (SELECT 1 FROM")) << *sql;
  EXPECT_TRUE(Contains(*sql, "NOT EXISTS")) << *sql;
  // Relation names render as quoted identifiers, constants as string
  // literals of their names.
  EXPECT_TRUE(Contains(*sql, " \"C\" ")) << *sql;
  EXPECT_TRUE(Contains(*sql, " \"R\" ")) << *sql;
  EXPECT_TRUE(Contains(*sql, "'Rome'")) << *sql;
  EXPECT_TRUE(Contains(*sql, "'A'")) << *sql;
  EXPECT_EQ(sql->rfind(";"), sql->size() - 1) << *sql;
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
  EXPECT_TRUE(Contains(*sql, "\"R\"\" FROM x; DROP TABLE users; --\""))
      << *sql;
  // The raw (undoubled) breakout `R" FROM` never appears.
  EXPECT_FALSE(Contains(*sql, "R\" FROM")) << *sql;
}

TEST(SqlGenTest, QuoteSqlIdentifierEscapes) {
  EXPECT_EQ(QuoteSqlIdentifier("plain"), "\"plain\"");
  EXPECT_EQ(QuoteSqlIdentifier("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(QuoteSqlIdentifier(""), "\"\"");
}

TEST(SqlGenTest, PathQueryNestsPerAtom) {
  Result<std::string> sql = CertainSqlRewriting(corpus::PathQuery(3));
  ASSERT_TRUE(sql.ok()) << sql.status();
  // One NOT EXISTS per block check of the first two atoms. The last
  // atom's ∀ has body `true` (nothing follows it in the path), and the
  // lowering drops ∀ȳ (G → true) ≡ true, so it renders no NOT EXISTS.
  EXPECT_EQ(CountOf(*sql, "NOT EXISTS"), 2u) << *sql;
  EXPECT_TRUE(ParensBalanced(*sql)) << *sql;
}

TEST(SqlGenTest, QuotesEmbeddedQuotes) {
  Query q;
  q.AddAtom(Atom(InternSymbol("R"),
                 {Term::Var("x"), Term::Const(InternSymbol("O'Brien"))}, 1));
  Result<std::string> sql = CertainSqlRewriting(q);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_TRUE(Contains(*sql, "'O''Brien'")) << *sql;
  EXPECT_TRUE(ParensBalanced(*sql)) << *sql;
}

TEST(SqlGenTest, RefusesNonFoQueries) {
  EXPECT_FALSE(CertainSqlRewriting(corpus::Q0()).ok());
  EXPECT_FALSE(CertainSqlRewriting(corpus::Ck(2)).ok());
}

TEST(SqlGenTest, AliasesAreUnique) {
  Result<std::string> sql = CertainSqlRewriting(corpus::PathQuery(4));
  ASSERT_TRUE(sql.ok()) << sql.status();
  // Every alias tN introduced with "AS tN" must appear exactly once in
  // an AS clause.
  std::map<std::string, int> alias_defs;
  for (size_t pos = sql->find(" AS t"); pos != std::string::npos;
       pos = sql->find(" AS t", pos + 1)) {
    size_t start = pos + 4;
    size_t end = start;
    while (end < sql->size() &&
           std::isalnum(static_cast<unsigned char>((*sql)[end]))) {
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
  EXPECT_TRUE(Contains(*sql, "SELECT ")) << *sql;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlGenSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{100}));

}  // namespace
}  // namespace cqa
