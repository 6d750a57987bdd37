#include <gtest/gtest.h>

#include "core/classifier.h"
#include "cq/corpus.h"
#include "cq/parser.h"
#include "fo/evaluator.h"
#include "fo/rewriter.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "solvers/fo_solver.h"
#include "solvers/oracle_solver.h"

namespace cqa {
namespace {

TEST(FormulaTest, ConnectivesEvaluate) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a"}, 1)).ok());
  FormulaEvaluator eval(db);
  Query q = MustParseQuery("R('a' |)");
  FormulaPtr atom = Formula::MakeAtom(q.atom(0));
  EXPECT_TRUE(eval.Eval(atom));
  EXPECT_FALSE(eval.Eval(Formula::Not(atom)));
  EXPECT_TRUE(eval.Eval(Formula::Or({Formula::False(), atom})));
  EXPECT_FALSE(eval.Eval(Formula::And({Formula::True(), Formula::False()})));
}

TEST(FormulaTest, GuardedQuantifiers) {
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "c"}, 1)).ok());
  FormulaEvaluator eval(db);
  Query guard_q = MustParseQuery("R(x | y)");
  const Atom& guard = guard_q.atom(0);
  // ∃[R(x,y)] (y = 'b') is true; ∀[R(x,y)] (y = 'b') is false.
  FormulaPtr y_is_b =
      Formula::Equals(Term::Var("y"), Term::Const("b"));
  EXPECT_TRUE(eval.Eval(Formula::ExistsGuard(guard, y_is_b)));
  EXPECT_FALSE(eval.Eval(Formula::ForallGuard(guard, y_is_b)));
}

TEST(RewriterTest, RefusesCyclicAttackGraphs) {
  EXPECT_FALSE(CertainRewriting(corpus::Q0()).ok());
  EXPECT_FALSE(CertainRewriting(corpus::Ck(2)).ok());
}

TEST(RewriterTest, ConferenceQueryRewriting) {
  // The Fig. 1 query is FO; its rewriting must answer "not certain" on
  // the Fig. 1 database (city of PODS 2016 is uncertain).
  Result<FoSolver> solver = FoSolver::Create(corpus::ConferenceQuery());
  ASSERT_TRUE(solver.ok());
  EXPECT_FALSE(*solver->IsCertain(corpus::ConferenceDatabase()));
}

TEST(RewriterTest, CertainWhenBlocksAgree) {
  Database db = corpus::ConferenceDatabase();
  // Adding R(ICDT, A) and C(ICDT, 2018, Rome) (consistent block) makes
  // the query certain: every repair keeps both facts.
  ASSERT_TRUE(db.AddFact(Fact::Make("C", {"ICDT", "2018", "Rome"}, 2)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"ICDT", "A"}, 1)).ok());
  Result<FoSolver> solver = FoSolver::Create(corpus::ConferenceQuery());
  ASSERT_TRUE(solver.ok());
  EXPECT_TRUE(*solver->IsCertain(db));
  EXPECT_TRUE(*OracleSolver(corpus::ConferenceQuery()).IsCertain(db));
}

/// Oracle cross-validation of the rewriting on randomized databases.
class FoVsOracle
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(FoVsOracle, RewritingMatchesOracle) {
  auto [text, seed] = GetParam();
  Query q = MustParseQuery(text);
  Result<FoSolver> solver = FoSolver::Create(q);
  ASSERT_TRUE(solver.ok()) << text;
  BlockDbGenOptions options;
  options.seed = seed;
  options.blocks_per_relation = 3;
  options.max_block_size = 2;
  options.domain_size = 3;
  Database db = RandomBlockDatabase(q, options);
  if (db.RepairCount() > BigInt(4096)) return;
  EXPECT_EQ(*solver->IsCertain(db), *OracleSolver(q).IsCertain(db))
      << text << " seed=" << seed << "\n"
      << db.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, FoVsOracle,
    ::testing::Combine(
        ::testing::Values(
            "R(x | y), S(y | z)",              // FO path.
            "R(x | y), S(y | z), T(z | w)",    // Longer path.
            "R(x | y), S(x | z)",              // Fork at the key.
            "R(x | y), S(y | 'a')",            // Constant in non-key.
            "R(x | x)",                        // Repeated variable.
            "R(x, y | z), S(x, z | w)",        // Wider keys, acyclic.
            "R(x | y, y)",                     // Repeated non-key.
            "S(x | y), T(y, z | u), P(u | v)"  // Mixed arities.
            ),
        ::testing::Range(uint64_t{1}, uint64_t{40})));

/// Random acyclic queries whose attack graph happens to be acyclic: the
/// rewriting must match the oracle.
class FoRandomQuery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FoRandomQuery, RewritingMatchesOracleOnRandomQueries) {
  QueryGenOptions qopts;
  qopts.seed = GetParam();
  qopts.num_atoms = 2 + static_cast<int>(GetParam() % 3);
  Query q = RandomAcyclicQuery(qopts);
  Result<Classification> cls = ClassifyQuery(q);
  ASSERT_TRUE(cls.ok());
  if (cls->complexity != ComplexityClass::kFirstOrder) return;
  Result<FoSolver> solver = FoSolver::Create(q);
  ASSERT_TRUE(solver.ok()) << q.ToString();
  for (uint64_t dbseed = 1; dbseed <= 5; ++dbseed) {
    BlockDbGenOptions options;
    options.seed = GetParam() * 100 + dbseed;
    options.blocks_per_relation = 2;
    options.max_block_size = 2;
    options.domain_size = 3;
    Database db = RandomBlockDatabase(q, options);
    if (db.RepairCount() > BigInt(4096)) continue;
    EXPECT_EQ(*solver->IsCertain(db), *OracleSolver(q).IsCertain(db))
        << q.ToString() << "\n"
        << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoRandomQuery,
                         ::testing::Range(uint64_t{1}, uint64_t{80}));

}  // namespace
}  // namespace cqa
