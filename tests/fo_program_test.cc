#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "fo/evaluator.h"
#include "fo/program.h"
#include "fo/rewriter.h"
#include "plan/plan_cache.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "solve_helpers.h"
#include "util/rng.h"

/// Differential tests for the set-at-a-time FO program executor: the
/// compiled program must agree with the tree-walking interpreter
/// (FormulaEvaluator) on every formula and every database — the same
/// oracle pattern as the indexed-vs-naive matcher suite. Plus unit
/// coverage for the edges the rewriting shape makes easy to miss:
/// antijoins over empty relations, constant-only queries and repeated
/// variables.

namespace cqa {
namespace {

/// Program-vs-interpreter check of a (formula, params) pair over `db`:
/// Boolean when rows is empty-of-columns, else one batched EvaluateRows
/// against a per-row interpreter loop.
void ExpectAgreement(const FormulaPtr& formula,
                     const std::vector<SymbolId>& params,
                     const std::vector<std::vector<SymbolId>>& rows,
                     const Database& db, const std::string& context) {
  Result<FoProgram> program = FoProgram::Lower(formula, params);
  ASSERT_TRUE(program.ok()) << context << ": " << program.status();
  FactIndex index(db);
  FormulaEvaluator interpreter(db);
  Result<std::vector<char>> mask =
      program->EvaluateRows(index, rows, 0, rows.size());
  ASSERT_TRUE(mask.ok()) << context << ": " << mask.status();
  const std::vector<char>& batched = *mask;
  ASSERT_EQ(batched.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Valuation binding;
    for (size_t j = 0; j < params.size(); ++j) {
      binding.Bind(params[j], rows[i][j]);
    }
    bool expected = interpreter.Eval(formula, binding);
    EXPECT_EQ(batched[i] != 0, expected)
        << context << " row " << i << "\n"
        << program->ToString() << "\ndb:\n"
        << db.ToString();
  }
}

// ------------------------------------------- randomized differentials

/// Boolean rewritings of random acyclic queries over random databases —
/// the matcher_property corpus recipe, pointed at the FO layer.
class ProgramDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramDifferential, BooleanRewritingsOnRandomDbs) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  qopts.max_arity = 3 + static_cast<int>(seed % 2);
  qopts.constant_percent = static_cast<int>(seed % 25);
  Query q = RandomAcyclicQuery(qopts);
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  if (!rewriting.ok()) return;  // Cyclic attack graph: not FO.

  DbGenOptions dopts;
  dopts.seed = seed * 31 + 7;
  dopts.domain_size = 3 + static_cast<int>(seed % 4);
  dopts.facts_per_relation = 6 + static_cast<int>(seed % 8);
  Database uniform = RandomDatabase(q, dopts);
  ExpectAgreement(*rewriting, {}, {{}}, uniform,
                  "uniform " + q.ToString());

  BlockDbGenOptions bopts;
  bopts.seed = seed * 17 + 3;
  bopts.blocks_per_relation = 3 + static_cast<int>(seed % 3);
  bopts.max_block_size = 2 + static_cast<int>(seed % 2);
  bopts.domain_size = 3 + static_cast<int>(seed % 3);
  Database blocked = RandomBlockDatabase(q, bopts);
  ExpectAgreement(*rewriting, {}, {{}}, blocked, "block " + q.ToString());
}

TEST_P(ProgramDifferential, ParameterizedRewritingsDecideRowBatches) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 13 + 1;
  qopts.num_atoms = 2 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  VarSet vars = q.Vars();
  if (vars.empty()) return;
  // One or two parameters, in ascending SymbolId order.
  std::vector<SymbolId> params(vars.begin(), vars.end());
  params.resize(1 + (seed % 2 != 0 && params.size() > 1 ? 1 : 0));
  VarSet param_set(params.begin(), params.end());
  Result<FormulaPtr> rewriting = CertainRewriting(q, param_set);
  if (!rewriting.ok()) return;

  BlockDbGenOptions bopts;
  bopts.seed = seed * 7 + 5;
  bopts.blocks_per_relation = 4;
  bopts.max_block_size = 2;
  bopts.domain_size = 4;
  Database db = RandomBlockDatabase(q, bopts);
  FactIndex index(db);
  // Candidate rows (the production shape) plus noise rows from the raw
  // domain, most of which are not possible answers.
  std::vector<std::vector<SymbolId>> rows =
      CollectProjectionsSorted(index, q, Valuation(), params);
  std::vector<SymbolId> adom = db.ActiveDomain();
  for (size_t i = 0; i + 1 < adom.size() && i < 4; ++i) {
    std::vector<SymbolId> noise(params.size(), adom[i]);
    rows.push_back(std::move(noise));
  }
  ExpectAgreement(*rewriting, params, rows, db,
                  "parameterized " + q.ToString());
}

TEST_P(ProgramDifferential, CorpusFoQueriesEndToEnd) {
  // The FO-rewritable subset of the named corpus, end to end through
  // the plan layer: IsCertainRows (the program) must agree with
  // IsCertainRow (the tree interpreter) on every possible answer.
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    if (!CertainRewriting(q).ok()) continue;  // not FO-rewritable
    BlockDbGenOptions bopts;
    bopts.seed = GetParam() * 11 + 13;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    Database db = RandomBlockDatabase(q, bopts);
    VarSet vars = q.Vars();
    std::vector<SymbolId> free_vars;
    if (!vars.empty()) free_vars.push_back(*vars.begin());

    auto plan = testutil::GlobalPlan(q, free_vars);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
    ASSERT_TRUE((*plan)->DecidesRowsByProgram()) << name;
    auto rows = testutil::PossibleAnswers(db, q, free_vars);
    ASSERT_TRUE(rows.ok()) << name << ": " << rows.status();
    EvalContext ctx(db);
    Result<std::vector<char>> batched = (*plan)->IsCertainRows(ctx, *rows);
    ASSERT_TRUE(batched.ok()) << name << ": " << batched.status();
    for (size_t i = 0; i < rows->size(); ++i) {
      Result<bool> oracle = (*plan)->IsCertainRow(ctx, (*rows)[i]);
      ASSERT_TRUE(oracle.ok()) << name << ": " << oracle.status();
      EXPECT_EQ((*batched)[i] != 0, *oracle) << name << " row " << i << "\n"
                                            << db.ToString();
    }
  }
}

/// Random guarded formulas over R(k | a, b) and S(k | a), drawn to hit
/// the lowering rules: guard bodies that ignore the guard's bindings,
/// ∀-guards over `true`, fresh variables repeated inside one guard, and
/// constants past the key. Fresh variables are named uniquely, so no
/// binder shadows another.
class GuardedFormulaGen {
 public:
  explicit GuardedFormulaGen(uint64_t seed) : rng_(seed) {}

  /// A formula whose free variables all lie in `scope`.
  FormulaPtr Make(const std::vector<std::string>& scope, int depth) {
    switch (depth == 0 ? rng_.Below(3) : rng_.Below(10)) {
      case 0:
        return Formula::True();
      case 1:
        return Formula::Equals(Pick(scope), Pick(scope));
      case 2:
        return rng_.Chance(1, 2) ? Formula::False()
                                 : Formula::MakeAtom(Membership(scope));
      case 3:
        return Formula::Not(Make(scope, depth - 1));
      case 4:
        return Formula::And({Make(scope, depth - 1), Make(scope, depth - 1)});
      case 5:
        return Formula::Or({Make(scope, depth - 1), Make(scope, depth - 1)});
      default: {
        std::vector<std::string> inner = scope;
        Atom guard = Guard(&inner);
        // Two bodies in three ignore what the guard binds (one in
        // three is `true`).
        FormulaPtr body = rng_.Chance(1, 3)
                              ? Formula::True()
                              : Make(rng_.Chance(1, 2) ? scope : inner,
                                     depth - 1);
        return rng_.Chance(1, 2) ? Formula::ExistsGuard(guard, body)
                                 : Formula::ForallGuard(guard, body);
      }
    }
  }

 private:
  std::string Constant() { return "c" + std::to_string(rng_.Below(4)); }

  /// A constant or a variable of `scope`, as a term.
  Term Pick(const std::vector<std::string>& scope) {
    if (scope.empty() || rng_.Chance(1, 4)) return Term::Const(Constant());
    return Term::Var(scope[rng_.Below(scope.size())]);
  }

  /// An R or S atom whose positions hold constants, variables of
  /// `*scope`, fresh variables (appended to `*scope`) or repeats of a
  /// fresh variable of the same atom.
  Atom Guard(std::vector<std::string>* scope) {
    const bool is_r = rng_.Chance(1, 2);
    std::vector<std::string> terms;
    std::vector<std::string> fresh;
    for (int i = 0; i < (is_r ? 3 : 2); ++i) {
      uint64_t pick = rng_.Below(8);
      if (pick == 0) {
        terms.push_back("'" + Constant() + "'");
      } else if (pick <= 2 && !scope->empty()) {
        terms.push_back((*scope)[rng_.Below(scope->size())]);
      } else if (pick == 3 && !fresh.empty()) {
        terms.push_back(fresh[rng_.Below(fresh.size())]);
      } else {
        fresh.push_back("v" + std::to_string(next_var_++));
        terms.push_back(fresh.back());
      }
    }
    scope->insert(scope->end(), fresh.begin(), fresh.end());
    return Atom::Make(is_r ? "R" : "S", terms, 1);
  }

  /// A membership atom over constants and variables of `scope`.
  Atom Membership(const std::vector<std::string>& scope) {
    const bool is_r = rng_.Chance(1, 2);
    std::vector<std::string> terms;
    for (int i = 0; i < (is_r ? 3 : 2); ++i) {
      Term t = Pick(scope);
      terms.push_back(t.is_const() ? "'" + SymbolName(t.id()) + "'"
                                   : SymbolName(t.id()));
    }
    return Atom::Make(is_r ? "R" : "S", terms, 1);
  }

  Rng rng_;
  int next_var_ = 0;
};

TEST_P(ProgramDifferential, LoweringRulesOnGuardedFormulas) {
  uint64_t seed = GetParam();
  GuardedFormulaGen gen(seed * 101 + 17);
  const SymbolId p = InternSymbol("p");
  BlockDbGenOptions bopts;
  bopts.seed = seed * 23 + 1;
  bopts.blocks_per_relation = 2 + static_cast<int>(seed % 3);
  bopts.max_block_size = 2;
  bopts.domain_size = 4;
  Database db = RandomBlockDatabase(MustParseQuery("R(k | a, b), S(l | c)"),
                                    bopts);
  std::vector<std::vector<SymbolId>> rows = {{InternSymbol("zz")}};
  for (int i = 0; i < 4; ++i) {
    rows.push_back({InternSymbol("c" + std::to_string(i))});
  }
  for (int i = 0; i < 6; ++i) {
    FormulaPtr sentence = gen.Make({}, 3);
    ExpectAgreement(sentence, {}, {{}}, db,
                    "sentence " + sentence->ToString());
    FormulaPtr formula = gen.Make({"p"}, 3);
    ExpectAgreement(formula, {p}, rows, db, "formula " + formula->ToString());
  }
}

// 120 seeds x (2 boolean + 1 parameterized batch + corpus sweep + 12
// guarded formulas), on top of every FO decision the rest of the suite
// routes through the program.
INSTANTIATE_TEST_SUITE_P(Seeds, ProgramDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{121}));

// --------------------------------------------------------- unit edges

Database EmptyDb() { return Database(); }

TEST(FoProgramTest, SemijoinOverEmptyRelationIsFalse) {
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  FormulaPtr f = Formula::ExistsGuard(r, Formula::True());
  ExpectAgreement(f, {}, {{}}, EmptyDb(), "exists-empty");
  Result<FoProgram> program = FoProgram::Lower(f, {});
  ASSERT_TRUE(program.ok());
  Database empty;
  FactIndex index(empty);
  EXPECT_FALSE(program->EvaluateBool(index));
}

TEST(FoProgramTest, AntijoinOverEmptyRelationIsVacuouslyTrue) {
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  // ∀ matches of R: false — holds exactly when R has no matching fact.
  FormulaPtr f = Formula::ForallGuard(r, Formula::False());
  ExpectAgreement(f, {}, {{}}, EmptyDb(), "forall-empty");
  Result<FoProgram> program = FoProgram::Lower(f, {});
  ASSERT_TRUE(program.ok());
  Database empty;
  FactIndex index(empty);
  EXPECT_TRUE(program->EvaluateBool(index));

  Database with_fact;
  ASSERT_TRUE(with_fact.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  FactIndex full(with_fact);
  EXPECT_FALSE(program->EvaluateBool(full));
  ExpectAgreement(f, {}, {{}}, with_fact, "forall-nonempty");
}

TEST(FoProgramTest, ConstantOnlyQueryDecidesByBlockMembership) {
  // q = R('a' | 'b'): certain iff block a exists and is exactly {b}.
  Query q = MustParseQuery("R('a' | 'b')");
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  ASSERT_TRUE(rewriting.ok());

  Database certain;
  ASSERT_TRUE(certain.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  Database uncertain = certain;
  ASSERT_TRUE(uncertain.AddFact(Fact::Make("R", {"a", "c"}, 1)).ok());
  Database absent;
  ASSERT_TRUE(absent.AddFact(Fact::Make("R", {"z", "b"}, 1)).ok());

  for (const Database* db : {&certain, &uncertain, &absent}) {
    ExpectAgreement(*rewriting, {}, {{}}, *db, "constant-only");
  }
  Result<FoProgram> program = FoProgram::Lower(*rewriting, {});
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->EvaluateBool(FactIndex(certain)));
  EXPECT_FALSE(program->EvaluateBool(FactIndex(uncertain)));
  EXPECT_FALSE(program->EvaluateBool(FactIndex(absent)));
}

TEST(FoProgramTest, RepeatedVariableGuardsCannotProbeTheirOwnBinding) {
  // R(x | x): the non-key check reads the register the same atom binds,
  // so the executor must scan rather than probe a garbage register.
  Query q = MustParseQuery("R(x | x)");
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  ASSERT_TRUE(rewriting.ok());
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"c0", "c0"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"c1", "c2"}, 1)).ok());
  ExpectAgreement(*rewriting, {}, {{}}, db, "repeated-var");
  Result<FoProgram> program = FoProgram::Lower(*rewriting, {});
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->EvaluateBool(FactIndex(db)));
}

TEST(FoProgramTest, LoweringRejectsUnboundVariables) {
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  // x and y are free but not parameters.
  FormulaPtr f = Formula::MakeAtom(r);
  Result<FoProgram> bad = FoProgram::Lower(f, {});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // With both as parameters it lowers and decides membership per row.
  Result<FoProgram> good =
      FoProgram::Lower(f, {InternSymbol("x"), InternSymbol("y")});
  ASSERT_TRUE(good.ok());
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  FactIndex index(db);
  std::vector<std::vector<SymbolId>> rows = {
      {InternSymbol("a"), InternSymbol("b")},
      {InternSymbol("a"), InternSymbol("a")}};
  Result<std::vector<char>> out =
      good->EvaluateRows(index, rows, 0, rows.size());
  ASSERT_TRUE(out.ok());
  EXPECT_NE((*out)[0], 0);
  EXPECT_EQ((*out)[1], 0);
}

/// Joins the executor materializes extensions for: every antijoin, and
/// every semijoin whose child is not `true`.
int MaterializingJoins(const FoProgram& program) {
  using Kind = FoProgram::Op::Kind;
  int joins = 0;
  for (const FoProgram::Op& op : program.ops()) {
    if (op.kind == Kind::kAntiJoin ||
        (op.kind == Kind::kSemiJoin &&
         program.ops()[op.child].kind != Kind::kTrue)) {
      ++joins;
    }
  }
  return joins;
}

TEST(FoProgramTest, PathRewritingLowersToOneMaterializingJoin) {
  // The certain rewriting of R(x | y), S(y | z) with x free is
  // ∃y R(x,y) ∧ ∀y (R(x,y) → ∃z S(y,z) ∧ ∀z (S(y,z) → true)). Only the
  // ∀ over R reads what it binds; the ∃ over R and the ∃ over S become
  // membership semijoins, and the ∀ over S disappears.
  auto plan = QueryPlan::Compile(MustParseQuery("R(x | y), S(y | z)"),
                                 {InternSymbol("x")});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE((*plan)->fo_program(), nullptr);
  const FoProgram& program = *(*plan)->fo_program();
  EXPECT_EQ(MaterializingJoins(program), 1) << program.ToString();
  for (const FoProgram::Op& op : program.ops()) {
    if (op.kind == FoProgram::Op::Kind::kAntiJoin) {
      EXPECT_EQ(op.relation, InternSymbol("R")) << program.ToString();
      EXPECT_NE(program.ops()[op.child].kind, FoProgram::Op::Kind::kTrue)
          << program.ToString();
    }
  }
}

TEST(FoProgramTest, LoweringRulesKeepTheSemantics) {
  // One formula per rule, each lowered and checked against the
  // interpreter over every parameter value of a small database.
  Atom r_rep = Atom::Make("R", {"p", "y", "y"}, 1);   // repeated fresh y
  Atom r_const = Atom::Make("R", {"p", "'c'", "w"}, 1);  // constant past key
  Atom s_y = Atom::Make("S", {"y", "z"}, 1);
  Atom s_w = Atom::Make("S", {"w", "z"}, 1);
  Atom s_p = Atom::Make("S", {"p", "u"}, 1);
  struct Case {
    std::string name;
    FormulaPtr formula;
    int materializing;
  };
  std::vector<Case> cases = {
      // ∃ whose body ignores y: and(semijoin R → true, semijoin S → true).
      {"exists-ignores-binding",
       Formula::ExistsGuard(r_rep, Formula::ExistsGuard(s_p, Formula::True())),
       0},
      // ∀ over true vanishes; the ∃ keeps its read of y.
      {"forall-true",
       Formula::ExistsGuard(r_rep, Formula::ForallGuard(s_y, Formula::True())),
       0},
      {"forall-reads-binding",
       Formula::ForallGuard(r_const,
                            Formula::ExistsGuard(s_w, Formula::True())),
       1},
      // and drops the true conjuncts.
      {"and-drops-true",
       Formula::And({Formula::True(),
                     Formula::ExistsGuard(r_const, Formula::True()),
                     Formula::True()}),
       0},
  };
  Database db;
  for (const auto& values : std::vector<std::vector<std::string>>{
           {"a", "b", "b"}, {"a", "c", "d"}, {"e", "c", "c"}, {"f", "g", "h"},
           {"f", "c", "f"}}) {
    ASSERT_TRUE(db.AddFact(Fact::Make("R", values, 1)).ok());
  }
  for (const auto& values : std::vector<std::vector<std::string>>{
           {"b", "1"}, {"c", "2"}, {"a", "3"}, {"f", "4"}, {"f", "5"}}) {
    ASSERT_TRUE(db.AddFact(Fact::Make("S", values, 1)).ok());
  }
  std::vector<std::vector<SymbolId>> rows;
  for (SymbolId v : db.ActiveDomain()) rows.push_back({v});
  for (const Case& c : cases) {
    ExpectAgreement(c.formula, {InternSymbol("p")}, rows, db, c.name);
    Result<FoProgram> program =
        FoProgram::Lower(c.formula, {InternSymbol("p")});
    ASSERT_TRUE(program.ok()) << c.name;
    EXPECT_EQ(MaterializingJoins(*program), c.materializing)
        << c.name << "\n"
        << program->ToString();
  }
}

TEST(FoProgramTest, PlanBatchesAgreeWithPerRowOracle) {
  // Plan-level: IsCertainRows (set-at-a-time) vs IsCertainRow (tree
  // interpreter) on a parameterized FO plan, including rows that are
  // not possible answers.
  Query q = MustParseQuery("R(x | y), S(y | z)");
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i % 3);
    ASSERT_TRUE(db.AddFact(Fact::Make("R", {a, b}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b0", "c"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b1", "c"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b1", "d"}, 1)).ok());

  auto plan = QueryPlan::Compile(q, {InternSymbol("x")});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->solver_kind(), SolverKind::kFoRewriting);
  EvalContext ctx(db);
  std::vector<std::vector<SymbolId>> rows;
  for (SymbolId v : db.ActiveDomain()) rows.push_back({v});
  Result<std::vector<char>> batched = (*plan)->IsCertainRows(ctx, rows);
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<bool> oracle = (*plan)->IsCertainRow(ctx, rows[i]);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ((*batched)[i] != 0, *oracle)
        << SymbolName(rows[i][0]) << "\n"
        << db.ToString();
  }
}

}  // namespace
}  // namespace cqa
