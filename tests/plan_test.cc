#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/instance_gen.h"
#include "gen/query_gen.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "solvers/ack_solver.h"
#include "solvers/ck_solver.h"
#include "solve_helpers.h"
#include "solvers/fo_solver.h"
#include "solvers/oracle_solver.h"
#include "solvers/sat_solver.h"
#include "solvers/terminal_cycle_solver.h"
#include "util/rng.h"

namespace cqa {
namespace {

std::shared_ptr<const QueryPlan> MustCompile(const Query& q) {
  Result<std::shared_ptr<const QueryPlan>> plan = QueryPlan::Compile(q);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

TEST(QueryPlanTest, CompileTimeFactsPerClass) {
  auto fo = MustCompile(corpus::ConferenceQuery());
  EXPECT_EQ(fo->solver_kind(), SolverKind::kFoRewriting);
  EXPECT_EQ(fo->complexity(), ComplexityClass::kFirstOrder);
  ASSERT_TRUE(fo->classification().has_value());
  EXPECT_TRUE(fo->classification()->fo_expressible);
  EXPECT_NE(fo->fo_solver(), nullptr);
  EXPECT_NE(fo->fo_solver()->rewriting(), nullptr);

  auto tc = MustCompile(corpus::Fig4Query());
  EXPECT_EQ(tc->solver_kind(), SolverKind::kTerminalCycles);
  EXPECT_EQ(tc->complexity(), ComplexityClass::kPtimeTerminalCycles);

  auto ack = MustCompile(corpus::Ack(3));
  EXPECT_EQ(ack->solver_kind(), SolverKind::kAck);

  auto ck = MustCompile(corpus::Ck(3));
  EXPECT_EQ(ck->solver_kind(), SolverKind::kCk);

  auto conp = MustCompile(corpus::Q1());
  EXPECT_EQ(conp->solver_kind(), SolverKind::kSat);
  EXPECT_EQ(conp->complexity(), ComplexityClass::kConpComplete);

  // Self-join: unsupported fragment, SAT fallback, no classification.
  Query self_join;
  self_join.AddAtom(Atom::Make("R", {"x", "y"}, 1));
  self_join.AddAtom(Atom::Make("R", {"y", "x"}, 1));
  auto sj = MustCompile(self_join);
  EXPECT_EQ(sj->solver_kind(), SolverKind::kSat);
  EXPECT_FALSE(sj->classification().has_value());
}

TEST(QueryPlanTest, SolveAgreesWithSolverAndSurfacesSatStats) {
  BlockDbGenOptions options;
  options.seed = 5;
  Database db = RandomBlockDatabase(corpus::Q0(), options);
  auto plan = MustCompile(corpus::Q0());
  Result<SolveOutcome> out = plan->Solve(db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->solver, SolverKind::kSat);
  EXPECT_GT(out->sat_vars, 0);
  EXPECT_GT(out->sat_clauses, 0);
  // Per-instance stats accumulated on the plan's solver.
  EXPECT_EQ(plan->solver()->stats().calls, 1);
  EXPECT_EQ(plan->solver()->stats().sat_vars, out->sat_vars);
}

/// The acceptance differential: testutil::Solve through compiled plans
/// must agree with the direct per-class dispatch (the pre-refactor
/// behavior: classify, then run the matching solver on the *original*
/// query) on the full randomized corpus of matcher_property_test, and
/// with the repair-enumeration oracle where feasible.
class PlanDifferential : public ::testing::TestWithParam<uint64_t> {};

Result<bool> DirectDispatch(const Database& db, const Query& q) {
  Result<Classification> cls = ClassifyQuery(q);
  if (!cls.ok()) {
    if (cls.status().code() != StatusCode::kUnsupported) {
      return cls.status();
    }
    return SatSolver(q).IsCertain(db);
  }
  switch (cls->complexity) {
    case ComplexityClass::kFirstOrder: {
      Result<FoSolver> fo = FoSolver::Create(q);
      if (!fo.ok()) return fo.status();
      return fo->IsCertain(db);
    }
    case ComplexityClass::kPtimeTerminalCycles:
      return TerminalCycleSolver(q).IsCertain(db);
    case ComplexityClass::kPtimeAck:
      return AckSolver(q).IsCertain(db);
    case ComplexityClass::kPtimeCk:
      return CkSolver(q).IsCertain(db);
    case ComplexityClass::kConpComplete:
    case ComplexityClass::kOpenConjecturedPtime:
      return SatSolver(q).IsCertain(db);
  }
  return Status::Internal("unreachable");
}

void ExpectPlanAgrees(const Database& db, const Query& q,
                      const std::string& context) {
  Result<SolveOutcome> via_plan = testutil::Solve(db, q);
  ASSERT_TRUE(via_plan.ok()) << context << ": " << via_plan.status();
  Result<bool> direct = DirectDispatch(db, q);
  ASSERT_TRUE(direct.ok()) << context << ": " << direct.status();
  ASSERT_EQ(via_plan->certain, *direct)
      << context << "\nquery: " << q.ToString() << "\ndb:\n"
      << db.ToString();
  if (db.RepairCount() <= BigInt(4096)) {
    EXPECT_EQ(via_plan->certain, *OracleSolver(q).IsCertain(db))
        << context << "\nquery: " << q.ToString() << "\ndb:\n"
        << db.ToString();
  }
}

TEST_P(PlanDifferential, RandomQueriesUniformDb) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  qopts.max_arity = 3 + static_cast<int>(seed % 2);
  qopts.constant_percent = static_cast<int>(seed % 25);
  Query q = RandomAcyclicQuery(qopts);
  DbGenOptions dopts;
  dopts.seed = seed * 31 + 7;
  dopts.domain_size = 3 + static_cast<int>(seed % 4);
  dopts.facts_per_relation = 6 + static_cast<int>(seed % 8);
  ExpectPlanAgrees(RandomDatabase(q, dopts), q, "uniform");
}

TEST_P(PlanDifferential, RandomQueriesBlockDb) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 13 + 1;
  qopts.num_atoms = 2 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions bopts;
  bopts.seed = seed * 17 + 3;
  bopts.blocks_per_relation = 3 + static_cast<int>(seed % 3);
  bopts.max_block_size = 2 + static_cast<int>(seed % 2);
  bopts.domain_size = 3 + static_cast<int>(seed % 3);
  ExpectPlanAgrees(RandomBlockDatabase(q, bopts), q, "block");
}

TEST_P(PlanDifferential, CorpusQueries) {
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions bopts;
    bopts.seed = GetParam() * 7 + 5;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    ExpectPlanAgrees(RandomBlockDatabase(q, bopts), q, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{120}));

TEST(PlanCacheTest, AlphaEquivalentQueriesShareOnePlan) {
  PlanCache cache;
  Query a = MustParseQuery("R(x | y), S(y | z)");
  Query b = MustParseQuery("S(q | w), R(p | q)");
  auto plan_a = cache.GetOrCompile(a);
  auto plan_b = cache.GetOrCompile(b);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(plan_a->get(), plan_b->get());
  PlanCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(cache.Lookup(b).get(), plan_a->get());
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;
  PlanCache cache(options);
  Query a = MustParseQuery("A(x | y)");
  Query b = MustParseQuery("B(x | y)");
  Query c = MustParseQuery("C0(x | y)");
  ASSERT_TRUE(cache.GetOrCompile(a).ok());
  ASSERT_TRUE(cache.GetOrCompile(b).ok());
  ASSERT_TRUE(cache.GetOrCompile(a).ok());  // touch a: b is now LRU
  ASSERT_TRUE(cache.GetOrCompile(c).ok());  // evicts b
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Lookup(a), nullptr);
}

TEST(PlanCacheTest, UnsupportedFragmentCompilesToCachedSatPlan) {
  PlanCache cache;
  // Self-join: outside the dichotomy's fragment, compiled to the exact
  // SAT fallback — and cached like any other plan (the fallback decision
  // is itself compile-time knowledge).
  Query q;
  q.AddAtom(Atom::Make("R", {"x", "y"}, 1));
  q.AddAtom(Atom::Make("R", {"y", "x"}, 1));
  auto plan = cache.GetOrCompile(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->solver_kind(), SolverKind::kSat);
  Query renamed;
  renamed.AddAtom(Atom::Make("R", {"b", "a"}, 1));
  renamed.AddAtom(Atom::Make("R", {"a", "b"}, 1));
  auto again = cache.GetOrCompile(renamed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(plan->get(), again->get());
  EXPECT_EQ(cache.Snapshot().hits, 1u);
}

TEST(PlanCacheTest, MalformedQueriesAreNegativelyCached) {
  PlanCache cache;
  // A free variable that does not occur in the query: compile rejects
  // it, and the Status itself is cached so repeated bad traffic never
  // recompiles (canonicalization still runs to find the key).
  Query q = MustParseQuery("R(x | y)");
  std::vector<SymbolId> bad = {InternSymbol("nosuchvar")};
  auto first = cache.GetOrCompile(q, bad);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  PlanCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);

  // The repeat (and any α-variant with the same malformed shape) is a
  // negative hit: same Status, no second compile.
  auto again = cache.GetOrCompile(q, bad);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), first.status().code());
  EXPECT_EQ(again.status().message(), first.status().message());
  stats = cache.Snapshot();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);

  // Lookup never serves a plan from a negative entry.
  EXPECT_EQ(cache.Lookup(q), nullptr);

  // The same query with a valid parameter list is a distinct key and
  // compiles fine.
  auto good = cache.GetOrCompile(q, {InternSymbol("x")});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(cache.Snapshot().negative_entries, 1u);
  EXPECT_EQ(cache.Snapshot().entries, 2u);

  // Clear drops negative entries and counters with everything else.
  cache.Clear();
  stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.negative_hits, 0u);
}

TEST(PlanCacheTest, DuplicatedFreeVariablesStayValid) {
  // A repeated free variable projects the same column twice — legal,
  // and must not be confused with a variable that never occurs (the
  // later canonical placeholders have no occurrences by construction).
  PlanCache cache;
  Query q = MustParseQuery("R(x | y)");
  SymbolId x = InternSymbol("x");
  auto plan = cache.GetOrCompile(q, {x, x});
  ASSERT_TRUE(plan.ok()) << plan.status();
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  EvalContext ctx(db);
  Result<std::vector<char>> rows =
      (*plan)->IsCertainRows(ctx, {{InternSymbol("a"), InternSymbol("a")}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_NE((*rows)[0], 0);
}

TEST(PlanCacheTest, ArgumentSignatureKeepsValidAndMalformedListsApart) {
  // {x, x} (legal duplicate) and {x, nosuchvar} (malformed) leave the
  // same trace in the canonical rendering; the cache's argument
  // signature must keep their entries apart in BOTH request orders.
  Query q = MustParseQuery("R(x | y)");
  SymbolId x = InternSymbol("x");
  SymbolId bad = InternSymbol("nosuchvar");
  {
    PlanCache cache;  // malformed first: must not poison the valid key
    ASSERT_FALSE(cache.GetOrCompile(q, {x, bad}).ok());
    auto valid = cache.GetOrCompile(q, {x, x});
    EXPECT_TRUE(valid.ok()) << valid.status();
  }
  {
    PlanCache cache;  // valid first: must not legitimize the bad list
    ASSERT_TRUE(cache.GetOrCompile(q, {x, x}).ok());
    auto invalid = cache.GetOrCompile(q, {x, bad});
    ASSERT_FALSE(invalid.ok());
    EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PlanCacheTest, NegativeEntriesAreEvictedBeforePlans) {
  PlanCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;
  PlanCache cache(options);
  Query good = MustParseQuery("A(x | y)");
  ASSERT_TRUE(cache.GetOrCompile(good).ok());
  // Two distinct malformed parameterized requests: the overflow evicts
  // the OLDER NEGATIVE entry, never the compiled plan.
  Query bad1 = MustParseQuery("B(x | y)");
  Query bad2 = MustParseQuery("C0(x | y)");
  ASSERT_FALSE(cache.GetOrCompile(bad1, {InternSymbol("zz")}).ok());
  ASSERT_FALSE(cache.GetOrCompile(bad2, {InternSymbol("zz")}).ok());
  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  EXPECT_NE(cache.Lookup(good), nullptr);  // plan survived the flood
  EXPECT_EQ(cache.Snapshot().negative_entries, 1u);
}

TEST(MakeSolverTest, BuildsEveryKindAndRoundTripsNames) {
  for (SolverKind kind :
       {SolverKind::kFoRewriting, SolverKind::kTerminalCycles,
        SolverKind::kAck, SolverKind::kCk, SolverKind::kSat,
        SolverKind::kOracle}) {
    EXPECT_EQ(SolverKindFromString(ToString(kind)), kind);
    // Only the FO rewriting validates at build time; the rest accept
    // any query and check their preconditions when they decide.
    Result<std::unique_ptr<Solver>> solver =
        MakeSolver(kind, kind == SolverKind::kFoRewriting
                             ? corpus::ConferenceQuery()
                             : corpus::Q0());
    ASSERT_TRUE(solver.ok()) << ToString(kind) << ": " << solver.status();
    EXPECT_EQ((*solver)->kind(), kind);
    EXPECT_EQ((*solver)->name(), ToString(kind));
  }
  // The FO rewriting refuses a cyclic attack graph.
  EXPECT_FALSE(MakeSolver(SolverKind::kFoRewriting, corpus::Q1()).ok());
  Result<std::unique_ptr<Solver>> fo =
      MakeSolver(SolverKind::kFoRewriting, corpus::ConferenceQuery());
  ASSERT_TRUE(fo.ok());
  EXPECT_FALSE(*(*fo)->IsCertain(corpus::ConferenceDatabase()));
}

TEST(QueryPlanTest, ParameterizedPlanMatchesGroundSolve) {
  Database db = corpus::ConferenceDatabase();
  ASSERT_TRUE(db.AddFact(Fact::Make("C", {"ICDT", "2018", "Lyon"}, 2)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"ICDT", "A"}, 1)).ok());
  Query q = MustParseQuery("C(x, y | c), R(x | r)");
  std::vector<SymbolId> free_vars = {InternSymbol("c"), InternSymbol("r")};
  Result<std::shared_ptr<const QueryPlan>> plan =
      QueryPlan::Compile(q, free_vars);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->parameterized());
  auto possible = testutil::PossibleAnswers(db, q, free_vars);
  ASSERT_TRUE(possible.ok());
  ASSERT_FALSE(possible->empty());
  EvalContext ctx(db);
  for (const auto& row : *possible) {
    Result<bool> via_plan = (*plan)->IsCertainRow(ctx, row);
    ASSERT_TRUE(via_plan.ok());
    Query ground = q;
    for (size_t i = 0; i < free_vars.size(); ++i) {
      ground = ground.Substitute(free_vars[i], row[i]);
    }
    Result<SolveOutcome> solved = testutil::Solve(db, ground);
    ASSERT_TRUE(solved.ok());
    EXPECT_EQ(*via_plan, solved->certain);
  }
}

// ------------------------------------------------ scoped non-FO decisions

/// `db` plus facts of two relations no test query mentions, Pad(k | v)
/// and PadPair(k1, k2 | v): blocks of one or two facts, so some of them
/// conflict, over constants of db's active domain and two fresh ones.
Database Padded(const Database& db, uint64_t seed) {
  Database out = db;
  Rng rng(seed);
  std::vector<SymbolId> pool = db.ActiveDomain();
  pool.push_back(InternSymbol("pad0"));
  pool.push_back(InternSymbol("pad1"));
  auto pick = [&] { return pool[rng.Below(pool.size())]; };
  SymbolId pad = InternSymbol("Pad");
  SymbolId pad_pair = InternSymbol("PadPair");
  for (int b = 0; b < 3; ++b) {
    SymbolId key = pick();
    for (uint64_t f = 0, n = 1 + rng.Below(2); f < n; ++f) {
      EXPECT_TRUE(out.AddFact(Fact(pad, {key, pick()}, 1)).ok());
    }
  }
  for (int b = 0; b < 2; ++b) {
    SymbolId k1 = pick();
    SymbolId k2 = pick();
    for (uint64_t f = 0, n = 1 + rng.Below(2); f < n; ++f) {
      EXPECT_TRUE(out.AddFact(Fact(pad_pair, {k1, k2, pick()}, 2)).ok());
    }
  }
  return out;
}

/// Repair enumeration over the whole database: the unscoped reference.
bool OracleVerdict(const Database& db, const Query& q) {
  auto plan = QueryPlan::CompileForcedSolver(q, SolverKind::kOracle);
  EXPECT_TRUE(plan.ok()) << plan.status();
  Result<SolveOutcome> out = (*plan)->Solve(db);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() && out->certain;
}

/// Above this many repairs the oracle is skipped.
constexpr int kOracleRepairs = 1 << 12;

/// The Boolean plan of `q` decides `padded` as it decides `db`, as its
/// solver decides `padded` unscoped, and (where feasible) as the
/// repair-enumeration oracle does. Each parameterized plan of `q` with
/// one free variable that is not FO decides every candidate row of
/// `padded`, and a row with no embedding, as its unscoped row decision
/// and (where feasible) the oracle on the grounded query do. Returns the
/// number of rows checked on non-FO plans.
int ExpectCutsSound(const Database& db, const Query& q, SolverKind kind,
                    uint64_t seed) {
  SCOPED_TRACE(q.ToString() + "\n" + db.ToString());
  Database padded = Padded(db, seed);
  EXPECT_GT(padded.size(), db.size());
  auto plan = MustCompile(q);
  EXPECT_EQ(plan->solver_kind(), kind);
  Result<SolveOutcome> on_padded = plan->Solve(padded);
  Result<SolveOutcome> on_db = plan->Solve(db);
  Result<bool> unscoped = plan->solver()->IsCertain(padded);
  EXPECT_TRUE(on_padded.ok() && on_db.ok() && unscoped.ok());
  if (!on_padded.ok() || !on_db.ok() || !unscoped.ok()) return 0;
  EXPECT_EQ(on_padded->certain, on_db->certain);
  EXPECT_EQ(on_padded->certain, *unscoped);
  bool oracle_feasible = padded.RepairCount() <= BigInt(kOracleRepairs);
  if (oracle_feasible) {
    EXPECT_EQ(on_padded->certain, OracleVerdict(padded, q));
  }

  int rows_checked = 0;
  EvalContext ctx(padded);
  for (SymbolId v : q.Vars()) {
    auto param = QueryPlan::Compile(q, {v});
    EXPECT_TRUE(param.ok()) << param.status();
    if (!param.ok() || (*param)->solver_kind() == SolverKind::kFoRewriting) {
      continue;
    }
    auto rows = testutil::PossibleAnswers(padded, q, {v});
    EXPECT_TRUE(rows.ok());
    if (!rows.ok()) continue;
    rows->push_back({InternSymbol("no_such_constant")});
    Result<std::vector<char>> verdicts = (*param)->IsCertainRows(ctx, *rows);
    EXPECT_TRUE(verdicts.ok()) << verdicts.status();
    if (!verdicts.ok()) continue;
    for (size_t i = 0; i < rows->size(); ++i) {
      const std::vector<SymbolId>& row = (*rows)[i];
      SCOPED_TRACE(SymbolName(v) + " = " + SymbolName(row[0]));
      Result<bool> whole = (*param)->IsCertainRow(ctx, row);
      EXPECT_TRUE(whole.ok());
      if (whole.ok()) {
        EXPECT_EQ((*verdicts)[i] != 0, *whole);
      }
      if (oracle_feasible) {
        EXPECT_EQ((*verdicts)[i] != 0,
                  OracleVerdict(padded, q.Substitute(v, row[0])));
      }
      ++rows_checked;
    }
  }
  return rows_checked;
}

class ScopedCutDifferential : public ::testing::TestWithParam<uint64_t> {};

/// Random Fig. 4 blocks plus two groups that embed the whole query
/// through x = a_g. Each group is plain (certain), has a second R1 fact
/// with another z (not certain), or has a second R3 fact whose R4
/// partner exists too (certain through a conflict).
Database Fig4Instance(uint64_t seed) {
  BlockDbGenOptions options;
  options.seed = seed;
  options.blocks_per_relation = 2;
  options.max_block_size = 2;
  options.domain_size = 3;
  Database db = RandomBlockDatabase(corpus::Fig4Query(), options);
  Rng rng(seed);
  for (int g = 0; g < 2; ++g) {
    std::string a = "a" + std::to_string(g);
    std::string b = "b" + std::to_string(g);
    std::string u = "u" + std::to_string(g) + "_";
    std::vector<Fact> facts = {
        Fact::Make("R1", {a, u + "1", u + "2", "z"}, 2),
        Fact::Make("R2", {a, u + "2", u + "1", "z"}, 2),
        Fact::Make("R3", {a, b, u + "3", u + "4"}, 3),
        Fact::Make("R4", {a, b, u + "4", u + "3"}, 3),
        Fact::Make("R5", {b, u + "5", u + "6"}, 2),
        Fact::Make("R6", {b, u + "6", u + "5"}, 2)};
    switch (rng.Below(3)) {
      case 1:
        facts.push_back(Fact::Make("R1", {a, u + "1", u + "2", "z2"}, 2));
        break;
      case 2:
        facts.push_back(Fact::Make("R3", {a, b, u + "3", u + "7"}, 3));
        facts.push_back(Fact::Make("R4", {a, b, u + "7", u + "3"}, 3));
        break;
    }
    for (const Fact& f : facts) EXPECT_TRUE(db.AddFact(f).ok());
  }
  return db;
}

TEST_P(ScopedCutDifferential, TerminalCycles) {
  EXPECT_GT(ExpectCutsSound(Fig4Instance(GetParam()), corpus::Fig4Query(),
                            SolverKind::kTerminalCycles, GetParam()),
            0);
}

TEST_P(ScopedCutDifferential, Ack) {
  AckInstanceOptions options;
  options.k = 3;
  options.layer_size = 2;
  options.s_tuples = 2 + static_cast<int>(GetParam() % 2);
  options.noise_edges = static_cast<int>(GetParam() % 4);
  options.seed = GetParam();
  ExpectCutsSound(RandomAckDatabase(options), corpus::Ack(3), SolverKind::kAck,
                  GetParam());
}

TEST_P(ScopedCutDifferential, Ck) {
  CkInstanceOptions options;
  options.k = 3;
  options.layer_size = 2;
  options.edges_per_vertex = 1 + static_cast<int>(GetParam() % 2);
  options.seed = GetParam();
  ExpectCutsSound(RandomCkDatabase(options), corpus::Ck(3), SolverKind::kCk,
                  GetParam());
}

TEST_P(ScopedCutDifferential, Q0) {
  Q0InstanceOptions options;
  options.join_pairs = 3;
  options.violations = 3;
  options.domain_size = 3;
  options.seed = GetParam();
  // Free z is a terminal-cycle plan: its rows take the scoped row path.
  EXPECT_GT(ExpectCutsSound(RandomQ0Database(options), corpus::Q0(),
                            SolverKind::kSat, GetParam()),
            0);
}

TEST_P(ScopedCutDifferential, SelfJoinSatFallback) {
  Query q;
  q.AddAtom(Atom::Make("R", {"x", "y"}, 1));
  q.AddAtom(Atom::Make("R", {"y", "x"}, 1));
  BlockDbGenOptions options;
  options.seed = GetParam();
  options.blocks_per_relation = 4;
  options.max_block_size = 2;
  options.domain_size = 3;
  EXPECT_GT(ExpectCutsSound(RandomBlockDatabase(q, options), q,
                            SolverKind::kSat, GetParam()),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopedCutDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

TEST(QueryPlanTest, RowFallbackBoundsEachRowByTheDeadline) {
  // Pigeonhole: 9 pigeons each pick one of 8 holes, and the query holds
  // when two distinct pigeons (C) share a hole, which every repair does.
  // Deciding the row means refuting PHP(9, 8): well over 100 ms of DPLL.
  Database db;
  for (int i = 0; i <= 8; ++i) {
    std::string p = "p" + std::to_string(i);
    for (int h = 0; h < 8; ++h) {
      ASSERT_TRUE(db.AddFact(Fact::Make("P", {p, "h" + std::to_string(h)}, 1))
                      .ok());
    }
    for (int j = i + 1; j <= 8; ++j) {
      ASSERT_TRUE(
          db.AddFact(Fact::Make("C", {p, "p" + std::to_string(j)}, 2)).ok());
    }
  }
  ASSERT_TRUE(db.AddFact(Fact::Make("W", {"w"}, 1)).ok());
  Query q = MustParseQuery("P(x | h), P(y | h), C(x, y |), W(w |)");
  auto plan = QueryPlan::Compile(q, {InternSymbol("w")});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ((*plan)->solver_kind(), SolverKind::kSat);
  EvalContext ctx(db);
  ctx.fact_index();
  auto start = std::chrono::steady_clock::now();
  Result<std::vector<char>> rows = (*plan)->IsCertainRows(
      ctx, {{InternSymbol("w")}}, Deadline::AfterMillis(20));
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded)
      << rows.status();
  EXPECT_LT(elapsed_ms, 40.0);
}

TEST(QueryPlanTest, FoSolveHonoursTheDeadline) {
  Database db = corpus::ConferenceDatabase();
  Query q = corpus::ConferenceQuery();
  std::shared_ptr<const QueryPlan> plan = MustCompile(q);
  ASSERT_EQ(plan->solver_kind(), SolverKind::kFoRewriting);
  Result<SolveOutcome> expected = testutil::Solve(db, q);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EvalContext ctx(db);
  Result<SolveOutcome> expired = plan->Solve(ctx, Deadline::AfterMillis(0));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  Result<SolveOutcome> unlimited = plan->Solve(ctx, Deadline());
  ASSERT_TRUE(unlimited.ok()) << unlimited.status();
  EXPECT_EQ(unlimited->certain, expected->certain);
}

}  // namespace
}  // namespace cqa
