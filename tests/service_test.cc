#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "db/database.h"
#include "gen/db_gen.h"
#include "gen/instance_gen.h"
#include "serve/service.h"
#include "solve_helpers.h"
#include "solvers/oracle_solver.h"
#include "util/bigint.h"

namespace cqa {
namespace {

Database SupplierDb() {
  Database db;
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"p1", "acme"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"p2", "acme"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"p2", "globex"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"p3", "initech"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("D", {"acme", "east"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("D", {"globex", "west"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("D", {"initech", "north"}, 1)).ok());
  return db;
}

Query PathQ() { return MustParseQuery("R(x | y), S(y | z)"); }

/// `n` R-blocks joined to S, every third part uncertain.
Database PathDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    EXPECT_TRUE(db.AddFact(Fact::Make("R", {a, b}, 1)).ok());
    if (i % 3 == 0) {
      EXPECT_TRUE(db.AddFact(Fact::Make("R", {a, "dead"}, 1)).ok());
    }
    EXPECT_TRUE(db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok());
  }
  return db;
}

/// Streams every page of (db, handle-or-query) through the service and
/// reassembles the full row set, verifying page-level invariants along
/// the way.
Result<Session::RowSet> Reassemble(Service& service,
                                   Service::CertainAnswersRequest first) {
  Result<Service::CertainAnswersResponse> page =
      service.CertainAnswers(first);
  if (!page.ok()) return page.status();
  Session::RowSet rows = page->rows;
  size_t total = page->total_rows;
  uint64_t epoch = page->epoch;
  while (!page->next_page_token.empty()) {
    Service::CertainAnswersRequest next;
    next.database = first.database;
    next.page_token = page->next_page_token;
    page = service.CertainAnswers(next);
    if (!page.ok()) return page.status();
    // Every page of one stream reports the SAME snapshot.
    EXPECT_EQ(page->total_rows, total);
    EXPECT_EQ(page->epoch, epoch);
    rows.insert(rows.end(), page->rows.begin(), page->rows.end());
  }
  EXPECT_EQ(rows.size(), total);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  return rows;
}

// ---------------------------------------------------------- registry

TEST(ServiceTest, RegistryLifecycleAndErrorTaxonomy) {
  Service::Options options;
  options.num_threads = 1;
  options.max_databases = 2;
  Service service(options);

  EXPECT_TRUE(service.CreateDatabase("a", SupplierDb()).ok());
  EXPECT_TRUE(service.CreateDatabase("b", Database()).ok());
  EXPECT_EQ(service.ListDatabases(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(service.HasDatabase("a"));
  EXPECT_FALSE(service.HasDatabase("zz"));

  // Taken name and full registry: the state refuses a valid request.
  EXPECT_EQ(service.CreateDatabase("a", Database()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.DropDatabase("b").ok());
  EXPECT_TRUE(service.CreateDatabase("c", Database()).ok());
  EXPECT_EQ(service.CreateDatabase("d", Database()).code(),
            StatusCode::kFailedPrecondition);

  // Unknown names are NotFound; empty names malformed.
  EXPECT_EQ(service.DropDatabase("zz").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CreateDatabase("", Database()).code(),
            StatusCode::kInvalidArgument);

  Service::SolveRequest solve;
  solve.database = "zz";
  solve.query = corpus::ConferenceQuery();
  EXPECT_EQ(service.Solve(solve).status().code(), StatusCode::kNotFound);

  // Version mismatches are malformed requests.
  solve.database = "a";
  solve.api_version = Service::kApiVersion + 1;
  EXPECT_EQ(service.Solve(solve).status().code(),
            StatusCode::kInvalidArgument);

  // Exactly one of {prepared, query}.
  Service::SolveRequest neither;
  neither.database = "a";
  EXPECT_EQ(service.Solve(neither).status().code(),
            StatusCode::kInvalidArgument);
  Service::SolveRequest both = neither;
  both.query = corpus::ConferenceQuery();
  both.prepared = service.Prepare(corpus::ConferenceQuery()).value();
  EXPECT_EQ(service.Solve(both).status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------- prepared handles

TEST(ServiceTest, PreparedHandlesDedupeAndIntrospect) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);

  PreparedQueryHandle fo = service.Prepare(corpus::ConferenceQuery()).value();
  EXPECT_EQ(fo->solver_kind(), SolverKind::kFoRewriting);
  EXPECT_EQ(fo->complexity(), ComplexityClass::kFirstOrder);
  EXPECT_FALSE(fo->parameterized());
  ASSERT_TRUE(fo->classification().has_value());
  EXPECT_TRUE(fo->classification()->fo_expressible);

  // α-equivalent text returns the SAME handle (pointer-equal), and the
  // second Prepare is a plan-cache hit.
  PreparedQueryHandle variant =
      service.Prepare(MustParseQuery("C(a, b | 'Rome'), R(a | 'A')"))
          .value();
  EXPECT_EQ(variant.get(), fo.get());

  // Parameterized handles carry their free variables.
  std::vector<SymbolId> fv = {InternSymbol("x")};
  PreparedQueryHandle param = service.Prepare(PathQ(), fv).value();
  EXPECT_TRUE(param->parameterized());
  EXPECT_EQ(param->free_vars(), fv);
  EXPECT_NE(param->id(), fo->id());

  // A malformed request fails with the taxonomy's InvalidArgument.
  EXPECT_EQ(service.Prepare(PathQ(), {InternSymbol("nosuchvar")})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Solving a parameterized handle as Boolean is a precondition
  // failure, not a malformed request.
  EXPECT_TRUE(service.CreateDatabase("db", PathDb(4)).ok());
  Service::SolveRequest solve;
  solve.database = "db";
  solve.prepared = param;
  EXPECT_EQ(service.Solve(solve).status().code(),
            StatusCode::kFailedPrecondition);

  Service::StatsResponse stats = service.Stats({}).value();
  EXPECT_EQ(stats.prepared_queries, 2u);
}

TEST(ServiceTest, ForcedSolverHandlesReachAllSixKinds) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  EXPECT_TRUE(
      service.CreateDatabase("conf", corpus::ConferenceDatabase()).ok());

  // The classifier's natural picks across the frontier...
  EXPECT_EQ(service.Prepare(corpus::ConferenceQuery()).value()->solver_kind(),
            SolverKind::kFoRewriting);
  EXPECT_EQ(service.Prepare(corpus::Fig4Query()).value()->solver_kind(),
            SolverKind::kTerminalCycles);
  EXPECT_EQ(service.Prepare(corpus::Ack(3)).value()->solver_kind(),
            SolverKind::kAck);
  EXPECT_EQ(service.Prepare(corpus::Ck(3)).value()->solver_kind(),
            SolverKind::kCk);
  EXPECT_EQ(service.Prepare(corpus::Q0()).value()->solver_kind(),
            SolverKind::kSat);

  // ...and the forced sixth: oracle (and sat-on-a-tractable-query)
  // handles, distinct from the natural one, agreeing on the answer.
  PreparedQueryHandle natural =
      service.Prepare(corpus::ConferenceQuery()).value();
  for (SolverKind kind : {SolverKind::kOracle, SolverKind::kSat}) {
    Service::PrepareOptions force;
    force.force_solver = kind;
    PreparedQueryHandle forced =
        service.Prepare(corpus::ConferenceQuery(), {}, force).value();
    EXPECT_EQ(forced->solver_kind(), kind);
    EXPECT_NE(forced.get(), natural.get());
    // The forced plan's cache key carries a ";solver=" tag, so every
    // cache keyed by it (handle dedup, session answer cache) keeps
    // forced results apart from the natural plan's.
    EXPECT_NE(forced->plan()->cache_key(), natural->plan()->cache_key());
    // Introspection still reports the TRUE complexity.
    EXPECT_EQ(forced->complexity(), ComplexityClass::kFirstOrder);

    Service::SolveRequest a, b;
    a.database = "conf";
    a.prepared = natural;
    b.database = "conf";
    b.prepared = forced;
    EXPECT_EQ(service.Solve(a)->outcome.certain,
              service.Solve(b)->outcome.certain)
        << ToString(kind);
    EXPECT_EQ(service.Solve(b)->outcome.solver, kind);
  }

  // Forced handles dedupe among themselves.
  Service::PrepareOptions force;
  force.force_solver = SolverKind::kOracle;
  EXPECT_EQ(service.Prepare(corpus::ConferenceQuery(), {}, force)
                .value()
                .get(),
            service.Prepare(MustParseQuery("C(a, b | 'Rome'), R(a | 'A')"),
                            {}, force)
                .value()
                .get());
  // Overrides are Boolean-only.
  EXPECT_EQ(service.Prepare(PathQ(), {InternSymbol("x")}, force)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- pagination

TEST(ServiceTest, PaginationEdgeCases) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  EXPECT_TRUE(service.CreateDatabase("db", PathDb(7)).ok());
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();

  // The full answer set, one page.
  Service::CertainAnswersRequest req;
  req.database = "db";
  req.prepared = handle;
  Service::CertainAnswersResponse all = service.CertainAnswers(req).value();
  EXPECT_TRUE(all.next_page_token.empty());
  EXPECT_EQ(all.rows.size(), all.total_rows);
  ASSERT_GT(all.total_rows, 2u);

  // Page size 1: every row its own page, reassembly identical, and the
  // exhausted stream closes its cursor.
  req.page_size = 1;
  Result<Session::RowSet> rows = Reassemble(service, req);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, all.rows);
  EXPECT_EQ(service.Stats({}).value().open_cursors, 0u);

  // Empty result: empty page, no token, no cursor.
  Query none = MustParseQuery("R(x | y), S(y | 'nothere')");
  Service::CertainAnswersRequest empty;
  empty.database = "db";
  empty.query = none;
  empty.free_vars = {InternSymbol("x")};
  Service::CertainAnswersResponse page =
      service.CertainAnswers(empty).value();
  EXPECT_TRUE(page.rows.empty());
  EXPECT_TRUE(page.next_page_token.empty());
  EXPECT_EQ(page.total_rows, 0u);

  // Boolean pagination degenerates to zero or one empty row.
  Service::CertainAnswersRequest boolean;
  boolean.database = "db";
  boolean.query = PathQ();
  page = service.CertainAnswers(boolean).value();
  EXPECT_TRUE(page.next_page_token.empty());
  ASSERT_EQ(page.total_rows, 1u);
  EXPECT_TRUE(page.rows[0].empty());

  // Malformed tokens and query-plus-token requests are rejected.
  Service::CertainAnswersRequest bad;
  bad.database = "db";
  bad.page_token = "not-a-token";
  EXPECT_EQ(service.CertainAnswers(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.page_token = "v1:9:9";
  bad.query = PathQ();
  EXPECT_EQ(service.CertainAnswers(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, CursorsServeTheOldSnapshotAcrossDeltas) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  EXPECT_TRUE(service.CreateDatabase("db", PathDb(9)).ok());
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();

  Service::CertainAnswersRequest req;
  req.database = "db";
  req.prepared = handle;
  Service::CertainAnswersResponse before =
      service.CertainAnswers(req).value();

  // Open a stream, then land a delta that changes the answer set.
  req.page_size = 2;
  Service::CertainAnswersResponse first =
      service.CertainAnswers(req).value();
  ASSERT_FALSE(first.next_page_token.empty());

  Service::DeltaRequest delta;
  delta.database = "db";
  delta.delta.ReplaceBlock(InternSymbol("R"), {InternSymbol("a1")}, {});
  uint64_t epoch = service.ApplyDelta(delta).value().epoch;
  EXPECT_EQ(epoch, 1u);

  // The open cursor keeps serving its pre-delta snapshot to the end.
  Session::RowSet streamed = first.rows;
  std::string token = first.next_page_token;
  while (!token.empty()) {
    Service::CertainAnswersRequest next;
    next.database = "db";
    next.page_token = token;
    Service::CertainAnswersResponse page =
        service.CertainAnswers(next).value();
    EXPECT_EQ(page.epoch, first.epoch);
    streamed.insert(streamed.end(), page.rows.begin(), page.rows.end());
    token = page.next_page_token;
  }
  EXPECT_EQ(streamed, before.rows);

  // A fresh stream sees the post-delta world (one R-block deleted).
  req.page_size = 0;
  Service::CertainAnswersResponse after = service.CertainAnswers(req).value();
  EXPECT_EQ(after.epoch, epoch);
  EXPECT_EQ(after.total_rows, before.total_rows - 1);
}

TEST(ServiceTest, EvictedAndDroppedCursorsFailUnavailable) {
  Service::Options options;
  options.num_threads = 1;
  options.max_open_cursors = 1;
  Service service(options);
  EXPECT_TRUE(service.CreateDatabase("db", PathDb(8)).ok());
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();

  Service::CertainAnswersRequest req;
  req.database = "db";
  req.prepared = handle;
  req.page_size = 1;
  Service::CertainAnswersResponse a = service.CertainAnswers(req).value();
  ASSERT_FALSE(a.next_page_token.empty());
  // A second stream evicts the first cursor (capacity 1).
  Service::CertainAnswersResponse b = service.CertainAnswers(req).value();
  ASSERT_FALSE(b.next_page_token.empty());

  Service::CertainAnswersRequest cont;
  cont.database = "db";
  cont.page_token = a.next_page_token;
  EXPECT_EQ(service.CertainAnswers(cont).status().code(),
            StatusCode::kUnavailable);
  cont.page_token = b.next_page_token;
  EXPECT_TRUE(service.CertainAnswers(cont).ok());

  // Dropping the database invalidates its cursors the same way.
  Service::CertainAnswersResponse c = service.CertainAnswers(req).value();
  ASSERT_FALSE(c.next_page_token.empty());
  EXPECT_TRUE(service.DropDatabase("db").ok());
  cont.page_token = c.next_page_token;
  EXPECT_EQ(service.CertainAnswers(cont).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServiceTest, ConcurrentDeltasNeverTearAStream) {
  Service::Options options;
  options.num_threads = 2;
  Service service(options);
  EXPECT_TRUE(service.CreateDatabase("db", PathDb(24)).ok());
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int k = 0;
    while (!stop.load()) {
      Service::DeltaRequest delta;
      delta.database = "db";
      std::string a = "a" + std::to_string(1 + (k % 7));
      std::vector<Fact> facts = {Fact::Make("R", {a, "flip"}, 1)};
      delta.delta.ReplaceBlock(InternSymbol("R"), {InternSymbol(a)},
                               std::move(facts));
      service.ApplyDelta(delta).ok();
      ++k;
    }
  });

  // Every stream must reassemble to a row set from ONE snapshot: page
  // invariants (total_rows, epoch) are asserted inside Reassemble, and
  // an eviction surfaces as Unavailable — never a torn result.
  for (int round = 0; round < 25; ++round) {
    Service::CertainAnswersRequest req;
    req.database = "db";
    req.prepared = handle;
    req.page_size = 3;
    Result<Session::RowSet> rows = Reassemble(service, req);
    if (!rows.ok()) {
      EXPECT_EQ(rows.status().code(), StatusCode::kUnavailable);
    }
  }
  stop.store(true);
  writer.join();
}

// ------------------------------------- the Service-vs-Engine differential

/// The acceptance differential: over the matcher_property corpus shape
/// (every named corpus query against randomized block databases), the
/// Service front door must agree exactly with the legacy Engine on
/// Boolean certainty and full certain-answer sets — the latter
/// reassembled through cursor pagination.
class ServiceDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceDifferential, MatchesLegacyEngineOnCorpus) {
  uint64_t seed = GetParam();
  Service::Options options;
  options.num_threads = 1;
  Service service(options);

  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions bopts;
    bopts.seed = seed * 7 + 5;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    Database db = RandomBlockDatabase(q, bopts);
    const std::string db_name = name + "@" + std::to_string(seed);
    ASSERT_TRUE(service.CreateDatabase(db_name, db).ok());

    // Boolean: ad-hoc request vs deprecated testutil::Solve.
    Service::SolveRequest solve;
    solve.database = db_name;
    solve.query = q;
    Result<Service::SolveResponse> via_service = service.Solve(solve);
    ASSERT_TRUE(via_service.ok()) << name << ": " << via_service.status();
    Result<SolveOutcome> via_engine = testutil::Solve(db, q);
    ASSERT_TRUE(via_engine.ok()) << name;
    ASSERT_EQ(via_service->outcome.certain, via_engine->certain)
        << name << "\nquery: " << q.ToString() << "\ndb:\n"
        << db.ToString();
    EXPECT_EQ(via_service->outcome.solver, via_engine->solver) << name;

    // Non-Boolean: all variables free, pages of 2, reassembled.
    VarSet vars = q.Vars();
    std::vector<SymbolId> free_vars(vars.begin(), vars.end());
    std::sort(free_vars.begin(), free_vars.end());
    if (!free_vars.empty()) {
      Service::CertainAnswersRequest req;
      req.database = db_name;
      req.query = q;
      req.free_vars = free_vars;
      req.page_size = 2;
      Result<Session::RowSet> via_pages = Reassemble(service, req);
      ASSERT_TRUE(via_pages.ok()) << name << ": " << via_pages.status();
      Result<Session::RowSet> legacy =
          testutil::CertainAnswers(db, q, free_vars);
      ASSERT_TRUE(legacy.ok()) << name;
      ASSERT_EQ(*via_pages, *legacy)
          << name << "\nquery: " << q.ToString() << "\ndb:\n"
          << db.ToString();
    }

    // Where repair enumeration is feasible, the forced-oracle handle
    // must agree too (the sixth solver kind, exercised end to end).
    if (db.RepairCount() <= BigInt(1024)) {
      Service::PrepareOptions force;
      force.force_solver = SolverKind::kOracle;
      Result<PreparedQueryHandle> oracle = service.Prepare(q, {}, force);
      ASSERT_TRUE(oracle.ok()) << name;
      Service::SolveRequest check;
      check.database = db_name;
      check.prepared = *oracle;
      Result<Service::SolveResponse> via_oracle = service.Solve(check);
      ASSERT_TRUE(via_oracle.ok()) << name;
      EXPECT_EQ(via_oracle->outcome.certain, via_engine->certain) << name;
    }

    ASSERT_TRUE(service.DropDatabase(db_name).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// --------------------------------------------------------- deadlines

/// 1000 R-blocks all pointing at one S-block of 1000 facts: the first
/// page of R(x | y), S(y | z) on x enumerates 10^6 embeddings. A 20 ms
/// budget must stop the enumeration itself, not wait for it to finish.
TEST(ServiceTest, DeadlineCutsCandidateEnumerationShort) {
  Database db;
  for (int i = 0; i < 1000; ++i) {
    std::string n = std::to_string(i);
    EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a" + n, "hub"}, 1)).ok());
    EXPECT_TRUE(db.AddFact(Fact::Make("S", {"hub", "c" + n}, 1)).ok());
  }
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  ASSERT_TRUE(service.CreateDatabase("join", std::move(db)).ok());
  // Compile the plan and build the worker's index before the clock runs.
  Service::SolveRequest warm;
  warm.database = "join";
  warm.query = PathQ();
  ASSERT_TRUE(service.Solve(warm).ok());
  Service::CertainAnswersRequest request;
  request.database = "join";
  request.prepared =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();

  request.deadline = Deadline::AfterMillis(20);
  auto start = std::chrono::steady_clock::now();
  Result<Service::CertainAnswersResponse> page =
      service.CertainAnswers(request);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kDeadlineExceeded)
      << page.status();
  EXPECT_LT(elapsed_ms, 40.0);
}

/// Serves `db` as "slow" with one worker, prepares `q` forced onto
/// `kind`, and solves it once with a 20 ms budget. The reply must be
/// kDeadlineExceeded within 40 ms.
void ExpectForcedSolveCutShort(Database db, const Query& q, SolverKind kind) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  ASSERT_TRUE(service.CreateDatabase("slow", std::move(db)).ok());
  Service::PrepareOptions force;
  force.force_solver = kind;
  Service::SolveRequest request;
  request.database = "slow";
  request.prepared = service.Prepare(q, {}, force).value();

  request.deadline = Deadline::AfterMillis(20);
  auto start = std::chrono::steady_clock::now();
  Result<Service::SolveResponse> reply = service.Solve(request);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status();
  EXPECT_LT(elapsed_ms, 40.0);
}

TEST(ServiceTest, DeadlineCutsForcedOracleShort) {
  // BM_Thm2_OracleOnQ0/16's instance: about 0.3 s of repair enumeration
  // unbounded.
  Q0InstanceOptions q0;
  q0.join_pairs = 16;
  q0.violations = 16;
  q0.domain_size = 8;
  q0.seed = 3;
  ExpectForcedSolveCutShort(RandomQ0Database(q0), corpus::Q0(),
                            SolverKind::kOracle);
}

TEST(ServiceTest, DeadlineCutsForcedSatShort) {
  // Pigeonhole: 10 pigeons each pick one of 9 holes (a block per
  // pigeon), and the query holds when two distinct pigeons (C) share a
  // hole. Every repair satisfies it, so the SAT search must refute
  // PHP(10, 9): seconds of DPLL unbounded.
  Database db;
  for (int i = 0; i <= 9; ++i) {
    std::string p = "p" + std::to_string(i);
    for (int h = 0; h < 9; ++h) {
      ASSERT_TRUE(db.AddFact(Fact::Make("P", {p, "h" + std::to_string(h)}, 1))
                      .ok());
    }
    for (int j = i + 1; j <= 9; ++j) {
      ASSERT_TRUE(
          db.AddFact(Fact::Make("C", {p, "p" + std::to_string(j)}, 2)).ok());
    }
  }
  ExpectForcedSolveCutShort(std::move(db),
                            MustParseQuery("P(x | h), P(y | h), C(x, y |)"),
                            SolverKind::kSat);
}

// ------------------------------------------------------------- stats

TEST(ServiceTest, StatsSurfaceOneConsistentView) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  EXPECT_TRUE(service.CreateDatabase("db", PathDb(6)).ok());
  EXPECT_TRUE(service.CreateDatabase("other", SupplierDb()).ok());

  PreparedQueryHandle boolean = service.Prepare(PathQ()).value();
  Service::SolveRequest solve;
  solve.database = "db";
  solve.prepared = boolean;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(service.Solve(solve).ok());

  Service::CertainAnswersRequest req;
  req.database = "db";
  req.prepared = service.Prepare(PathQ(), {InternSymbol("x")}).value();
  EXPECT_TRUE(service.CertainAnswers(req).ok());
  EXPECT_TRUE(service.CertainAnswers(req).ok());  // cache hit

  Service::StatsResponse all = service.Stats({}).value();
  EXPECT_EQ(all.databases, 2u);
  EXPECT_EQ(all.prepared_queries, 2u);
  // The plan-cache snapshot is mutually consistent: the two Prepare
  // calls were the only lookups (prepared serving does none), both
  // misses, and the entry count matches them exactly.
  EXPECT_EQ(all.plan_cache.hits + all.plan_cache.misses, 2u);
  EXPECT_EQ(all.plan_cache.misses, 2u);
  EXPECT_EQ(all.plan_cache.entries, 2u);
  EXPECT_EQ(all.plan_cache.negative_entries, 0u);
  EXPECT_EQ(all.session.solves, 5u);
  EXPECT_EQ(all.session.answers_full, 1u);
  EXPECT_EQ(all.session.answers_cached, 1u);
  // The prepared Boolean handle's pinned solver saw the five calls.
  ASSERT_EQ(all.solvers.count(SolverKind::kFoRewriting), 1u);
  EXPECT_EQ(all.solvers.at(SolverKind::kFoRewriting).calls, 5);

  // Per-database selection narrows the session counters.
  Service::StatsRequest one;
  one.database = "other";
  Service::StatsResponse other = service.Stats(one).value();
  EXPECT_EQ(other.databases, 1u);
  EXPECT_EQ(other.session.solves, 0u);

  one.database = "zz";
  EXPECT_EQ(service.Stats(one).status().code(), StatusCode::kNotFound);
}

/// A tenant holds ONE fact index, shared by its workers. The Boolean
/// scan R(u | v), S(v | 'yes') probes S by key and value, a table of the
/// index's own; before any solve the gauge reads 0, after the first it
/// reads that table's bytes, and a batch that four workers serve at once
/// builds no second copy: four workers report what one does.
TEST(ServiceTest, IndexBytesGaugeCountsOneIndexPerTenant) {
  Database db;
  for (int i = 0; i < 256; ++i) {
    std::string v = "v" + std::to_string(i % 64);
    ASSERT_TRUE(db.AddFact(Fact::Make("R", {"u" + std::to_string(i), v}, 1))
                    .ok());
    if (i < 64) {
      ASSERT_TRUE(
          db.AddFact(Fact::Make("S", {v, i % 3 == 0 ? "no" : "yes"}, 1))
              .ok());
    }
  }
  uint64_t bytes[2] = {0, 0};
  const int threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    Service::Options options;
    options.num_threads = threads[t];
    Service service(options);
    ASSERT_TRUE(service.CreateDatabase("scan", db).ok());
    EXPECT_EQ(service.Stats({}).value().session.index_bytes, 0u);
    Service::SolveRequest solve;
    solve.database = "scan";
    solve.query = MustParseQuery("R(u | v), S(v | 'yes')");
    ASSERT_TRUE(service.Solve(solve).ok());
    bytes[t] = service.Stats({}).value().session.index_bytes;
    EXPECT_GT(bytes[t], 0u) << threads[t] << " worker(s)";
    for (const Result<Service::SolveResponse>& served :
         service.SolveBatch(std::vector<Service::SolveRequest>(8, solve))) {
      ASSERT_TRUE(served.ok()) << served.status();
    }
    EXPECT_EQ(service.Stats({}).value().session.index_bytes, bytes[t])
        << threads[t] << " worker(s)";
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace cqa
