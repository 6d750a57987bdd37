#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "cq/corpus.h"
#include "cq/parser.h"
#include "db/database.h"
#include "gen/db_gen.h"
#include "net/codec.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// Backend equivalence: a service whose databases run on the SQLite
/// pushdown backend must be observably IDENTICAL to one whose databases
/// have no backend and serve in memory — same Boolean verdicts, same
/// certain-answer rows in the same order, same pagination, same
/// post-delta state — across the whole named-query corpus. Pushdown is
/// an execution strategy, never a semantics change.

namespace cqa {
namespace {

Service::Options MemOptions() {
  Service::Options options;
  options.num_threads = 2;
  return options;
}

Service::Options SqliteOptions() {
  Service::Options options;
  options.num_threads = 2;
  options.backend.kind = BackendOptions::Kind::kSqlite;
  return options;
}

/// Streams every page and reassembles the full row set, checking the
/// per-page invariants (stable total, stable epoch) along the way.
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
    EXPECT_EQ(page->total_rows, total);
    EXPECT_EQ(page->epoch, epoch);
    rows.insert(rows.end(), page->rows.begin(), page->rows.end());
  }
  EXPECT_EQ(rows.size(), total);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  return rows;
}

/// A delta that inserts one fresh block into the first atom's relation
/// — always valid against any generated database.
Delta FreshBlockDelta(const Query& q, uint64_t tag) {
  const Atom& atom = q.atoms().front();
  std::vector<std::string> values;
  for (int i = 0; i < atom.arity(); ++i) {
    values.push_back("zz" + std::to_string(tag) + "_" + std::to_string(i));
  }
  std::vector<SymbolId> ids;
  for (const std::string& v : values) ids.push_back(InternSymbol(v));
  Delta d;
  d.Insert(Fact(atom.relation(), ids, atom.key_arity()));
  return d;
}

/// Serves (Boolean solve, Boolean page, fully-paginated certain answers)
/// the query against BOTH services and asserts byte-identical results.
void ExpectBackendsAgree(Service& mem, Service& sq,
                         const std::string& db_name, const Query& q,
                         const std::string& context) {
  // Boolean: identical status AND identical verdict.
  Service::SolveRequest solve;
  solve.database = db_name;
  solve.query = q;
  Result<Service::SolveResponse> via_mem = mem.Solve(solve);
  Result<Service::SolveResponse> via_sq = sq.Solve(solve);
  ASSERT_EQ(via_mem.status().code(), via_sq.status().code())
      << context << "\n" << via_mem.status() << "\n" << via_sq.status();
  if (via_mem.ok()) {
    EXPECT_EQ(via_mem->outcome.certain, via_sq->outcome.certain)
        << context << "\nquery: " << q.ToString();
    EXPECT_EQ(via_mem->epoch, via_sq->epoch) << context;
  }

  // Boolean page: the one empty row iff q is certain, on both sides.
  Service::CertainAnswersRequest boolean;
  boolean.database = db_name;
  boolean.query = q;
  Result<Session::RowSet> page_mem = Reassemble(mem, boolean);
  Result<Session::RowSet> page_sq = Reassemble(sq, boolean);
  ASSERT_EQ(page_mem.status().code(), page_sq.status().code())
      << context << "\n" << page_mem.status() << "\n" << page_sq.status();
  if (page_mem.ok()) {
    EXPECT_EQ(*page_mem, *page_sq) << context << "\nquery: " << q.ToString();
    if (via_mem.ok()) {
      EXPECT_EQ(page_mem->size(), via_mem->outcome.certain ? 1u : 0u)
          << context << "\nquery: " << q.ToString();
    }
  }

  // Parameterized: all variables free, tiny pages (forces the cursor
  // machinery on both sides), identical rows in identical order.
  VarSet vars = q.Vars();
  std::vector<SymbolId> free_vars(vars.begin(), vars.end());
  std::sort(free_vars.begin(), free_vars.end());
  if (free_vars.empty()) return;
  Service::CertainAnswersRequest req;
  req.database = db_name;
  req.query = q;
  req.free_vars = free_vars;
  req.page_size = 2;
  Result<Session::RowSet> rows_mem = Reassemble(mem, req);
  Result<Session::RowSet> rows_sq = Reassemble(sq, req);
  ASSERT_EQ(rows_mem.status().code(), rows_sq.status().code())
      << context << "\n" << rows_mem.status() << "\n" << rows_sq.status();
  if (rows_mem.ok()) {
    ASSERT_EQ(*rows_mem, *rows_sq)
        << context << "\nquery: " << q.ToString();
  }
}

/// The core differential: every named corpus query over random block
/// databases, served by both backends, before AND after a delta.
class BackendDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendDifferential, CorpusQueriesMatchInMemoryServing) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  uint64_t seed = GetParam();
  Service mem(MemOptions());
  Service sq(SqliteOptions());
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions bopts;
    bopts.seed = seed * 7 + 5;
    bopts.blocks_per_relation = 3 + static_cast<int>(seed % 2);
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    Database db = RandomBlockDatabase(q, bopts);
    const std::string db_name = name + "@" + std::to_string(seed);
    ASSERT_TRUE(mem.CreateDatabase(db_name, db).ok());
    ASSERT_TRUE(sq.CreateDatabase(db_name, db).ok());

    ExpectBackendsAgree(mem, sq, db_name, q, name + " (initial)");

    // Delta, then re-serve: the SQLite mirror must track the commit.
    Service::DeltaRequest delta;
    delta.database = db_name;
    delta.delta = FreshBlockDelta(q, seed);
    Result<Service::DeltaResponse> mem_applied = mem.ApplyDelta(delta);
    Result<Service::DeltaResponse> sq_applied = sq.ApplyDelta(delta);
    ASSERT_TRUE(mem_applied.ok()) << name << ": " << mem_applied.status();
    ASSERT_TRUE(sq_applied.ok()) << name << ": " << sq_applied.status();
    ASSERT_EQ(mem_applied->epoch, sq_applied->epoch) << name;

    ExpectBackendsAgree(mem, sq, db_name, q, name + " (post-delta)");

    ASSERT_TRUE(mem.DropDatabase(db_name).ok());
    ASSERT_TRUE(sq.DropDatabase(db_name).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// ------------------------------------------ file-backed cursor pushdown

TEST(BackendDiffTest, FileBackedCursorsServeAPinnedSnapshot) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Service::Options options = SqliteOptions();
  options.backend.sqlite_dir =
      ::testing::TempDir() + "/cqa_backend_cursor_test";
  Service sq(options);
  Service mem(MemOptions());

  Query q = MustParseQuery("R(x | y), S(y | z)");
  Database db;
  for (int i = 0; i < 40; ++i) {
    std::string a = "a" + std::to_string(100 + i);  // zero-padded order
    std::string b = "b" + std::to_string(100 + i);
    ASSERT_TRUE(db.AddFact(Fact::Make("R", {a, b}, 1)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(db.AddFact(Fact::Make("R", {a, "dead"}, 1)).ok());
    }
    ASSERT_TRUE(db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok());
  }
  ASSERT_TRUE(sq.CreateDatabase("t", db).ok());
  ASSERT_TRUE(mem.CreateDatabase("t", db).ok());

  Service::CertainAnswersRequest req;
  req.database = "t";
  req.query = q;
  req.free_vars = {InternSymbol("x")};
  req.page_size = 4;
  Result<Service::CertainAnswersResponse> first = sq.CertainAnswers(req);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->next_page_token.empty());

  // The backend actually took the cursor path (not the materialized
  // fallback): its counter is the proof.
  Service::StatsResponse stats = sq.Stats({}).value();
  EXPECT_EQ(stats.sqlite_databases, 1u);
  EXPECT_EQ(stats.backend.cursors_opened, 1u);
  EXPECT_EQ(stats.degraded_backends, 0u);

  // A delta lands mid-stream...
  Service::DeltaRequest delta;
  delta.database = "t";
  delta.delta = FreshBlockDelta(q, 7);
  ASSERT_TRUE(sq.ApplyDelta(delta).ok());
  ASSERT_TRUE(mem.ApplyDelta(delta).ok());

  // ...and the open stream keeps serving its pinned pre-delta snapshot.
  Session::RowSet rows = first->rows;
  size_t total = first->total_rows;
  std::string token = first->next_page_token;
  while (!token.empty()) {
    Service::CertainAnswersRequest next;
    next.database = "t";
    next.page_token = token;
    Result<Service::CertainAnswersResponse> page = sq.CertainAnswers(next);
    ASSERT_TRUE(page.ok()) << page.status();
    EXPECT_EQ(page->total_rows, total);
    rows.insert(rows.end(), page->rows.begin(), page->rows.end());
    token = page->next_page_token;
  }
  EXPECT_EQ(rows.size(), total);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));

  // The reassembled pre-delta stream equals the in-memory engine's
  // answer over the PRE-delta database...
  Database pre = db;
  Service mem_pre(MemOptions());
  ASSERT_TRUE(mem_pre.CreateDatabase("pre", pre).ok());
  Service::CertainAnswersRequest pre_req = req;
  pre_req.database = "pre";
  Result<Session::RowSet> expected = Reassemble(mem_pre, pre_req);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(rows, *expected);

  // ...and a FRESH stream sees the post-delta state, identical to the
  // in-memory service's.
  Result<Session::RowSet> fresh_sq = Reassemble(sq, req);
  Result<Session::RowSet> fresh_mem = Reassemble(mem, req);
  ASSERT_TRUE(fresh_sq.ok());
  ASSERT_TRUE(fresh_mem.ok());
  EXPECT_EQ(*fresh_sq, *fresh_mem);

  // DropDatabase tears the mirror file down with the tenant.
  ASSERT_TRUE(sq.DropDatabase("t").ok());
}

// -------------------------------------------------- larger-than-budget

TEST(BackendDiffTest, ResidentBudgetRefusesNonPushableFallback) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Service::Options options = SqliteOptions();
  options.backend.resident_budget_facts = 4;
  Service sq(options);

  // Q0 is coNP-complete: no FO rewriting, so the SQLite backend cannot
  // push it down and the fallback policy decides.
  Query q0 = corpus::Q0();
  BlockDbGenOptions bopts;
  bopts.seed = 11;
  bopts.blocks_per_relation = 4;
  bopts.max_block_size = 2;
  bopts.domain_size = 4;
  Database big = RandomBlockDatabase(q0, bopts);
  ASSERT_GT(static_cast<size_t>(big.size()), 4u);
  ASSERT_TRUE(sq.CreateDatabase("big", big).ok());

  // Over budget + not pushable = explicit refusal, not a silent
  // full-memory evaluation.
  Service::SolveRequest solve;
  solve.database = "big";
  solve.query = q0;
  EXPECT_EQ(sq.Solve(solve).status().code(),
            StatusCode::kFailedPrecondition);
  Service::StatsResponse stats = sq.Stats({}).value();
  EXPECT_GE(stats.backend.fallback_refused, 1u);

  // An FO-rewritable query on the same over-budget tenant still serves:
  // it pushes down, no fallback needed.
  Query conf = corpus::ConferenceQuery();
  Database small = corpus::ConferenceDatabase();
  ASSERT_TRUE(sq.CreateDatabase("fo", small).ok());
  Service::SolveRequest fo_solve;
  fo_solve.database = "fo";
  fo_solve.query = conf;
  EXPECT_TRUE(sq.Solve(fo_solve).ok());

  // Under budget, non-pushable plans fall back and serve normally.
  Service::Options lenient = SqliteOptions();
  Service lenient_sq(lenient);
  ASSERT_TRUE(lenient_sq.CreateDatabase("big", big).ok());
  Service mem(MemOptions());
  ASSERT_TRUE(mem.CreateDatabase("big", big).ok());
  Result<Service::SolveResponse> via_sq = lenient_sq.Solve(solve);
  Result<Service::SolveResponse> via_mem = mem.Solve(solve);
  ASSERT_TRUE(via_sq.ok()) << via_sq.status();
  ASSERT_TRUE(via_mem.ok()) << via_mem.status();
  EXPECT_EQ(via_sq->outcome.certain, via_mem->outcome.certain);
}

// ------------------------------------------------------- availability

TEST(BackendDiffTest, SqliteRequestWithoutBuildSupportIsUnsupported) {
  if (SqliteBackendAvailable()) {
    GTEST_SKIP() << "built WITH CQA_WITH_SQLITE";
  }
  // The OFF build refuses loudly instead of silently serving in memory.
  Service sq(SqliteOptions());
  EXPECT_EQ(sq.CreateDatabase("t", Database()).code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(MakeSqliteBackend("", 0).status().code(),
            StatusCode::kUnsupported);
}

/// `n` R-blocks R(a_i | b_i) joined to S(b_i | c); the answers of
/// R(x | y), S(y | z) with x free are every a_i.
Database JoinDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string b = "b" + std::to_string(i);
    EXPECT_TRUE(
        db.AddFact(Fact::Make("R", {"a" + std::to_string(i), b}, 1)).ok());
    EXPECT_TRUE(db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok());
  }
  return db;
}

Service::CertainAnswersRequest JoinRequest(const std::string& db_name) {
  Service::CertainAnswersRequest req;
  req.database = db_name;
  req.query = MustParseQuery("R(x | y), S(y | z)");
  req.free_vars = {InternSymbol("x")};
  return req;
}

/// Adds to `delta` a ReplaceBlock of R-block a_i with R(a_i | b) for
/// each b of `targets`.
void ReplaceR(Delta* delta, int i, const std::vector<std::string>& targets) {
  std::string a = "a" + std::to_string(i);
  std::vector<Fact> facts;
  for (const std::string& b : targets) {
    facts.push_back(Fact::Make("R", {a, b}, 1));
  }
  delta->ReplaceBlock(InternSymbol("R"), {InternSymbol(a)}, std::move(facts));
}

/// A tenant without a backend mirrors nothing and pushes nothing down:
/// after a solve, a delta and a page, every backend counter reads 0.
TEST(BackendDiffTest, InMemoryTenantHasNoBackend) {
  Service service(MemOptions());
  ASSERT_TRUE(service.CreateDatabase("t", JoinDb(8)).ok());
  Service::SolveRequest solve;
  solve.database = "t";
  solve.query = MustParseQuery("R(x | y), S(y | z)");
  ASSERT_TRUE(service.Solve(solve).ok());
  Service::DeltaRequest delta;
  delta.database = "t";
  ReplaceR(&delta.delta, 3, {"b3", "dead"});
  ASSERT_TRUE(service.ApplyDelta(delta).ok());
  Result<Service::CertainAnswersResponse> page =
      service.CertainAnswers(JoinRequest("t"));
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->total_rows, 7u);

  int backend_counters = 0;
  Service::StatsResponse stats = service.Stats({}).value();
  for (const auto& [name, value] : net::FlattenStats(stats)) {
    if (name.rfind("backend.", 0) != 0) continue;
    ++backend_counters;
    EXPECT_EQ(value, 0u) << name;
  }
  EXPECT_GT(backend_counters, 0);

  if (!SqliteBackendAvailable()) return;
  // One SQLite tenant beside the in-memory one: only it counts.
  BackendOptions sqlite;
  sqlite.kind = BackendOptions::Kind::kSqlite;
  ASSERT_TRUE(service.CreateDatabase("sq", JoinDb(8), sqlite).ok());
  stats = service.Stats({}).value();
  EXPECT_EQ(stats.databases, 2u);
  EXPECT_EQ(stats.sqlite_databases, 1u);
  EXPECT_EQ(stats.backend.loads, 1u);
}

/// A `:memory:` SQLite tenant's stats before and after the page that
/// followed a delta, and the rows that page served.
struct SqliteRefresh {
  Service::StatsResponse before;
  Service::StatsResponse after;
  size_t rows = 0;
};

/// A `:memory:` SQLite tenant has no snapshot cursors, so its pages come
/// from the session's answer cache. Serves a first page, applies `delta`
/// to the tenant and to an in-memory one, and serves both again; the two
/// must serve the same rows.
SqliteRefresh RefreshAfter(const Delta& delta) {
  SqliteRefresh out;
  Service sq(SqliteOptions());
  Service mem(MemOptions());
  EXPECT_TRUE(sq.CreateDatabase("t", JoinDb(8)).ok());
  EXPECT_TRUE(mem.CreateDatabase("t", JoinDb(8)).ok());
  EXPECT_TRUE(sq.CertainAnswers(JoinRequest("t")).ok());
  Service::DeltaRequest request;
  request.database = "t";
  request.delta = delta;
  EXPECT_TRUE(sq.ApplyDelta(request).ok());
  EXPECT_TRUE(mem.ApplyDelta(request).ok());

  out.before = sq.Stats({}).value();
  Result<Session::RowSet> rows_sq = Reassemble(sq, JoinRequest("t"));
  out.after = sq.Stats({}).value();
  Result<Session::RowSet> rows_mem = Reassemble(mem, JoinRequest("t"));
  EXPECT_TRUE(rows_sq.ok()) << rows_sq.status();
  EXPECT_TRUE(rows_mem.ok()) << rows_mem.status();
  if (rows_sq.ok() && rows_mem.ok()) {
    EXPECT_EQ(*rows_sq, *rows_mem);
    out.rows = rows_sq->size();
  }
  return out;
}

/// A refresh hands every dirty row of a plan the backend runs natively
/// to ONE backend call.
TEST(BackendDiffTest, SqliteRefreshDecidesDirtyRowsInOneBackendCall) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  // Three R-blocks turn uncertain: three dirty rows, each still possible.
  Delta delta;
  for (int i : {2, 3, 4}) {
    ReplaceR(&delta, i, {"b" + std::to_string(i), "dead"});
  }
  SqliteRefresh r = RefreshAfter(delta);
  EXPECT_EQ(r.rows, 5u);
  EXPECT_EQ(r.after.session.answers_incremental,
            r.before.session.answers_incremental + 1);
  EXPECT_EQ(r.after.session.rows_decided, r.before.session.rows_decided + 3);
  EXPECT_EQ(r.after.backend.pushed_row_spans,
            r.before.backend.pushed_row_spans + 1);
  EXPECT_EQ(r.after.backend.pushed_rows - r.before.backend.pushed_rows,
            r.after.session.rows_decided - r.before.session.rows_decided);
  // The one row statement ran from the statement cache.
  EXPECT_EQ(r.after.backend.statement_cache_hits,
            r.before.backend.statement_cache_hits + 1);
  EXPECT_EQ(r.after.degraded_backends, 0u);
}

/// A statement-cache hit counts a call that runs a cached statement: a
/// page the session's answer cache serves runs no SQL and counts none,
/// however often serving asks the backend whether it runs the plan.
TEST(BackendDiffTest, CachedPageCountsNoStatementCacheHit) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Service sq(SqliteOptions());
  ASSERT_TRUE(sq.CreateDatabase("t", JoinDb(8)).ok());
  ASSERT_TRUE(sq.CertainAnswers(JoinRequest("t")).ok());
  Service::StatsResponse before = sq.Stats({}).value();
  Result<Service::CertainAnswersResponse> page =
      sq.CertainAnswers(JoinRequest("t"));
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->total_rows, 8u);
  Service::StatsResponse after = sq.Stats({}).value();
  EXPECT_EQ(after.session.answers_cached, before.session.answers_cached + 1);
  EXPECT_EQ(after.backend.statement_cache_hits,
            before.backend.statement_cache_hits);
  EXPECT_EQ(after.backend.statements_prepared,
            before.backend.statements_prepared);
}

/// A refresh whose dirty row is no longer possible decides no row, and
/// an empty decision batch calls no backend.
TEST(BackendDiffTest, EmptyRefreshCallsNoBackend) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Delta delta;  // R-block a3 now joins no S-block.
  ReplaceR(&delta, 3, {"nowhere"});
  SqliteRefresh r = RefreshAfter(delta);
  EXPECT_EQ(r.rows, 7u);
  EXPECT_EQ(r.after.session.answers_incremental,
            r.before.session.answers_incremental + 1);
  EXPECT_EQ(r.after.session.rows_decided, r.before.session.rows_decided);
  EXPECT_EQ(r.after.backend.pushed_row_spans,
            r.before.backend.pushed_row_spans);
  EXPECT_EQ(r.after.backend.pushed_rows, r.before.backend.pushed_rows);
}

// ------------------------------------------------------------ deadlines

/// A pushed solve under a deadline that has passed runs no SQL and
/// answers kDeadlineExceeded; the backend stays healthy and the next
/// solve pushes down.
TEST(BackendDiffTest, SolveCertainStopsAtTheDeadline) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Result<std::unique_ptr<Backend>> backend = MakeSqliteBackend("", 0);
  ASSERT_TRUE(backend.ok()) << backend.status();
  ASSERT_TRUE((*backend)->Load(JoinDb(8)).ok());
  Result<std::shared_ptr<const QueryPlan>> plan =
      QueryPlan::Compile(MustParseQuery("R(x | y), S(y | z)"));
  ASSERT_TRUE(plan.ok()) << plan.status();

  Result<std::optional<bool>> late =
      (*backend)->SolveCertain(**plan, Deadline::AfterMillis(0));
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*backend)->stats().pushed_solves, 0u);

  Result<std::optional<bool>> solved =
      (*backend)->SolveCertain(**plan, Deadline());
  ASSERT_TRUE(solved.ok()) << solved.status();
  ASSERT_TRUE(solved->has_value());
  EXPECT_TRUE(**solved);
  Backend::Stats stats = (*backend)->stats();
  EXPECT_EQ(stats.pushed_solves, 1u);
  EXPECT_FALSE(stats.degraded);
}

/// A file-backed cursor counts its pinned set and fetches its pages
/// under the deadline it is given.
TEST(BackendDiffTest, CursorOpenAndFetchStopAtTheDeadline) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Result<std::unique_ptr<Backend>> backend = MakeSqliteBackend(
      ::testing::TempDir() + "/cqa_backend_deadline.sqlite3", 0);
  ASSERT_TRUE(backend.ok()) << backend.status();
  ASSERT_TRUE((*backend)->Load(JoinDb(8)).ok());
  Result<std::shared_ptr<const QueryPlan>> plan = QueryPlan::Compile(
      MustParseQuery("R(x | y), S(y | z)"), {InternSymbol("x")});
  ASSERT_TRUE(plan.ok()) << plan.status();

  EXPECT_EQ((*backend)
                ->OpenAnswerCursor(**plan, Deadline::AfterMillis(0))
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  Result<std::shared_ptr<Backend::AnswerCursor>> cursor =
      (*backend)->OpenAnswerCursor(**plan, Deadline());
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  ASSERT_NE(*cursor, nullptr);
  EXPECT_EQ((*cursor)->total_rows(), 8u);
  EXPECT_EQ((*cursor)->Fetch(0, 4, Deadline::AfterMillis(0)).status().code(),
            StatusCode::kDeadlineExceeded);
  Result<Backend::RowSet> page = (*cursor)->Fetch(0, 4, Deadline());
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(page->size(), 4u);
  EXPECT_FALSE((*backend)->stats().degraded);
  cursor->reset();
  (*backend)->TearDown();
}

/// One R-block of `n` facts R(a | b_i), every b_i but the last joined to
/// an S-block: R(x | y), S(y | z) is not certain, and its solve
/// statement scans the block once per fact of it before it says so.
Database OneLongBlockDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string b = "b" + std::to_string(i);
    EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", b}, 1)).ok());
    if (i + 1 < n) {
      EXPECT_TRUE(db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok());
    }
  }
  return db;
}

/// A Boolean page on a SQLite tenant is the pushed-down solve, and it
/// stops once the request deadline passes inside the statement; the
/// backend stays healthy, and without a deadline the same page serves.
TEST(BackendDiffTest, BooleanPageStopsAtTheDeadline) {
  if (!SqliteBackendAvailable()) {
    GTEST_SKIP() << "built without CQA_WITH_SQLITE";
  }
  Service sq(SqliteOptions());
  ASSERT_TRUE(sq.CreateDatabase("t", OneLongBlockDb(2000)).ok());
  Service::CertainAnswersRequest req;
  req.database = "t";
  req.query = MustParseQuery("R(x | y), S(y | z)");
  req.deadline = Deadline::AfterMillis(20);
  EXPECT_EQ(sq.CertainAnswers(req).status().code(),
            StatusCode::kDeadlineExceeded);
  Service::StatsResponse stats = sq.Stats({}).value();
  EXPECT_EQ(stats.degraded_backends, 0u);
  EXPECT_EQ(stats.backend.pushed_solves, 0u);

  Service sq_small(SqliteOptions());
  Service mem(MemOptions());
  ASSERT_TRUE(sq_small.CreateDatabase("t", OneLongBlockDb(16)).ok());
  ASSERT_TRUE(mem.CreateDatabase("t", OneLongBlockDb(16)).ok());
  req.deadline = Deadline();
  Result<Service::CertainAnswersResponse> page = sq_small.CertainAnswers(req);
  Result<Service::CertainAnswersResponse> page_mem = mem.CertainAnswers(req);
  ASSERT_TRUE(page.ok()) << page.status();
  ASSERT_TRUE(page_mem.ok()) << page_mem.status();
  EXPECT_EQ(page->total_rows, 0u);
  EXPECT_EQ(page->rows, page_mem->rows);
  stats = sq_small.Stats({}).value();
  EXPECT_EQ(stats.backend.pushed_solves, 1u);
  EXPECT_EQ(stats.backend.pushed_answer_sets, 0u);
  EXPECT_EQ(stats.degraded_backends, 0u);
}

}  // namespace
}  // namespace cqa
