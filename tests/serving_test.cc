#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "serve/session.h"
#include "solve_helpers.h"

namespace cqa {
namespace {

/// A serving workload: corpus queries plus α-variants (renamed copies),
/// repeated — the shape the plan cache is built for.
std::vector<Query> ServingWorkload(int repetitions) {
  // Note: Fig4Query's R1..R6 clash with Ack's R1 signatures, so the
  // weak-terminal-cycles representative uses fresh relation names.
  std::vector<Query> base = {
      corpus::ConferenceQuery(),
      MustParseQuery("C(xx, yy | 'Rome'), R(xx | 'A')"),  // α-variant
      corpus::PathQuery2(),
      MustParseQuery("T1(x, u1 | u2, z), T2(x, u2 | u1, z), "
                     "T3(x, y, u3 | u4), T4(x, y, u4 | u3), "
                     "T5(y, u5 | u6), T6(y, u6 | u5)"),
      corpus::Ack(3),
      corpus::Ck(3),
      corpus::Q0(),
  };
  std::vector<Query> out;
  out.reserve(base.size() * repetitions);
  for (int r = 0; r < repetitions; ++r) {
    for (const Query& q : base) out.push_back(q);
  }
  return out;
}

Database ServingDatabase(uint64_t seed) {
  // One database covering every relation of the workload.
  Database db = corpus::ConferenceDatabase();
  for (const Query& q : ServingWorkload(1)) {
    BlockDbGenOptions options;
    options.seed = seed;
    options.blocks_per_relation = 2;
    options.max_block_size = 2;
    options.domain_size = 3;
    Database extra = RandomBlockDatabase(q, options);
    for (const Fact& f : extra.facts()) {
      EXPECT_TRUE(db.AddFact(f).ok());
    }
  }
  return db;
}

/// The front door resolves a batch of ad-hoc queries through its plan
/// cache and decides them on one database's pool.
TEST(ServingTest, SolveBatchMatchesSequentialSolve) {
  Database db = ServingDatabase(7);
  std::vector<Query> queries = ServingWorkload(12);

  Service::Options options;
  options.num_threads = 8;
  Service service(options);
  ASSERT_TRUE(service.CreateDatabase("db", db).ok());
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "db";
    requests[i].query = queries[i];
  }
  std::vector<Result<Service::SolveResponse>> batch =
      service.SolveBatch(requests);
  ASSERT_EQ(batch.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status();
    Result<SolveOutcome> sequential = testutil::Solve(db, queries[i]);
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(batch[i]->outcome.certain, sequential->certain) << i;
    EXPECT_EQ(batch[i]->outcome.solver, sequential->solver) << i;
    EXPECT_EQ(batch[i]->outcome.complexity, sequential->complexity) << i;
  }

  // 6 α-classes (two workload entries share one plan). The service
  // resolves every item on the calling thread before it fans the batch
  // out, so each class misses once and every other lookup hits.
  PlanCache::Stats stats = service.Stats({}).value().plan_cache;
  EXPECT_EQ(stats.entries, 6u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.hits + stats.misses, queries.size());
}

TEST(ServingTest, EmptyBatchAndSingleThread) {
  Database db = ServingDatabase(9);
  Session::Options options;
  options.num_threads = 1;
  Session session(db, options);
  EXPECT_TRUE(session.SolveBatch({}).empty());
  std::vector<Query> queries = ServingWorkload(2);
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const Query& q : queries) {
    plans.push_back(testutil::GlobalPlan(q).value());
  }
  std::vector<Result<SolveOutcome>> batch = session.SolveBatch(plans);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    EXPECT_EQ(batch[i]->certain, testutil::Solve(db, queries[i])->certain);
  }
}

/// One compiled plan shared by >= 8 threads, each with its own
/// EvalContext: results must be identical and stats must add up. Run
/// under TSan/ASan in CI.
TEST(ServingTest, OnePlanManyThreads) {
  Database db = ServingDatabase(11);
  Result<std::shared_ptr<const QueryPlan>> compiled =
      QueryPlan::Compile(corpus::ConferenceQuery());
  ASSERT_TRUE(compiled.ok());
  std::shared_ptr<const QueryPlan> plan = *compiled;

  Result<SolveOutcome> expected = plan->Solve(db);
  ASSERT_TRUE(expected.ok());

  constexpr int kThreads = 8;
  constexpr int kIterations = 50;
  std::atomic<int> disagreements{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      EvalContext ctx(db);
      for (int i = 0; i < kIterations; ++i) {
        Result<SolveOutcome> out = plan->Solve(ctx);
        if (!out.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (out->certain != expected->certain) disagreements.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(disagreements.load(), 0);
  EXPECT_EQ(plan->solver()->stats().calls, 1 + kThreads * kIterations);
}

/// One PlanCache hammered by >= 8 threads compiling α-variants of the
/// same queries: exactly one plan per equivalence class must survive,
/// and every answer must match the sequential reference.
TEST(ServingTest, OneCacheManyThreads) {
  Database db = ServingDatabase(13);
  std::vector<Query> queries = ServingWorkload(1);
  std::vector<bool> expected;
  expected.reserve(queries.size());
  for (const Query& q : queries) {
    Result<SolveOutcome> out = testutil::Solve(db, q);
    ASSERT_TRUE(out.ok());
    expected.push_back(out->certain);
  }

  PlanCache cache;
  constexpr int kThreads = 10;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      EvalContext ctx(db);
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto plan = cache.GetOrCompile(queries[i]);
          if (!plan.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          Result<SolveOutcome> out = (*plan)->Solve(ctx);
          if (!out.ok() || out->certain != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  PlanCache::Stats stats = cache.Snapshot();
  // 6 α-classes in the workload; racing compiles may each count a miss,
  // but the cache must deduplicate the surviving entries.
  EXPECT_EQ(stats.entries, 6u);
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kThreads) * kRounds *
                                queries.size() -
                            kThreads * 6);
}

/// Certain answers served by a session equal the one-shot helper's;
/// the repeated requests are served from the session's answer cache.
TEST(ServingTest, CertainAnswersMatchOneShot) {
  Database db = corpus::ConferenceDatabase();
  ASSERT_TRUE(db.AddFact(Fact::Make("C", {"ICDT", "2018", "Lyon"}, 2)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"ICDT", "A"}, 1)).ok());
  struct Request {
    Query query;
    std::vector<SymbolId> free_vars;
  };
  std::vector<Request> requests;
  requests.push_back({MustParseQuery("C(x, y | c), R(x | 'A')"),
                      {InternSymbol("c")}});
  requests.push_back({MustParseQuery("C(x, y | c)"),
                      {InternSymbol("x"), InternSymbol("c")}});
  requests.push_back({MustParseQuery("C(x, y | c), R(x | r)"),
                      {InternSymbol("c"), InternSymbol("r")}});
  // Repeat to exercise plan sharing.
  requests.push_back(requests[0]);
  requests.push_back(requests[1]);

  Session::Options options;
  options.num_threads = 4;
  Session session(db, options);
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<std::shared_ptr<const RowBlock>> served =
        testutil::SessionCertainAnswers(session, requests[i].query,
                                        requests[i].free_vars);
    ASSERT_TRUE(served.ok()) << i << ": " << served.status();
    auto one_shot =
        testutil::CertainAnswers(db, requests[i].query, requests[i].free_vars);
    ASSERT_TRUE(one_shot.ok());
    EXPECT_EQ((*served)->Rows(0, (*served)->size()), *one_shot) << i;
  }
  EXPECT_EQ(session.stats().answers_cached, 2u);
}

}  // namespace
}  // namespace cqa
