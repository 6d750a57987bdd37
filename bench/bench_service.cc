// The payoff of prepared-query handles: a handle pins its compiled
// plan, so re-serving it through Service::SolveBatch touches neither
// the canonicalizer nor the plan cache — versus the cold path, where
// every request arrives as an ad-hoc query and the plan cache is too
// small to hold any class, so each request pays classification +
// attack-graph analysis + (on the FO path) the rewriter.
//
// Acceptance tracking: BM_Service_PreparedReServe vs
// BM_Service_ColdCompilePerRequest qps in BENCH_results.json — the
// prepared path must win by >= 3x. BM_Service_AdHocWarmCache sits in
// between (cache lookup, no compile) and shows what the handle saves
// over a warm cache: the canonicalization + lookup per call.
//
// The workload spans the solver frontier (FO, terminal-cycles, AC(k),
// C(k), SAT) against one registered database, plus a forced-oracle
// handle cross-checking the FO answer on the small conference database
// — all six solver kinds flow through the same SolveRequest struct.
//
// Two series cover the plans that are not FO: certain answers of a
// parameterized terminal-cycle query (every row decided by the solver
// on the blocks its embeddings touch), and a Boolean SAT solve on a
// tenant that also holds an unrelated relation of the same size (the
// solve reads only the query's relations).

#include "bench_main.h"

#include "cqa.h"

#include <algorithm>
#include <string>
#include <vector>

namespace {

using namespace cqa;

/// One query per natural complexity class (same shapes as
/// bench_serving's workload), repeated `reps` times.
std::vector<Query> Workload(int reps) {
  std::vector<Query> base = {
      corpus::ConferenceQuery(),
      MustParseQuery("Rp(u | v), Sp(v | w)"),  // FO path join
      MustParseQuery("T1(x, u1 | u2, z), T2(x, u2 | u1, z), "
                     "T3(x, y, u3 | u4), T4(x, y, u4 | u3), "
                     "T5(y, u5 | u6), T6(y, u6 | u5)"),  // Theorem 3
      corpus::Ack(3),
      corpus::Ck(3),
      corpus::Q0(),  // SAT
  };
  std::vector<Query> out;
  out.reserve(base.size() * reps);
  for (int r = 0; r < reps; ++r) {
    for (const Query& q : base) out.push_back(q);
  }
  return out;
}

Database ServingDb(int blocks) {
  Database db = corpus::ConferenceDatabase();
  for (const Query& q : Workload(1)) {
    BlockDbGenOptions options;
    options.seed = 42;
    options.blocks_per_relation = blocks;
    options.max_block_size = 2;
    options.domain_size = blocks;
    Database extra = RandomBlockDatabase(q, options);
    for (const Fact& f : extra.facts()) db.AddFact(f).ok();
  }
  return db;
}

/// Hot path: handles prepared once, requests re-served from the pinned
/// plans. This is the number a long-lived caller sees.
void BM_Service_PreparedReServe(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  service.CreateDatabase("bench", ServingDb(2)).ok();
  std::vector<Query> queries = Workload(static_cast<int>(state.range(0)));
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "bench";
    requests[i].prepared = service.Prepare(queries[i]).value();
  }
  size_t served = 0;
  for (auto _ : state) {
    auto results = service.SolveBatch(requests);
    benchmark::DoNotOptimize(results);
    served += results.size();
  }
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["queries"] = static_cast<double>(requests.size());
  state.counters["prepared"] = static_cast<double>(stats.prepared_queries);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_PreparedReServe)
    ->RangeMultiplier(2)
    ->Range(4, cqa_bench::RangeLimit(64, 8))
    ->UseRealTime();

/// Cold path: ad-hoc queries against a capacity-1 plan cache. The six
/// α-classes rotate through the single slot, so every request misses
/// and recompiles — per-request cold compile through the same front
/// door.
void BM_Service_ColdCompilePerRequest(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  options.plan_cache.capacity = 1;
  options.plan_cache.num_shards = 1;
  Service service(options);
  service.CreateDatabase("bench", ServingDb(2)).ok();
  std::vector<Query> queries = Workload(static_cast<int>(state.range(0)));
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "bench";
    requests[i].query = queries[i];
  }
  size_t served = 0;
  for (auto _ : state) {
    auto results = service.SolveBatch(requests);
    benchmark::DoNotOptimize(results);
    served += results.size();
  }
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["queries"] = static_cast<double>(requests.size());
  state.counters["plan_misses"] =
      static_cast<double>(stats.plan_cache.misses);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_ColdCompilePerRequest)
    ->RangeMultiplier(2)
    ->Range(4, cqa_bench::RangeLimit(64, 8))
    ->UseRealTime();

/// Between the two: ad-hoc queries against a warm, big-enough cache —
/// per-request canonicalization + sharded lookup, no compile.
void BM_Service_AdHocWarmCache(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  service.CreateDatabase("bench", ServingDb(2)).ok();
  std::vector<Query> queries = Workload(static_cast<int>(state.range(0)));
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "bench";
    requests[i].query = queries[i];
  }
  service.SolveBatch(requests);  // warm every class
  size_t served = 0;
  for (auto _ : state) {
    auto results = service.SolveBatch(requests);
    benchmark::DoNotOptimize(results);
    served += results.size();
  }
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["queries"] = static_cast<double>(requests.size());
  state.counters["plan_hits"] = static_cast<double>(stats.plan_cache.hits);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_AdHocWarmCache)
    ->RangeMultiplier(2)
    ->Range(4, cqa_bench::RangeLimit(64, 8))
    ->UseRealTime();

/// The sixth solver kind through the same request struct: a
/// forced-oracle handle (repair enumeration) cross-checking the FO
/// answer on the 4-repair conference database.
void BM_Service_OracleCrossCheck(benchmark::State& state) {
  Service service;
  service.CreateDatabase("conference", corpus::ConferenceDatabase()).ok();
  Service::PrepareOptions force;
  force.force_solver = SolverKind::kOracle;
  Service::SolveRequest fo;
  fo.database = "conference";
  fo.prepared = service.Prepare(corpus::ConferenceQuery()).value();
  Service::SolveRequest oracle;
  oracle.database = "conference";
  oracle.prepared =
      service.Prepare(corpus::ConferenceQuery(), {}, force).value();
  for (auto _ : state) {
    auto a = service.Solve(fo);
    auto b = service.Solve(oracle);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    if (a->outcome.certain != b->outcome.certain) {
      state.SkipWithError("oracle disagrees with the FO plan");
    }
  }
}
BENCHMARK(BM_Service_OracleCrossCheck);

/// Answer pagination end to end: stream the certain answers of the
/// path join in pages off one pinned snapshot.
void BM_Service_PaginatedAnswers(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, b}, 1)).ok();
    db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok();
  }
  Service service;
  service.CreateDatabase("pages", std::move(db)).ok();
  PreparedQueryHandle handle =
      service
          .Prepare(MustParseQuery("R(x | y), S(y | z)"),
                   {InternSymbol("x")})
          .value();
  size_t rows = 0;
  for (auto _ : state) {
    Service::CertainAnswersRequest request;
    request.database = "pages";
    request.prepared = handle;
    request.page_size = 256;
    Result<Service::CertainAnswersResponse> page =
        service.CertainAnswers(request);
    rows += page->rows.size();
    while (!page->next_page_token.empty()) {
      Service::CertainAnswersRequest next;
      next.database = "pages";
      next.page_token = page->next_page_token;
      page = service.CertainAnswers(next);
      rows += page->rows.size();
    }
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_PaginatedAnswers)
    ->RangeMultiplier(4)
    ->Range(1024, cqa_bench::RangeLimit(4096, 1024));

/// Thread-scaling series through the front door: one uncached
/// CertainAnswers request per iteration over a `blocks`-block path
/// database, its candidate batch partitioned across `threads` workers.
/// The end-to-end façade counterpart of BM_Fo_CertainAnswersParallel;
/// filter on the "threads" field for the curve.
void BM_Service_CertainAnswersThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, b}, 1)).ok();
    if (i % 7 == 0) {
      db.AddFact(Fact::Make("R", {a, "dead" + std::to_string(i)}, 1)).ok();
    }
    db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok();
  }
  Service::Options options;
  options.num_threads = threads;
  options.session.answer_cache_capacity = 0;
  options.default_page_size = 1 << 20;
  options.max_page_size = 1 << 20;
  Service service(options);
  service.CreateDatabase("wide", std::move(db)).ok();
  PreparedQueryHandle handle =
      service
          .Prepare(MustParseQuery("R(x | y), S(y | z)"),
                   {InternSymbol("x")})
          .value();
  size_t rows = 0;
  for (auto _ : state) {
    Service::CertainAnswersRequest request;
    request.database = "wide";
    request.prepared = handle;
    rows = service.CertainAnswers(request)->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["threads"] = threads;
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["parallel_chunks"] =
      static_cast<double>(stats.session.parallel_chunks) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Service_CertainAnswersThreads)
    ->ArgsProduct({{cqa_bench::RangeLimit(4096, 256)},
                   cqa_bench::ThreadCounts()});

/// A Fig. 4 instance (Example 5's terminal weak cycles) of about
/// `blocks` blocks: one group of six blocks per x-value a_i, joined
/// through y = b_i. Every third group's R1 block holds a second fact
/// with another z, so its row is not certain; every third of the others
/// has a second R3 fact whose R4 partner exists too, so its row stays
/// certain through a conflict.
Database Fig4Db(int blocks) {
  Database db;
  auto add = [&](const char* relation, const std::vector<std::string>& values,
                 int key_arity) {
    db.AddFact(Fact::Make(relation, values, key_arity)).ok();
  };
  for (int i = 0; i < blocks / 6; ++i) {
    std::string n = std::to_string(i);
    std::string a = "a" + n;
    std::string b = "b" + n;
    std::string u = "u" + n + "_";
    add("R1", {a, u + "1", u + "2", "z"}, 2);
    add("R2", {a, u + "2", u + "1", "z"}, 2);
    add("R3", {a, b, u + "3", u + "4"}, 3);
    add("R4", {a, b, u + "4", u + "3"}, 3);
    add("R5", {b, u + "5", u + "6"}, 2);
    add("R6", {b, u + "6", u + "5"}, 2);
    if (i % 3 == 0) add("R1", {a, u + "1", u + "2", "z2"}, 2);
    if (i % 3 == 1) {
      add("R3", {a, b, u + "3", u + "7"}, 3);
      add("R4", {a, b, u + "7", u + "3"}, 3);
    }
  }
  return db;
}

/// Non-FO certain answers end to end: one uncached CertainAnswers of
/// Fig. 4's query with x free over Fig4Db(blocks), on one worker. The
/// plan is a terminal-cycle plan, so every candidate row takes the row
/// fallback.
void BM_Service_NonFoCertainAnswers(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  options.session.answer_cache_capacity = 0;
  options.default_page_size = 1 << 20;
  options.max_page_size = 1 << 20;
  Service service(options);
  Database db = Fig4Db(static_cast<int>(state.range(0)));
  state.counters["facts"] = db.size();
  service.CreateDatabase("fig4", std::move(db)).ok();
  PreparedQueryHandle handle =
      service.Prepare(corpus::Fig4Query(), {InternSymbol("x")}).value();
  if (handle->solver_kind() != SolverKind::kTerminalCycles) {
    state.SkipWithError("Fig. 4 with x free is not a terminal-cycle plan");
    return;
  }
  Service::CertainAnswersRequest request;
  request.database = "fig4";
  request.prepared = handle;
  for (auto _ : state) {
    Result<Service::CertainAnswersResponse> page =
        service.CertainAnswers(request);
    if (!page.ok()) {
      state.SkipWithError("CertainAnswers failed");
      break;
    }
    benchmark::DoNotOptimize(page->rows.size());
  }
}
BENCHMARK(BM_Service_NonFoCertainAnswers)
    ->Arg(cqa_bench::RangeLimit(1024, 128))
    ->Arg(cqa_bench::RangeLimit(4096, 256))
    ->Unit(benchmark::kMillisecond);

/// A Boolean non-FO solve beside unrelated data: q0 (coNP-complete,
/// decided by the SAT plan) on a random q0 instance of `pairs` joining
/// pairs, in a tenant that also holds U(k | v), an unrelated relation
/// with as many facts, two to a block. Every R0 block also holds an
/// escape fact that joins nothing, so the instance is not certain and
/// the search builds a whole falsifying repair, one decision per block
/// it encodes.
void BM_Service_NonFoSolveBesideUnrelated(benchmark::State& state) {
  int pairs = static_cast<int>(state.range(0));
  Q0InstanceOptions q0;
  q0.join_pairs = pairs;
  q0.violations = pairs;
  q0.domain_size = std::max(3, pairs / 2);
  q0.seed = 3;
  Database db = RandomQ0Database(q0);
  SymbolId r0 = InternSymbol("R0");
  std::vector<std::vector<SymbolId>> r0_keys;
  for (const Database::Block& block : db.blocks()) {
    if (block.relation == r0) r0_keys.push_back(block.key);
  }
  for (const std::vector<SymbolId>& key : r0_keys) {
    std::string a = SymbolName(key[0]);
    db.AddFact(Fact::Make("R0", {a, "escape_" + a}, 1)).ok();
  }
  for (int i = 0, n = db.size(); i < n; ++i) {
    db.AddFact(Fact::Make("U", {"k" + std::to_string(i / 2),
                                "v" + std::to_string(i)},
                          1))
        .ok();
  }
  state.counters["facts"] = db.size();
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  service.CreateDatabase("mixed", std::move(db)).ok();
  Service::SolveRequest request;
  request.database = "mixed";
  request.prepared = service.Prepare(corpus::Q0()).value();
  if (request.prepared->solver_kind() != SolverKind::kSat) {
    state.SkipWithError("q0 is not a SAT plan");
    return;
  }
  for (auto _ : state) {
    Result<Service::SolveResponse> reply = service.Solve(request);
    if (!reply.ok()) {
      state.SkipWithError("Solve failed");
      break;
    }
    benchmark::DoNotOptimize(reply->outcome.certain);
  }
}
BENCHMARK(BM_Service_NonFoSolveBesideUnrelated)
    ->Arg(cqa_bench::RangeLimit(256, 16))
    ->Arg(cqa_bench::RangeLimit(1024, 64))
    ->Unit(benchmark::kMillisecond);

}  // namespace
