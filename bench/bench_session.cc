// The payoff of the serving tier under deltas, measured through the
// Service front door: after a small DeltaRequest over a large database,
// re-serving certain answers through the session's dirty-row cache
// (patched per-worker indexes + plan key-pattern pruning) versus
// recomputing every row (a service whose sessions keep no answer
// cache). The workload is the incremental-serving shape: one block
// replaced per request on a database of `range` R-blocks.
// BM_Session_DeltaReServe replaces R-blocks, whose key pins the answer
// variable; BM_Session_DeltaReServeUnpinned replaces S-blocks, whose key
// pins none, so only the reach rule keeps its refresh incremental.
//
// Acceptance tracking: BM_Session_DeltaReServe vs
// BM_Session_FullRecompute at equal sizes in BENCH_results.json — the
// delta path must win by >= 3x on the larger sizes.
//
// Every series uses real time: the work runs on a session worker while
// the calling thread waits, so the caller's CPU time would understate
// each iteration and inflate the iteration count.

#include "bench_main.h"

#include "cqa.h"

#include <set>
#include <string>
#include <vector>

namespace {

using namespace cqa;

Query PathQ() { return MustParseQuery("R(x | y), S(y | z)"); }

/// `n` R-blocks R(a_i | b_i) joined to S(b_i | c_i); every seventh
/// block is uncertain (a second fact pointing at a dangling value), so
/// ~1/7 of the candidate rows are possible but not certain and the
/// per-row decision is never trivial.
Database PathDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    std::string c = "c" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, b}, 1)).ok();
    if (i % 7 == 0) {
      db.AddFact(Fact::Make("R", {a, "dead" + std::to_string(i)}, 1)).ok();
    }
    db.AddFact(Fact::Make("S", {b, c}, 1)).ok();
  }
  return db;
}

/// The per-request delta: flip block a_k between its consistent and its
/// uncertain contents — touches exactly one R block, whose key pins the
/// answer parameter x.
Service::DeltaRequest FlipDelta(int k, bool make_uncertain) {
  std::string a = "a" + std::to_string(k);
  std::string b = "b" + std::to_string(k);
  std::vector<Fact> facts = {Fact::Make("R", {a, b}, 1)};
  if (make_uncertain) {
    facts.push_back(Fact::Make("R", {a, "nowhere"}, 1));
  }
  Service::DeltaRequest request;
  request.database = "path";
  request.delta.ReplaceBlock(InternSymbol("R"), {InternSymbol(a)},
                             std::move(facts));
  return request;
}

/// The unpinned delta: delete S-block b_k, or restore it — touches
/// exactly one S block, whose key pins no answer parameter. The one row
/// it reaches is a_k's.
Service::DeltaRequest DropSDelta(int k, bool drop) {
  std::string b = "b" + std::to_string(k);
  std::vector<Fact> facts;
  if (!drop) facts.push_back(Fact::Make("S", {b, "c" + std::to_string(k)}, 1));
  Service::DeltaRequest request;
  request.database = "path";
  request.delta.ReplaceBlock(InternSymbol("S"), {InternSymbol(b)},
                             std::move(facts));
  return request;
}

/// The per-request deltas of a series: each block is changed (`make`
/// true) and then restored before the next block, 13 further on, so
/// every delta changes one block.
class DeltaCycle {
 public:
  using Make = Service::DeltaRequest (*)(int k, bool change);
  DeltaCycle(int n, Make make) : n_(n), make_(make) {}
  Service::DeltaRequest Next() {
    Service::DeltaRequest request = make_(k_, change_);
    if (!change_) k_ = (k_ + 13) % n_;
    change_ = !change_;
    return request;
  }

 private:
  int n_;
  Make make_;
  int k_ = 0;
  bool change_ = true;
};

/// A single-database service sized for these benches: one worker
/// thread, service-local plan cache, pages big enough that every
/// request is a single page (the COW snapshot measured end to end).
Service::Options PathServiceOptions() {
  Service::Options options;
  options.num_threads = 1;
  options.default_page_size = 1 << 20;
  options.max_page_size = 1 << 20;
  return options;
}

Service::CertainAnswersRequest PathRequest(
    const PreparedQueryHandle& handle) {
  Service::CertainAnswersRequest request;
  request.database = "path";
  request.prepared = handle;
  return request;
}

void ReportServiceCounters(benchmark::State& state, const Service& service,
                           size_t rows) {
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["rows_decided"] =
      static_cast<double>(stats.session.rows_decided);
  state.counters["rows_reused"] =
      static_cast<double>(stats.session.rows_reused);
  state.counters["deltas"] =
      static_cast<double>(stats.session.deltas_applied);
}

/// Delta path: ApplyDelta patches the worker indexes in place, the
/// answer cache re-decides only the touched block's row.
void BM_Session_DeltaReServe(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Service service(PathServiceOptions());
  service.CreateDatabase("path", PathDb(n)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  // Warm: one full compute populates the cache and the worker index.
  size_t rows = service.CertainAnswers(request)->rows.size();
  DeltaCycle deltas(n, FlipDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto served = service.CertainAnswers(request);
    benchmark::DoNotOptimize(served);
    rows = served->rows.size();
  }
  ReportServiceCounters(state, service, rows);
}
BENCHMARK(BM_Session_DeltaReServe)
    ->RangeMultiplier(4)
    ->Range(64, cqa_bench::RangeLimit(4096, 64))
    ->UseRealTime();

/// The delta path when the changed block's key pins no free variable:
/// each delta drops or restores one S-block. S is the only relation the
/// deltas touch and R, the untouched atom, binds x, so the session
/// re-decides the rows R joins to that block (a_k's) and copies the rest
/// of the cached snapshot. rows_decided_per_request says how many.
void BM_Session_DeltaReServeUnpinned(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Service service(PathServiceOptions());
  service.CreateDatabase("path", PathDb(n)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  size_t rows = service.CertainAnswers(request)->rows.size();
  uint64_t decided_before = service.Stats({}).value().session.rows_decided;
  DeltaCycle deltas(n, DropSDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto served = service.CertainAnswers(request);
    benchmark::DoNotOptimize(served);
    rows = served->rows.size();
  }
  ReportServiceCounters(state, service, rows);
  state.counters["rows_decided_per_request"] =
      static_cast<double>(service.Stats({}).value().session.rows_decided -
                          decided_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Session_DeltaReServeUnpinned)
    ->RangeMultiplier(4)
    ->Range(64, cqa_bench::RangeLimit(4096, 64))
    ->UseRealTime();

/// Baseline: the same deltas answered by a service whose sessions keep
/// no answer cache — every request re-enumerates the candidates and
/// re-decides every row over the (persistently indexed) database.
void BM_Session_FullRecompute(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Service::Options options = PathServiceOptions();
  options.session.answer_cache_capacity = 0;
  Service service(options);
  service.CreateDatabase("path", PathDb(n)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  size_t rows = 0;
  DeltaCycle deltas(n, FlipDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto fresh = service.CertainAnswers(request);
    benchmark::DoNotOptimize(fresh);
    rows = fresh->rows.size();
  }
  ReportServiceCounters(state, service, rows);
}
BENCHMARK(BM_Session_FullRecompute)
    ->RangeMultiplier(4)
    ->Range(64, cqa_bench::RangeLimit(4096, 64))
    ->UseRealTime();

/// The 1.5x rule of a stale entry's full recompute (see
/// Session::ComputeCertainFull): `n` R-blocks R(a_i | b_i), with
/// S(b_i | c_i) beside a share 10/`r` of them, so R holds about r/10
/// facts per certain answer. Every request follows a FlipDelta that
/// changes one block (each block is made uncertain, then restored), and
/// max_dirty_patterns = 0 turns each into a full recompute of the
/// cached entry. Up to r = 15 the candidates are R's n rows and the FO
/// program rejects the unjoined ones; past it they come from the join,
/// which starts at the smaller S. Each answer has one embedding, so the
/// join is at its cheapest against the covering atom. rows_decided per
/// request (n when covered, about n*10/r from the join) says which path
/// ran.
void BM_Session_CoveringRule(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int r = static_cast<int>(state.range(1));
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, b}, 1)).ok();
    if (i * 10 % r < 10) {
      db.AddFact(Fact::Make("S", {b, "c" + std::to_string(i)}, 1)).ok();
    }
  }
  Service::Options options = PathServiceOptions();
  options.session.max_dirty_patterns = 0;
  Service service(options);
  service.CreateDatabase("path", std::move(db)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  // Warm: the entry's first computation enumerates the join.
  size_t rows = service.CertainAnswers(request)->rows.size();
  uint64_t decided_before =
      service.Stats({}).value().session.rows_decided;
  DeltaCycle deltas(n, FlipDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto served = service.CertainAnswers(request);
    benchmark::DoNotOptimize(served);
    rows = served->rows.size();
  }
  ReportServiceCounters(state, service, rows);
  state.counters["facts_per_answer"] = r / 10.0;
  state.counters["rows_decided_per_request"] =
      static_cast<double>(service.Stats({}).value().session.rows_decided -
                          decided_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Session_CoveringRule)
    ->ArgsProduct({{cqa_bench::RangeLimit(4096, 256)},
                   {10, 14, 16, 19, 25, 40, 80}})
    ->UseRealTime();

/// The bound between the reach refresh and a full recompute (see
/// Session::DirtyPatternsSince): `n` R-blocks R(a_i | b_(i/k)), so each
/// S-block S(b_j | c_j) is joined by `k` R facts, and every seventh
/// R-block also holds R(a_i | dead_i). Every request follows a DropSDelta
/// that drops one S-block or restores it, so the reach rule finds the
/// `k` rows R joins to it: the restore re-decides them, the drop finds
/// them no longer possible. Past the bound, and at a parent without the
/// rule, each request recomputes the entry in full; full_per_request
/// says which path ran.
void BM_Session_ReachRule(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, "b" + std::to_string(i / k)}, 1)).ok();
    if (i % 7 == 0) {
      db.AddFact(Fact::Make("R", {a, "dead" + std::to_string(i)}, 1)).ok();
    }
  }
  for (int j = 0; j < n / k; ++j) {
    std::string b = "b" + std::to_string(j);
    db.AddFact(Fact::Make("S", {b, "c" + std::to_string(j)}, 1)).ok();
  }
  Service service(PathServiceOptions());
  service.CreateDatabase("path", std::move(db)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  size_t rows = service.CertainAnswers(request)->rows.size();
  Session::Stats before = service.Stats({}).value().session;
  DeltaCycle deltas(n / k, DropSDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto served = service.CertainAnswers(request);
    benchmark::DoNotOptimize(served);
    rows = served->rows.size();
  }
  ReportServiceCounters(state, service, rows);
  Session::Stats after = service.Stats({}).value().session;
  double requests = static_cast<double>(state.iterations());
  state.counters["reach_rows"] = k;
  state.counters["rows_decided_per_request"] =
      static_cast<double>(after.rows_decided - before.rows_decided) /
      requests;
  state.counters["full_per_request"] =
      static_cast<double>(after.answers_full - before.answers_full) /
      requests;
}
BENCHMARK(BM_Session_ReachRule)->Apply([](benchmark::internal::Benchmark* b) {
  const std::set<int64_t> sizes = {cqa_bench::RangeLimit(1024, 256),
                                   cqa_bench::RangeLimit(4096, 256),
                                   cqa_bench::RangeLimit(16384, 256)};
  for (int64_t n : sizes) {
    for (int64_t k : {8, 32, 64, 128, 256, 512, 1024, 2048, 4096}) {
      // At least two S-blocks, so the cycle moves on.
      if (2 * k <= n) b->Args({n, k});
    }
  }
})->UseRealTime();

/// Thread-scaling series of the full-recompute path: the same workload
/// as BM_Session_FullRecompute, but the service pool runs `threads`
/// workers and every request's candidate batch is partitioned across
/// them (Session data parallelism). Filter on the "threads" field in
/// BENCH_results.json for the 1/2/4/8-worker curve.
void BM_Session_FullRecomputeThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  Service::Options options = PathServiceOptions();
  options.num_threads = threads;
  options.session.answer_cache_capacity = 0;
  Service service(options);
  service.CreateDatabase("path", PathDb(n)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  size_t rows = 0;
  DeltaCycle deltas(n, FlipDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto fresh = service.CertainAnswers(request);
    benchmark::DoNotOptimize(fresh);
    rows = fresh->rows.size();
  }
  ReportServiceCounters(state, service, rows);
  state.counters["threads"] = threads;
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["parallel_chunks"] =
      static_cast<double>(stats.session.parallel_chunks) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Session_FullRecomputeThreads)
    ->ArgsProduct({{cqa_bench::RangeLimit(4096, 64)},
                   cqa_bench::ThreadCounts()})
    ->UseRealTime();

/// The durability tax on the delta re-serve path: identical workload to
/// BM_Session_DeltaReServe, but every delta goes through the
/// write-ahead log first (group-commit kNever policy, in-memory Env so
/// the number isolates the encode+frame+append overhead rather than
/// this machine's disk).
///
/// Acceptance tracking: at equal sizes this must stay within 15% of
/// BM_Session_DeltaReServe in BENCH_results.json.
void BM_Session_DurableDeltaReServe(benchmark::State& state) {
  static store::MemEnv* env = new store::MemEnv();
  int n = static_cast<int>(state.range(0));
  Service::Options options = PathServiceOptions();
  options.durability.dir =
      "/bench-durable-" + std::to_string(state.range(0));
  options.durability.env = env;
  options.durability.wal.policy = store::Wal::SyncPolicy::kNever;
  Service service(options);
  env->RemoveDirRecursive(options.durability.dir).ok();
  service.CreateDatabase("path", PathDb(n)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  Service::CertainAnswersRequest request = PathRequest(handle);
  size_t rows = service.CertainAnswers(request)->rows.size();
  DeltaCycle deltas(n, FlipDelta);
  for (auto _ : state) {
    service.ApplyDelta(deltas.Next()).ok();
    auto served = service.CertainAnswers(request);
    benchmark::DoNotOptimize(served);
    rows = served->rows.size();
  }
  ReportServiceCounters(state, service, rows);
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["wal_appends"] =
      static_cast<double>(stats.store.wal_appends);
}
BENCHMARK(BM_Session_DurableDeltaReServe)
    ->RangeMultiplier(4)
    ->Range(64, cqa_bench::RangeLimit(4096, 64))
    ->UseRealTime();

/// Delta cost in isolation: transactional validation + database
/// mutation + in-place patching of one warm worker index.
void BM_Session_ApplyDeltaOnly(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Service service(PathServiceOptions());
  service.CreateDatabase("path", PathDb(n)).ok();
  PreparedQueryHandle handle =
      service.Prepare(PathQ(), {InternSymbol("x")}).value();
  service.CertainAnswers(PathRequest(handle)).ok();  // build the index
  DeltaCycle deltas(n, FlipDelta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.ApplyDelta(deltas.Next()));
  }
}
BENCHMARK(BM_Session_ApplyDeltaOnly)
    ->RangeMultiplier(4)
    ->Range(64, cqa_bench::RangeLimit(4096, 64))
    ->UseRealTime();

/// Boolean serving across deltas: the relation-level cache keeps
/// serving a Boolean query whose relations the deltas never touch.
void BM_Session_BooleanUntouchedRelations(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db = PathDb(n);
  db.AddFact(Fact::Make("Z", {"z", "w"}, 1)).ok();
  Service service(PathServiceOptions());
  service.CreateDatabase("path", std::move(db)).ok();
  PreparedQueryHandle handle = service.Prepare(PathQ(), {}).value();
  service.CertainAnswers(PathRequest(handle)).ok();
  int i = 0;
  for (auto _ : state) {
    Service::DeltaRequest delta;
    delta.database = "path";
    delta.delta.ReplaceBlock(
        InternSymbol("Z"), {InternSymbol("z")},
        {Fact::Make("Z", {"z", "w" + std::to_string(i)}, 1)});
    service.ApplyDelta(delta).ok();
    auto served = service.CertainAnswers(PathRequest(handle));
    benchmark::DoNotOptimize(served);
    ++i;
  }
  ReportServiceCounters(state, service, 0);
}
BENCHMARK(BM_Session_BooleanUntouchedRelations)
    ->RangeMultiplier(4)
    ->Range(64, cqa_bench::RangeLimit(1024, 64))
    ->UseRealTime();

}  // namespace
