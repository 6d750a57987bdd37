// Backend pushdown: serving a paginated certain-answer stream through
// the in-memory engine (a tenant without a backend) vs the
// embedded-SQLite backend.
//
// The two series measure DIFFERENT residency contracts on purpose. An
// in-memory tenant serves streams from the session's resident answer
// cache — the cost of keeping the tenant in RAM. The SQLite series
// opens a snapshot cursor per stream and executes the lowered rewriting
// as SQL over the per-tenant file on EVERY stream — the cost of NOT
// being resident. The SQLite series therefore extends past the
// in-memory one (16384 facts = 4x its largest point): the pushdown
// path must keep scaling where the resident path would not be allowed
// to go (resident_budget_facts).
//
// Acceptance tracking: the sqlite series must reach 16384 facts and
// stay sub-linear in per-stream latency relative to fact count (the
// rewriting is indexed by the mirrored key prefixes).
//
// Real time: the calling thread waits on the session's pool, so its CPU
// time would understate every iteration and inflate the iteration count.

#include "bench_main.h"

#include "cqa.h"

#include <string>

namespace {

using namespace cqa;

constexpr char kSqliteBenchDir[] = "/tmp/cqa_bench_backend";

/// A path-query tenant with ~`facts` facts and block-level uncertainty.
Database PathTenant(int facts) {
  BlockDbGenOptions bopts;
  bopts.seed = 29;
  bopts.blocks_per_relation = facts / 3;  // 2 relations, ~1.5 facts/block
  bopts.max_block_size = 2;
  bopts.domain_size = facts / 2;
  return RandomBlockDatabase(corpus::PathQuery2(), bopts);
}

void BM_Backend_CertainAnswers(benchmark::State& state) {
  const bool sqlite = state.range(0) != 0;
  const int facts = static_cast<int>(state.range(1));
  if (sqlite && !SqliteBackendAvailable()) {
    state.SkipWithError("built without CQA_WITH_SQLITE");
    return;
  }
  Service::Options options;
  options.num_threads = 2;
  if (sqlite) {
    options.backend.kind = BackendOptions::Kind::kSqlite;
    // A real file (not :memory:) so streams take the snapshot-cursor
    // path, exactly like a larger-than-RAM tenant would.
    options.backend.sqlite_dir = kSqliteBenchDir;
  }
  Service service(options);
  Database db = PathTenant(facts);
  const std::string name = "bench" + std::to_string(facts);
  if (!service.CreateDatabase(name, db).ok()) {
    state.SkipWithError("CreateDatabase failed");
    return;
  }

  Service::CertainAnswersRequest first;
  first.database = name;
  first.query = corpus::PathQuery2();
  first.free_vars = {InternSymbol("x")};
  first.page_size = 256;

  // One whole stream, every page of it.
  size_t rows = 0;
  auto stream = [&]() -> bool {
    Result<Service::CertainAnswersResponse> page =
        service.CertainAnswers(first);
    if (!page.ok()) {
      state.SkipWithError(page.status().message().c_str());
      return false;
    }
    rows = page->total_rows;
    while (!page->next_page_token.empty()) {
      Service::CertainAnswersRequest next;
      next.database = name;
      next.page_token = page->next_page_token;
      page = service.CertainAnswers(next);
      if (!page.ok()) {
        state.SkipWithError(page.status().message().c_str());
        return false;
      }
      benchmark::DoNotOptimize(page->rows);
    }
    return true;
  };
  // The tenant's first stream also compiles the plan's SQL and creates
  // the mirror's indexes; untimed, so that a point timing one stream a
  // repetition times a stream like every other.
  if (!stream()) return;
  for (auto _ : state) {
    if (!stream()) return;
  }

  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["facts"] = static_cast<double>(db.size());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["pushed_answer_sets"] =
      static_cast<double>(stats.backend.pushed_answer_sets);
  state.counters["cursors_opened"] =
      static_cast<double>(stats.backend.cursors_opened);
  state.counters["degraded"] =
      static_cast<double>(stats.degraded_backends);
  // Tears the mirror file down with the tenant.
  Status dropped = service.DropDatabase(name);
  (void)dropped;
}
BENCHMARK(BM_Backend_CertainAnswers)
    ->ArgNames({"sqlite", "facts"})
    ->Args({0, 1024})
    ->Args({0, 4096})
    ->Args({1, 1024})
    ->Args({1, 4096})
    ->Args({1, 16384})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
