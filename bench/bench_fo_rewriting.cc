// E7 — Theorem 1: certain FO rewriting vs the exponential baseline,
// and row-at-a-time interpretation vs set-at-a-time program execution.
//
// On path queries (acyclic attack graphs) the rewriting answers
// CERTAINTY in polynomial time; repair enumeration blows up with the
// number of uncertain blocks, and SAT sits in between. The crossover
// shape — FO flat, oracle exponential — is the figure this bench
// regenerates.
//
// The *CertainAnswers{Interpreter,Program} pair is the compiled-
// execution series: the same parameterized plan deciding the same
// candidate rows, once through the tree interpreter (one AST descent +
// full guard-relation scan per row) and once through the FoProgram
// executor (all rows in one indexed pass). Their ratio at the largest
// size is the set-at-a-time speedup recorded in BENCH_results.json.

#include "bench_main.h"

#include "cqa.h"

namespace {

using namespace cqa;

Database PathDb(int blocks, uint64_t seed) {
  BlockDbGenOptions options;
  options.blocks_per_relation = blocks;
  options.max_block_size = 2;
  options.domain_size = blocks;  // Keep join selectivity stable.
  options.seed = seed;
  return RandomBlockDatabase(corpus::PathQuery2(), options);
}

/// Shared setup of the certain-answers series: the parameterized plan
/// for PathQuery2 with free variable x and the candidate rows of `db`.
struct AnswerBench {
  std::shared_ptr<const QueryPlan> plan;
  std::vector<std::vector<SymbolId>> rows;

  static AnswerBench Make(const Database& db) {
    AnswerBench out;
    Query q = corpus::PathQuery2();
    std::vector<SymbolId> fv = {InternSymbol("x")};
    out.plan = QueryPlan::Compile(q, fv).value();
    FactIndex index(db);
    out.rows = CollectProjectionsSorted(index, q, Valuation(), fv);
    return out;
  }
};

void BM_Fo_CertainAnswersInterpreter(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  AnswerBench bench = AnswerBench::Make(db);
  EvalContext ctx(db);
  size_t certain = 0;
  for (auto _ : state) {
    certain = 0;
    // Row-at-a-time oracle: one tree descent per candidate row.
    for (const std::vector<SymbolId>& row : bench.rows) {
      if (*bench.plan->IsCertainRow(ctx, row)) ++certain;
    }
    benchmark::DoNotOptimize(certain);
  }
  state.counters["facts"] = db.size();
  state.counters["rows"] = static_cast<double>(bench.rows.size());
  state.counters["certain"] = static_cast<double>(certain);
}
BENCHMARK(BM_Fo_CertainAnswersInterpreter)
    ->RangeMultiplier(4)
    ->Range(32, cqa_bench::RangeLimit(2048, 128));

void BM_Fo_CertainAnswersProgram(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  AnswerBench bench = AnswerBench::Make(db);
  EvalContext ctx(db);
  size_t certain = 0;
  for (auto _ : state) {
    // Set-at-a-time: every candidate row in one pass over the index.
    std::vector<char> decided =
        bench.plan->IsCertainRows(ctx, bench.rows).value();
    certain = 0;
    for (char c : decided) certain += c != 0;
    benchmark::DoNotOptimize(certain);
  }
  state.counters["facts"] = db.size();
  state.counters["rows"] = static_cast<double>(bench.rows.size());
  state.counters["certain"] = static_cast<double>(certain);
}
BENCHMARK(BM_Fo_CertainAnswersProgram)
    ->RangeMultiplier(4)
    ->Range(32, cqa_bench::RangeLimit(2048, 128));

void BM_Fo_CertainAnswersParallel(benchmark::State& state) {
  // Thread-scaling series of the data-parallel row path: one large
  // CertainAnswers call per iteration on a plan compiled before the
  // loop, its candidate batch partitioned across `threads` workers (the
  // answer cache is disabled so every iteration re-decides the full
  // batch). The arg-pair (blocks, threads) makes the 1/2/4/8-worker
  // curve one filtered series in BENCH_results.json.
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  int threads = static_cast<int>(state.range(1));
  double facts = db.size();
  Session::Options options;
  options.num_threads = threads;
  options.answer_cache_capacity = 0;
  Session session(std::move(db), options);
  Query q = corpus::PathQuery2();
  std::vector<SymbolId> fv = {InternSymbol("x")};
  std::shared_ptr<const QueryPlan> plan =
      PlanCache::Global().GetOrCompile(q, fv).value();
  size_t answers = 0;
  for (auto _ : state) {
    answers = (*session.CertainAnswers(plan, q, fv))->size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["facts"] = facts;
  state.counters["threads"] = threads;
  state.counters["certain"] = static_cast<double>(answers);
  Session::Stats stats = session.stats();
  state.counters["parallel_chunks"] =
      static_cast<double>(stats.parallel_chunks) /
      static_cast<double>(state.iterations());
}
// Real time: the calling thread waits on the pool, so its CPU time
// would understate every iteration and inflate the iteration count.
BENCHMARK(BM_Fo_CertainAnswersParallel)
    ->ArgsProduct({{cqa_bench::RangeLimit(2048, 128)},
                   cqa_bench::ThreadCounts()})
    ->UseRealTime();

void BM_Fo_BooleanInterpreter(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  Result<FoSolver> solver = FoSolver::Create(corpus::PathQuery2());
  EvalContext ctx(db);
  FormulaEvaluator interpreter(ctx.fact_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(interpreter.Eval(solver->rewriting()));
  }
  state.counters["facts"] = db.size();
}
BENCHMARK(BM_Fo_BooleanInterpreter)
    ->RangeMultiplier(4)
    ->Range(32, cqa_bench::RangeLimit(2048, 128));

void BM_Fo_BooleanProgram(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  Result<FoSolver> solver = FoSolver::Create(corpus::PathQuery2());
  EvalContext ctx(db);
  const FoProgram& program = *solver->program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.EvaluateBool(ctx.fact_index()));
  }
  state.counters["facts"] = db.size();
}
BENCHMARK(BM_Fo_BooleanProgram)
    ->RangeMultiplier(4)
    ->Range(32, cqa_bench::RangeLimit(2048, 128));

void BM_Fo_PathRewriting(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  Result<FoSolver> solver = FoSolver::Create(corpus::PathQuery2());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver->IsCertain(db));
  }
  state.counters["facts"] = db.size();
  state.counters["repairs"] = db.RepairCount().ToDouble();
}
BENCHMARK(BM_Fo_PathRewriting)->RangeMultiplier(2)->Range(4, 256);

void BM_Fo_PathOracle(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  Query q = corpus::PathQuery2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(*OracleSolver(q).IsCertain(db));
  }
  state.counters["facts"] = db.size();
  state.counters["repairs"] = db.RepairCount().ToDouble();
}
BENCHMARK(BM_Fo_PathOracle)->DenseRange(4, 16, 4);

void BM_Fo_PathSat(benchmark::State& state) {
  Database db = PathDb(static_cast<int>(state.range(0)), 42);
  Query q = corpus::PathQuery2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(*SatSolver(q).IsCertain(db));
  }
  state.counters["facts"] = db.size();
}
BENCHMARK(BM_Fo_PathSat)->RangeMultiplier(2)->Range(4, 128);

void BM_Fo_RewritingConstruction(benchmark::State& state) {
  // Rewriting construction itself on longer paths (query complexity).
  Query q = corpus::PathQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CertainRewriting(q));
  }
  Result<FormulaPtr> f = CertainRewriting(q);
  state.counters["formula_nodes"] = f.ok() ? (*f)->NodeCount() : 0;
  state.counters["quantifier_depth"] = f.ok() ? (*f)->QuantifierDepth() : 0;
}
BENCHMARK(BM_Fo_RewritingConstruction)->DenseRange(1, 7, 1);

}  // namespace
