// The storage layer's price list: what building, copying and
// restricting an uncertain database costs in time and in allocator
// bytes per fact, and what the fact index over it holds once an FO
// request has probed it. Every serving tenant holds a `Database` and
// one `FactIndex` over it, and `Service::CreateDatabase` and the scoped
// solves beyond FO (`QueryPlan::Solve` on `Database::Restrict`) copy a
// database.
//
// The facts are shaped like perfbench's answers_full tenant: two
// columns, key arity one, and one block in seven holding two facts.
// Three blocks in eight belong to R and the rest to S, so Restrict to R
// keeps about 37% of the facts.
//
// `bytes_per_fact` is the allocator's in-use bytes (glibc mallinfo2:
// uordblks + hblkhd) that the built, copied or restricted database
// holds, divided by its facts. hblkhd counts the mmapped chunks: a
// large flat table or vector is mmapped, and uordblks alone misses it.
// The facts' symbols are interned before the measurement starts.

#include "bench_main.h"

#include <malloc.h>

#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "cqa.h"

namespace {

using namespace cqa;

/// `blocks` blocks in R and S; every seventh block holds two facts.
std::vector<Fact> AnswersShapedFacts(int64_t blocks) {
  const SymbolId r = InternSymbol("R");
  const SymbolId s = InternSymbol("S");
  std::vector<SymbolId> values;
  for (int i = 0; i < 256; ++i) {
    values.push_back(InternSymbol("v" + std::to_string(i)));
  }
  std::vector<Fact> facts;
  facts.reserve(blocks + blocks / 7 + 1);
  for (int64_t i = 0; i < blocks; ++i) {
    SymbolId relation = i % 8 < 3 ? r : s;
    SymbolId key = InternSymbol("k" + std::to_string(i));
    facts.emplace_back(relation, std::vector<SymbolId>{key, values[i % 256]},
                       1);
    if (i % 7 == 0) {
      facts.emplace_back(
          relation, std::vector<SymbolId>{key, values[(i + 1) % 256]}, 1);
    }
  }
  return facts;
}

Database Build(const std::vector<Fact>& facts) {
  Database db;
  for (const Fact& f : facts) {
    Status st = db.AddFact(f);
    if (!st.ok()) std::abort();
  }
  return db;
}

/// Bytes the allocator has handed out and not taken back.
double AllocatedBytes() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

/// Allocator bytes per fact of the database `make()` returns, measured
/// once outside the timed loop.
template <typename Make>
double BytesPerFact(const Make& make) {
  double before = AllocatedBytes();
  Database db = make();
  double after = AllocatedBytes();
  return db.empty() ? 0 : (after - before) / db.size();
}

/// AddFact of every fact into an empty database (the database is
/// destroyed inside the iteration too).
void BM_Database_Build(benchmark::State& state) {
  std::vector<Fact> facts = AnswersShapedFacts(state.range(0));
  for (auto _ : state) {
    Database db = Build(facts);
    benchmark::DoNotOptimize(db.size());
  }
  state.counters["facts"] = static_cast<double>(facts.size());
  state.counters["bytes_per_fact"] =
      BytesPerFact([&] { return Build(facts); });
}
BENCHMARK(BM_Database_Build)
    ->Arg(cqa_bench::RangeLimit(1024, 256))
    ->Arg(cqa_bench::RangeLimit(4096, 512))
    ->Arg(cqa_bench::RangeLimit(28672, 1024))
    ->Unit(benchmark::kMillisecond);

/// A copy of the whole database, and its destruction.
void BM_Database_Copy(benchmark::State& state) {
  Database db = Build(AnswersShapedFacts(state.range(0)));
  for (auto _ : state) {
    Database copy = db;
    benchmark::DoNotOptimize(copy.size());
  }
  state.counters["facts"] = db.size();
  state.counters["bytes_per_fact"] = BytesPerFact([&] { return db; });
}
BENCHMARK(BM_Database_Copy)
    ->Arg(cqa_bench::RangeLimit(1024, 256))
    ->Arg(cqa_bench::RangeLimit(4096, 512))
    ->Arg(cqa_bench::RangeLimit(28672, 1024))
    ->Unit(benchmark::kMillisecond);

/// Restrict to R, about 37% of the facts, and the result's destruction.
/// `facts` counts the facts kept.
void BM_Database_Restrict(benchmark::State& state) {
  Database db = Build(AnswersShapedFacts(state.range(0)));
  const std::unordered_set<SymbolId> relations = {InternSymbol("R")};
  int64_t kept = 0;
  for (auto _ : state) {
    Database restricted = db.Restrict(relations);
    kept = restricted.size();
    benchmark::DoNotOptimize(kept);
  }
  state.counters["facts"] = static_cast<double>(kept);
  state.counters["bytes_per_fact"] =
      BytesPerFact([&] { return db.Restrict(relations); });
}
BENCHMARK(BM_Database_Restrict)
    ->Arg(cqa_bench::RangeLimit(1024, 256))
    ->Arg(cqa_bench::RangeLimit(4096, 512))
    ->Arg(cqa_bench::RangeLimit(28672, 1024))
    ->Unit(benchmark::kMillisecond);

/// A fresh context's index after one FO decision pass of R(x | y),
/// S(y | z) with x free (the candidates, then IsCertainRows) and one
/// Boolean solve of the same query: the probes of an answers_full
/// request. R's values are not S's keys here, so no row is a candidate
/// and no embedding exists, but every R fact still probes S by key.
/// `index_bytes_per_fact` is the allocator's in-use bytes that the
/// context holds after the pass (its index, and nothing else outlives
/// the pass), divided by the facts.
void BM_Database_IndexBytes(benchmark::State& state) {
  Database db = Build(AnswersShapedFacts(state.range(0)));
  Query q = MustParseQuery("R(x | y), S(y | z)");
  const std::vector<SymbolId> free_vars = {InternSymbol("x")};
  auto rows_plan = QueryPlan::Compile(q, free_vars);
  auto bool_plan = QueryPlan::Compile(q);
  if (!rows_plan.ok() || !bool_plan.ok()) std::abort();
  auto pass = [&](EvalContext& ctx) {
    std::vector<std::vector<SymbolId>> candidates =
        CollectProjectionsSorted(ctx.fact_index(), q, Valuation(), free_vars);
    benchmark::DoNotOptimize((*rows_plan)->IsCertainRows(ctx, candidates));
    benchmark::DoNotOptimize((*bool_plan)->Solve(ctx));
  };
  for (auto _ : state) {
    EvalContext ctx(db);
    pass(ctx);
  }
  state.counters["facts"] = db.size();
  double before = AllocatedBytes();
  EvalContext ctx(db);
  pass(ctx);
  state.counters["index_bytes_per_fact"] =
      (AllocatedBytes() - before) / db.size();
}
BENCHMARK(BM_Database_IndexBytes)
    ->Arg(cqa_bench::RangeLimit(1024, 256))
    ->Arg(cqa_bench::RangeLimit(4096, 512))
    ->Arg(cqa_bench::RangeLimit(28672, 1024))
    ->Unit(benchmark::kMillisecond);

}  // namespace
