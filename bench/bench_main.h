#ifndef CQA_BENCH_BENCH_MAIN_H_
#define CQA_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

/// \file
/// Shared benchmark harness. Every bench_*.cc includes this header instead
/// of <benchmark/benchmark.h> and links against `cqa_bench_main`, whose
/// main() runs the registered benchmarks and appends one machine-readable
/// record per benchmark to BENCH_results.json (override the path with
/// CQA_BENCH_JSON). Each record carries:
///
///   {"bench": <binary>, "name": <benchmark/arg>, "matcher": "indexed",
///    "wall_ms": <per-iteration wall clock>,
///    "facts": <facts counter if set>, "facts_per_sec": <derived>,
///    "plan_hits"/"plan_misses"/"hit_rate"/"qps"/"threads": <serving and
///    plan-cache counters, present when the benchmark sets them>,
///    "parallel_chunks": <pool chunks per request, likewise>,
///    "bytes_per_fact": <allocator bytes per stored fact, likewise>,
///    "index_bytes_per_fact": <allocator bytes per fact of a probed
///    FactIndex, likewise>,
///    "full_per_request": <full answer recomputes per request, likewise>}
///
/// Under --benchmark_repetitions=N (N > 1) the record holds the median
/// of the N repetitions (its wall_ms and counters) and carries
/// "repetitions": N.
///
/// Every bench binary also accepts `--filter=<regex>` (shorthand for
/// --benchmark_filter) to run a subset of its benchmarks, and `--smoke`
/// for the CI smoke job: small problem sizes (benchmarks consult
/// `cqa_bench::RangeLimit` at registration; the flag re-execs the binary
/// with CQA_BENCH_SMOKE=1 so registration sees it) and a separate
/// default output file (BENCH_smoke.json) so a smoke run never
/// overwrites the real numbers in BENCH_results.json.
///
/// The "facts" counter is the convention already used by the suite
/// (state.counters["facts"] = db.size()); facts_per_sec is derived from it
/// so throughput is tracked, not just latency. The "matcher" field is
/// always "indexed"; the ledger's "naive" records come from older runs
/// of the naive matcher and are kept as they are.
///
/// Records are one JSON object per line inside a top-level array; a rerun
/// of a binary replaces its previous "indexed" records in place, so
/// BENCH_results.json accumulates the whole suite.

namespace cqa_bench {

/// True when this process runs in smoke mode (CQA_BENCH_SMOKE set, or
/// `--smoke` passed — the flag re-execs with the variable set). Safe to
/// call during static initialization, i.e. from BENCHMARK registration
/// expressions.
bool SmokeMode();

/// `full` normally, `smoke` in smoke mode — the registration-time hook
/// for capping `Range(...)` sizes in the CI smoke job.
int64_t RangeLimit(int64_t full, int64_t smoke);

/// Worker counts for thread-scaling benchmark series, consulted at
/// registration time (e.g. `ArgsProduct({{size}, ThreadCounts()})`).
/// Default {1, 2, 4, 8} for the full suite, {1, 2} in smoke mode;
/// CQA_BENCH_THREADS (a comma-separated list, e.g. "1,2,4,8,16")
/// overrides both. Every bench binary also accepts `--threads=LIST`,
/// which re-execs with the variable set so registration sees it —
/// mirroring `--smoke`.
std::vector<int64_t> ThreadCounts();

}  // namespace cqa_bench

#endif  // CQA_BENCH_BENCH_MAIN_H_
