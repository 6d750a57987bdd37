#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "serve/service.h"

/// \file
/// The four workloads. Each has an end-to-end run (`--trace 0`: its real
/// thread layout, a closed loop for `--seconds`, every response checked)
/// and a replay used by the traced run (`--trace 1`: the same seeded
/// request stream from one thread, with spans around the calls into each
/// layer). README.md explains why each workload exists.

namespace perfbench {

/// What an end-to-end run measured, before it is turned into metrics.
struct EndToEnd {
  std::vector<double> setup_s;  // one entry per repeated set-up
  Samples solve, answers, delta;
  /// Requests answered without error that belong to no latency class
  /// (wire_mixed's continuation pages); they count toward throughput.
  Samples other;
  uint64_t completed = 0;       // requests answered without error
  double measured_s = 0;
  HostSample host_before, host_after;  // around the measured phase
};

/// Sleeps between two timed set-ups, so that the set-ups a run takes the
/// median of are spread over a few seconds instead of one burst.
void PauseBetweenSetups();

/// The nine end-to-end metrics of BENCHMARK.json, in its order: medians
/// over the whole measured phase, p95s over its faster half
/// (FastWindows), throughput as completions over the phase's length.
/// Prints the windows kept and the throughput over them beside them.
std::vector<Metric> EndToEndMetrics(const EndToEnd& run);

/// Writes every latency sample of the measured phase to
/// `<work_dir>/samples-<workload>-seed<n>.tsv` (see README.md), so the
/// spread of a run can be studied after it. Best effort: an I/O failure
/// only skips the dump.
void DumpSamples(const Args& args, const EndToEnd& run);

/// Prints the thread budget and measured-phase line every workload
/// reports beside its metrics.
void PrintRunShape(const char* workload, int clients, int executors,
                   int workers, const EndToEnd& run);

/// Runs `body(thread_index, stop)` on `threads` threads, releasing them
/// together and stopping them after `seconds`; returns the measured
/// wall time. Every thread is joined before this returns.
double RunClosedLoop(
    int threads, double seconds,
    const std::function<void(int, const std::atomic<bool>&)>& body);

/// The CPU caller `d` of a pinned workload, and its database's worker,
/// run on: the d-th of `cpus` (the allowed CPUs), wrapping around.
int CpuOf(const std::vector<int>& cpus, int d);

/// What one caller of a multi-caller workload measured.
struct PerCaller {
  EndToEnd run;
  Ledger ledger;
  bool pinned = false;  // the caller's ScopedPin held
};

/// Adds every caller's samples, completions and ledger to `run` and
/// `ledger`.
void MergeCallers(const std::vector<PerCaller>& per, EndToEnd* run,
                  Ledger* ledger);

/// Prints how many of the callers' and workers' pins held; caller d and
/// the worker of database d share CpuOf(cpus, d).
void PrintPinning(const std::vector<PerCaller>& per, int workers_pinned,
                  size_t cpus);

/// Per-layer results of one replay.
struct LayerReport {
  std::vector<Metric> metrics;
  /// Deterministic work counts of the replay ("name=value" pairs).
  std::vector<std::pair<std::string, uint64_t>> work;
  /// Wall time of the replay with spans off and on.
  double off_s = 0;
  double on_s = 0;
};

// End-to-end runs; each returns the process exit code.
int RunWireMixed(const Args& args);
int RunAnswersFull(const Args& args);
int RunDeltaDurable(const Args& args);
int RunFrontierSolve(const Args& args);

// Replays for the traced run. `requests` is fixed per workload so the
// work counts repeat exactly at one seed.
LayerReport ReplayWireMixed(const Args& args, Tracer* tracer, int requests,
                            Ledger* ledger);
LayerReport ReplayAnswersFull(const Args& args, Tracer* tracer, int requests,
                              Ledger* ledger);
LayerReport ReplayDeltaDurable(const Args& args, Tracer* tracer,
                               int requests, Ledger* ledger);
LayerReport ReplayFrontierSolve(const Args& args, Tracer* tracer,
                                int requests, Ledger* ledger);

/// The traced run: replays `args.workload` and reports every per-layer
/// metric of BENCHMARK.json.
int RunTraced(const Args& args);

/// Helper for per-layer metrics: mean self time per call of the spans
/// named `span` recorded while replaying `workload`, in microseconds.
double MeanSelfUs(const Tracer& tracer, const std::string& workload,
                  const std::string& span);

/// The traced replay's loop: `2 * iterations` iterations with spans off
/// and on in turn, `group` iterations at a time, so both halves see the
/// same host and their difference is the tracer's own overhead.
/// Iteration i is request `first_id + i`. `request(i)` runs under a
/// `request` root span and its wall time is added to `report->off_s` or
/// `report->on_s`; `probe(i)`, when set, follows under a `probe` root
/// span, untimed, for the direct calls into single layers. Spans are on
/// again when it returns.
void ReplayAlternating(Tracer* tracer, int iterations, int group,
                       uint64_t first_id,
                       const std::function<void(int)>& request,
                       const std::function<void(int)>& probe,
                       LayerReport* report);

/// Answer-path counts between two Session::Stats snapshots.
struct ServeCounts {
  ServeCounts(const cqa::Session::Stats& before,
              const cqa::Session::Stats& after);
  uint64_t cached, incremental, full, reused, decided, chunks;
  uint64_t serves() const { return cached + incremental + full; }
  /// serve.cache_hit_ratio: answers_cached / all serves.
  double cache_hit_ratio() const { return Ratio(cached, serves()); }
  /// serve.rows_reused_ratio: rows_reused / (rows_reused + rows_decided).
  double rows_reused_ratio() const { return Ratio(reused, reused + decided); }
};

/// Sends `req` as one Service::Solve (under a `serve.solve` span) and
/// checks the reply like CheckReplies; a matching reply's latency goes
/// to `lat`. Returns true on a match.
bool TimedSolve(cqa::Service* service, const cqa::Service::SolveRequest& req,
                const BoolQuery& want, Samples* lat, Ledger* ledger,
                Tracer* tracer);

/// Checks the replies of one SolveBatch against `slots`, slot by slot:
/// status, verdict and the solver that answered. Errors and mismatches
/// are counted in `ledger`. Returns true when every reply matches.
bool CheckReplies(
    const std::vector<cqa::Result<cqa::Service::SolveResponse>>& replies,
    const std::vector<BoolQuery>& slots, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
