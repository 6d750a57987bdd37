#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

void PauseBetweenSetups() {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& run) {
  const FastWindows fast({&run.solve, &run.answers, &run.delta, &run.other});
  auto p50 = [](const Samples& s) { return Median(s.us); };
  auto p95 = [&](const Samples& s) { return fast.Quantile(s, 0.95); };
  const double rate = static_cast<double>(run.completed) / run.measured_s;
  std::printf("windows: p95s over the faster %zu of %zu one-second windows; "
              "throughput %.1f req/s over the whole phase, %.1f over those "
              "windows\n",
              fast.kept(), fast.windows(), rate, fast.KeptRate());
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"throughput_rps", rate, "req/s"},
      {"solve_p50_us", p50(run.solve), "us"},
      {"solve_p95_us", p95(run.solve), "us"},
      {"answers_p50_us", p50(run.answers), "us"},
      {"answers_p95_us", p95(run.answers), "us"},
      {"delta_p50_us", p50(run.delta), "us"},
      {"delta_p95_us", p95(run.delta), "us"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

void DumpSamples(const Args& args, const EndToEnd& run) {
  const std::pair<const char*, const Samples*> classes[] = {
      {"solve", &run.solve},
      {"answers", &run.answers},
      {"delta", &run.delta},
      {"other", &run.other}};
  Clock::time_point first = Clock::time_point::max();
  for (const auto& c : classes) {
    for (Clock::time_point t : c.second->at) first = std::min(first, t);
  }
  std::string path = args.work_dir + "/samples-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "class\tdone_s\tus\n");
  for (const auto& c : classes) {
    const Samples& s = *c.second;
    for (size_t i = 0; i < s.us.size(); ++i) {
      std::fprintf(f, "%s\t%.6f\t%.3f\n", c.first,
                   std::chrono::duration<double>(s.at[i] - first).count(),
                   s.us[i]);
    }
  }
  std::fclose(f);
}

void PrintRunShape(const char* workload, int clients, int executors,
                   int workers, const EndToEnd& run) {
  std::printf("workload %s: clients=%d executors=%d session_workers=%d "
              "measured_s=%.3f setups=%zu\n",
              workload, clients, executors, workers, run.measured_s,
              run.setup_s.size());
  std::printf("setups (s):");
  for (double s : run.setup_s) std::printf(" %.6f", s);
  std::printf("\n");
  std::printf("samples: solve=%zu answers=%zu delta=%zu completed=%llu\n",
              run.solve.us.size(), run.answers.us.size(),
              run.delta.us.size(),
              static_cast<unsigned long long>(run.completed));
  std::printf("host probe (fixed loop, ms; no bound): before=%.2f "
              "after=%.2f; steal over the measured phase: %llu ticks of "
              "1/100 s, summed over the vCPUs\n",
              run.host_before.probe_ms, run.host_after.probe_ms,
              static_cast<unsigned long long>(run.host_after.steal_ticks -
                                              run.host_before.steal_ticks));
}

int CpuOf(const std::vector<int>& cpus, int d) {
  return cpus[static_cast<size_t>(d) % cpus.size()];
}

void MergeCallers(const std::vector<PerCaller>& per, EndToEnd* run,
                  Ledger* ledger) {
  for (const PerCaller& p : per) {
    run->solve.Merge(p.run.solve);
    run->answers.Merge(p.run.answers);
    run->delta.Merge(p.run.delta);
    run->completed += p.run.completed;
    ledger->Merge(p.ledger);
  }
}

void PrintPinning(const std::vector<PerCaller>& per, int workers_pinned,
                  size_t cpus) {
  int callers_pinned = 0;
  for (const PerCaller& p : per) callers_pinned += p.pinned ? 1 : 0;
  std::printf("pinning: caller d and the worker of database d share one "
              "CPU; pins held by %d of %zu callers and %d of %zu workers "
              "(%zu CPUs allowed)\n",
              callers_pinned, per.size(), workers_pinned, per.size(), cpus);
}

double RunClosedLoop(
    int threads, double seconds,
    const std::function<void(int, const std::atomic<bool>&)>& body) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t, stop);
    });
  }
  Clock::time_point begin = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return SecondsSince(begin);
}

double MeanSelfUs(const Tracer& tracer, const std::string& workload,
                  const std::string& span) {
  Tracer::Totals t = tracer.Get(workload, span);
  return t.calls == 0 ? 0 : t.self_us / static_cast<double>(t.calls);
}

void ReplayAlternating(Tracer* tracer, int iterations, int group,
                       uint64_t first_id,
                       const std::function<void(int)>& request,
                       const std::function<void(int)>& probe,
                       LayerReport* report) {
  for (int i = 0; i < 2 * iterations; ++i) {
    const bool on = (i / group) % 2 == 1;
    tracer->set_enabled(on);
    tracer->BeginRequest(first_id + static_cast<uint64_t>(i));
    Clock::time_point t = Clock::now();
    {
      ScopedSpan root(tracer, "request");
      request(i);
    }
    (on ? report->on_s : report->off_s) += SecondsSince(t);
    if (probe) {
      ScopedSpan root(tracer, "probe");
      probe(i);
    }
  }
  tracer->set_enabled(true);
}

ServeCounts::ServeCounts(const cqa::Session::Stats& before,
                         const cqa::Session::Stats& after)
    : cached(after.answers_cached - before.answers_cached),
      incremental(after.answers_incremental - before.answers_incremental),
      full(after.answers_full - before.answers_full),
      reused(after.rows_reused - before.rows_reused),
      decided(after.rows_decided - before.rows_decided),
      chunks(after.parallel_chunks - before.parallel_chunks) {}

bool TimedSolve(cqa::Service* service, const cqa::Service::SolveRequest& req,
                const BoolQuery& want, Samples* lat, Ledger* ledger,
                Tracer* tracer) {
  ++ledger->attempted;
  Clock::time_point t = Clock::now();
  cqa::Result<cqa::Service::SolveResponse> r = [&] {
    ScopedSpan span(tracer, "serve.solve");
    return service->Solve(req);
  }();
  double us = MicrosSince(t);
  if (!CheckReplies({r}, {want}, ledger)) return false;
  lat->Add(us);
  return true;
}

bool CheckReplies(
    const std::vector<cqa::Result<cqa::Service::SolveResponse>>& replies,
    const std::vector<BoolQuery>& slots, Ledger* ledger) {
  if (replies.size() != slots.size()) {
    return ledger->Fail("batch of " + std::to_string(slots.size()) +
                        " got " + std::to_string(replies.size()) +
                        " replies");
  }
  bool ok = true;
  for (size_t i = 0; i < replies.size(); ++i) {
    const BoolQuery& want = slots[i];
    if (!replies[i].ok()) {
      ok = ledger->Fail(want.name + ": " + replies[i].status().message());
    } else if (replies[i]->outcome.solver != want.solver) {
      ok = ledger->Mismatch(want.name + " answered by " +
                            cqa::ToString(replies[i]->outcome.solver) +
                            ", not " + cqa::ToString(want.solver));
    } else if (replies[i]->outcome.certain != want.certain) {
      ok = ledger->Mismatch("verdict of " + want.name);
    }
  }
  return ok;
}

}  // namespace perfbench
