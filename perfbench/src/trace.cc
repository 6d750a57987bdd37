// The traced run (`--trace 1`). It replays the selected workload's
// seeded request stream from one thread, twice: once with spans off and
// once with spans on, which measures the tracer's own overhead. Every
// per-layer metric is reported from the workload the README lists it
// against; metrics that belong to other workloads come from a shorter
// replay of those workloads in the same run, so every traced run prints
// the whole per-layer table.

#include <cstdio>
#include <map>

#include "workloads.h"

namespace perfbench {
namespace {

using ReplayFn = LayerReport (*)(const Args&, Tracer*, int, Ledger*);

struct Source {
  const char* name;
  ReplayFn replay;
  int requests;        // replayed per pass when it is the traced workload
  int short_requests;  // when it only supplies its own layers
};

const Source kSources[] = {
    {"wire_mixed", ReplayWireMixed, 8000, 800},
    {"answers_full", ReplayAnswersFull, 60, 8},
    {"delta_durable", ReplayDeltaDurable, 600, 100},
    {"frontier_solve", ReplayFrontierSolve, 150, 20},
};

/// BENCHMARK.json's per-layer metrics, each with the workloads it is
/// measured on (README.md "Per-layer metrics"), first one preferred.
struct LayerMetric {
  const char* name;
  std::vector<const char*> on;
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"net.codec_us", {"wire_mixed"}},
      {"net.frame_us", {"wire_mixed"}},
      {"net.bytes_per_req", {"wire_mixed"}},
      {"net.wire_tax_us", {"wire_mixed"}},
      {"net.shed", {"wire_mixed"}},
      {"net.retries", {"wire_mixed"}},
      {"plan.lookup_us", {"wire_mixed"}},
      {"plan.cache_hit_ratio", {"wire_mixed"}},
      {"plan.compile_us", {"frontier_solve"}},
      {"core.classify_us", {"frontier_solve"}},
      {"fo.rewrite_us", {"frontier_solve"}},
      {"serve.solve_us", {"wire_mixed", "frontier_solve"}},
      {"serve.dispatch_us", {"wire_mixed", "frontier_solve"}},
      {"serve.first_page_us", {"answers_full", "wire_mixed"}},
      {"serve.next_page_us", {"wire_mixed"}},
      {"serve.apply_delta_us", {"delta_durable"}},
      {"serve.cache_hit_ratio", {"delta_durable", "wire_mixed"}},
      {"serve.rows_reused_ratio", {"delta_durable", "wire_mixed"}},
      {"serve.gate_reader_waits", {"delta_durable"}},
      {"serve.gate_writer_handoffs", {"delta_durable"}},
      {"serve.parallel_chunks", {"answers_full"}},
      {"cq.enumerate_us", {"answers_full"}},
      {"cq.candidate_rows", {"answers_full"}},
      {"cq.seeded_enumerate_us", {"delta_durable"}},
      {"fo.decide_rows_us", {"answers_full"}},
      {"fo.ns_per_row", {"answers_full"}},
      {"fo.bool_solve_us", {"wire_mixed", "frontier_solve"}},
      {"solvers.terminal_cycles_us", {"frontier_solve"}},
      {"solvers.ack_us", {"frontier_solve"}},
      {"solvers.ck_us", {"frontier_solve"}},
      {"solvers.sat_us", {"frontier_solve"}},
      {"solvers.sat_decisions", {"frontier_solve"}},
      {"solvers.sat_clauses", {"frontier_solve"}},
      {"store.append_us", {"delta_durable"}},
      {"store.sync_us", {"delta_durable"}},
      {"store.compact_us", {"delta_durable"}},
      {"store.compactions", {"delta_durable"}},
      {"store.bytes_per_user_byte", {"delta_durable"}},
      {"store.recover_s", {"delta_durable"}},
  };
  return kMetrics;
}

const Metric* Find(const LayerReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int RunTraced(const Args& args) {
  Tracer tracer;
  Ledger ledger;
  std::map<std::string, LayerReport> reports;
  const Source* traced = nullptr;
  for (const Source& s : kSources) {
    if (args.workload == s.name) traced = &s;
  }
  // The traced workload first, at full length; then the others.
  tracer.SetSource(traced->name);
  reports[traced->name] =
      traced->replay(args, &tracer, traced->requests, &ledger);
  for (const Source& s : kSources) {
    if (&s == traced) continue;
    tracer.SetSource(s.name);
    reports[s.name] = s.replay(args, &tracer, s.short_requests, &ledger);
  }

  const LayerReport& own = reports[traced->name];
  std::printf("workload %s traced: one caller, %d requests per pass, spans "
              "off then on\n",
              traced->name, traced->requests);
  std::printf("trace overhead: off=%.4fs on=%.4fs overhead=%.2f%% "
              "(base: the spans-off replay)\n",
              own.off_s, own.on_s,
              own.off_s > 0 ? 100.0 * (own.on_s - own.off_s) / own.off_s : 0);
  std::printf("work:");
  for (const auto& [name, value] : own.work) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  for (const LayerMetric& lm : LayerMetrics()) {
    const Metric* found = nullptr;
    const char* from = nullptr;
    for (const char* w : lm.on) {
      if (w == args.workload) {
        found = Find(reports[w], lm.name);
        from = w;
      }
    }
    for (const char* w : lm.on) {
      if (found != nullptr) break;
      found = Find(reports[w], lm.name);
      from = w;
    }
    if (found == nullptr) {
      ledger.Fail(std::string("no value for ") + lm.name);
      continue;
    }
    std::printf("layer %-28s on %-15s %14.4f %s\n", lm.name, from,
                found->value, found->unit.c_str());
    metrics.push_back(*found);
  }
  std::string dump = args.work_dir + "/spans-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".tsv";
  if (tracer.Dump(dump)) {
    std::printf("spans: %zu written to %s\n", tracer.size(), dump.c_str());
  } else {
    ledger.Fail("span dump: " + dump);
  }
  return PrintResult(ledger, metrics);
}

}  // namespace perfbench
