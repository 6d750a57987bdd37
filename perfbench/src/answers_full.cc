// answers_full: the certain-answer enumeration path (ROADMAP item 2).
// In process. Each iteration applies one delta that swaps one S-block for
// another; S's key is existential, so the answer cache must recompute the
// whole answer set, and the next first page pays for candidate
// enumeration (cq) and the FO program (fo). A Boolean scan over two
// relations the deltas do not touch and its certain twin, two Solve
// requests of about the same cost, give the solve class. Four callers
// each drive their own copy of the database (four databases of one
// Service, one session worker each), each caller pinned with its
// database's worker to a CPU of its own: with one caller and four
// workers, the vCPUs idled between requests, and every request that had
// to wake one waited on the host's other tenants (README.md). The traced
// run replays one database served by four workers, where the pool
// fan-out shows.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "cq/matcher.h"
#include "inputs.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqa::Database;
using cqa::Service;

constexpr const char* kName = "answers_full";
constexpr int kCallers = 4;        // one database each
constexpr int kWorkers = 1;        // per database
constexpr int kTracedWorkers = 4;  // the traced run's one database
constexpr int kRBlocks = 16384;
constexpr int kSBlocks = 2048;
constexpr int kScanBlocks = 8192;
constexpr int kSetups = 15;

struct Inputs {
  Database db;
  AnswerStream answers;
  std::vector<BoolQuery> scan;  // the scan and its certain twin
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  cqa::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  AddUnpinnedAnswers(kRBlocks, kSBlocks, &rng, &in.db, &in.answers);
  in.scan = AddBooleanScan("XA", "XB", kScanBlocks, true, &rng, &in.db);
  ComputeExpected(in.db, &in.answers);
  FillVerdicts(in.db, &in.scan);
  return in;
}

std::string DbName(int caller) { return "answers" + std::to_string(caller); }

struct Fixture {
  std::unique_ptr<Service> service;
  cqa::PreparedQueryHandle answers;
  cqa::PreparedQueryHandle scan[2];  // the scan, then its twin
  std::vector<uint64_t> base_epoch;  // per database
};

/// `databases` copies of the database served by `workers` session
/// workers each, the prepared handles, and one warm request of each
/// class per database. With `cpus`, database d's worker is created, and
/// its warm requests are sent, pinned to CpuOf(cpus, d); `*pinned`
/// counts the databases whose pin held. Returns false (with the reason
/// in `ledger`) on any error.
bool SetUp(const Inputs& in, int databases, int workers,
           const std::vector<int>& cpus, Fixture* fx, Ledger* ledger,
           int* pinned) {
  Service::Options options;
  options.num_threads = workers;
  fx->service = std::make_unique<Service>(options);
  auto answers = fx->service->Prepare(in.answers.query, in.answers.free_vars);
  if (!answers.ok()) return ledger->Fail("prepare");
  fx->answers = *answers;
  for (size_t i = 0; i < in.scan.size(); ++i) {
    auto handle = fx->service->Prepare(in.scan[i].query);
    if (!handle.ok()) return ledger->Fail("prepare " + in.scan[i].name);
    fx->scan[i] = *handle;
  }
  *pinned = 0;
  for (int d = 0; d < databases; ++d) {
    std::optional<ScopedPin> pin;
    if (!cpus.empty()) pin.emplace(CpuOf(cpus, d));
    if (pin && pin->ok()) ++*pinned;
    Database copy = in.db;
    // The session's worker is created here and inherits the pin.
    cqa::Status st = fx->service->CreateDatabase(DbName(d), std::move(copy));
    if (!st.ok()) return ledger->Fail("create: " + st.message());
    Service::CertainAnswersRequest page;
    page.database = DbName(d);
    page.prepared = fx->answers;
    page.page_size = in.answers.page_size;
    auto first = fx->service->CertainAnswers(page);
    if (!first.ok()) return ledger->Fail("warm-up page");
    for (size_t i = 0; i < in.scan.size(); ++i) {
      Service::SolveRequest req;
      req.database = DbName(d);
      req.prepared = fx->scan[i];
      if (!CheckReplies({fx->service->Solve(req)}, {in.scan[i]}, ledger)) {
        return false;
      }
    }
    fx->base_epoch.push_back(first->epoch);
  }
  return true;
}

/// One iteration of caller `d` against its database: the Boolean scan
/// and its twin, delta, first page — each checked. `tracer` (nullable)
/// gets one span per Service call.
void Iterate(const Inputs& in, Fixture* fx, int d, uint64_t* epoch,
             EndToEnd* run, Ledger* ledger, Tracer* tracer) {
  const AnswerStream& stream = in.answers;
  const std::string db = DbName(d);
  const uint64_t base = fx->base_epoch[d];
  for (size_t i = 0; i < in.scan.size(); ++i) {
    Service::SolveRequest req;
    req.database = db;
    req.prepared = fx->scan[i];
    if (TimedSolve(fx->service.get(), req, in.scan[i], &run->solve, ledger,
                   tracer)) {
      ++run->completed;
    }
  }
  {
    Service::DeltaRequest req;
    req.database = db;
    req.delta = stream.deltas[(*epoch - base) % stream.period()];
    ++ledger->attempted;
    Clock::time_point t = Clock::now();
    cqa::Result<Service::DeltaResponse> r = [&] {
      ScopedSpan span(tracer, "serve.apply_delta");
      return fx->service->ApplyDelta(req);
    }();
    double us = MicrosSince(t);
    if (!r.ok()) {
      ledger->Fail("delta: " + r.status().message());
    } else {
      *epoch = r->epoch;
      run->delta.Add(us);
      ++run->completed;
    }
  }
  {
    Service::CertainAnswersRequest req;
    req.database = db;
    req.prepared = fx->answers;
    req.page_size = stream.page_size;
    ++ledger->attempted;
    Clock::time_point t = Clock::now();
    cqa::Result<Service::CertainAnswersResponse> r = [&] {
      ScopedSpan span(tracer, "serve.first_page");
      return fx->service->CertainAnswers(req);
    }();
    double us = MicrosSince(t);
    if (!r.ok()) {
      ledger->Fail("answers: " + r.status().message());
      return;
    }
    const AnswerStream::Expected& want = stream.At(r->epoch, base);
    if (r->total_rows != want.total ||
        RowsFingerprint(r->rows, 0, r->rows.size()) != want.page0) {
      ledger->Mismatch("answers page at epoch " + std::to_string(r->epoch));
    } else {
      run->answers.Add(us);
      ++run->completed;
    }
  }
}

void PrintWork(const Service& service) {
  auto stats = service.Stats({});
  if (!stats.ok()) return;
  const cqa::Session::Stats& s = stats->session;
  std::printf("work: answers_full=%llu answers_incremental=%llu "
              "answers_cached=%llu rows_decided=%llu parallel_chunks=%llu "
              "deltas=%llu\n",
              static_cast<unsigned long long>(s.answers_full),
              static_cast<unsigned long long>(s.answers_incremental),
              static_cast<unsigned long long>(s.answers_cached),
              static_cast<unsigned long long>(s.rows_decided),
              static_cast<unsigned long long>(s.parallel_chunks),
              static_cast<unsigned long long>(s.deltas_applied));
}

}  // namespace

int RunAnswersFull(const Args& args) {
  Inputs in = MakeInputs(args.seed);
  Ledger ledger;
  EndToEnd run;
  Fixture fx;
  const std::vector<int> cpus = AllowedCpus();
  int pinned = 0;
  for (int i = 0; i < kSetups; ++i) {
    fx = Fixture();
    Clock::time_point t = Clock::now();
    if (!SetUp(in, kCallers, kWorkers, cpus, &fx, &ledger, &pinned)) {
      return PrintResult(ledger, {});
    }
    run.setup_s.push_back(SecondsSince(t));
    PauseBetweenSetups();
  }
  std::vector<PerCaller> per(kCallers);
  run.host_before = SampleHost();
  run.measured_s = RunClosedLoop(
      kCallers, args.seconds, [&](int d, const std::atomic<bool>& stop) {
        std::optional<ScopedPin> pin;
        if (!cpus.empty()) pin.emplace(CpuOf(cpus, d));
        per[d].pinned = pin && pin->ok();
        uint64_t epoch = fx.base_epoch[d];
        while (!stop.load()) {
          Iterate(in, &fx, d, &epoch, &per[d].run, &per[d].ledger, nullptr);
        }
      });
  run.host_after = SampleHost();
  MergeCallers(per, &run, &ledger);
  PrintRunShape(kName, kCallers, 0, kCallers * kWorkers, run);
  PrintPinning(per, pinned, cpus.size());
  DumpSamples(args, run);
  PrintWork(*fx.service);
  return PrintResult(ledger, EndToEndMetrics(run));
}

LayerReport ReplayAnswersFull(const Args& args, Tracer* tracer, int requests,
                              Ledger* ledger) {
  LayerReport report;
  Inputs in = MakeInputs(args.seed);
  Fixture fx;
  int pinned = 0;
  if (!SetUp(in, 1, kTracedWorkers, {}, &fx, ledger, &pinned)) return report;
  // Direct calls into cq and fo run on plain copies of the two database
  // states the delta stream alternates between.
  auto plan = cqa::QueryPlan::Compile(in.answers.query, in.answers.free_vars);
  if (!plan.ok()) {
    ledger->Fail("compile");
    return report;
  }
  std::vector<Database> states = {in.db, in.db};
  (void)cqa::ApplyDeltaToDatabase(in.answers.deltas[0], &states[1]);
  std::vector<std::unique_ptr<cqa::EvalContext>> ctx;
  for (const Database& db : states) {
    ctx.push_back(std::make_unique<cqa::EvalContext>(db));
    (void)cqa::CollectProjectionsSorted(ctx.back()->fact_index(),
                                        in.answers.query, cqa::Valuation(),
                                        in.answers.free_vars);  // warm
  }
  auto before = fx.service->Stats({});
  EndToEnd sink;
  uint64_t epoch = fx.base_epoch[0];
  uint64_t rows = 0;
  uint64_t computes = 0;
  double decide_ns = 0;
  ReplayAlternating(
      tracer, requests, 1, 0,
      [&](int) { Iterate(in, &fx, 0, &epoch, &sink, ledger, tracer); },
      [&](int) {
        cqa::EvalContext& state = *ctx[(epoch - fx.base_epoch[0]) % 2];
        std::vector<std::vector<cqa::SymbolId>> candidates;
        {
          ScopedSpan span(tracer, "cq.enumerate");
          candidates = cqa::CollectProjectionsSorted(
              state.fact_index(), in.answers.query, cqa::Valuation(),
              in.answers.free_vars);
        }
        Clock::time_point d = Clock::now();
        {
          ScopedSpan span(tracer, "fo.decide_rows");
          (void)(*plan)->IsCertainRows(state, candidates);
        }
        decide_ns += MicrosSince(d) * 1000.0;
        rows += candidates.size();
        ++computes;
      },
      &report);
  auto after = fx.service->Stats({});
  if (!before.ok() || !after.ok()) {
    ledger->Fail("stats");
    return report;
  }
  const ServeCounts serves(before->session, after->session);
  // Every iteration serves one first page.
  const uint64_t pages = 2 * static_cast<uint64_t>(requests);
  report.metrics = {
      {"serve.first_page_us", MeanSelfUs(*tracer, kName, "serve.first_page"),
       "us"},
      {"serve.parallel_chunks", Ratio(serves.chunks, pages), "chunks/page"},
      {"cq.enumerate_us", MeanSelfUs(*tracer, kName, "cq.enumerate"), "us"},
      {"cq.candidate_rows", Ratio(rows, computes), "count"},
      {"fo.decide_rows_us", MeanSelfUs(*tracer, kName, "fo.decide_rows"),
       "us"},
      {"fo.ns_per_row", rows ? decide_ns / static_cast<double>(rows) : 0,
       "ns/row"},
  };
  std::printf("ratio base: answers_full serve.cache_hit_ratio = %llu cached "
              "/ %llu serves; serve.parallel_chunks = %llu chunks / %llu "
              "first pages\n",
              static_cast<unsigned long long>(serves.cached),
              static_cast<unsigned long long>(serves.serves()),
              static_cast<unsigned long long>(serves.chunks),
              static_cast<unsigned long long>(pages));
  report.work = {
      {"answers_full", serves.full},
      {"answers_cached", serves.cached},
      {"rows_decided", serves.decided},
      {"candidate_rows", rows},
      {"parallel_chunks", serves.chunks},
      {"deltas", after->session.deltas_applied -
                     before->session.deltas_applied},
  };
  return report;
}

}  // namespace perfbench
