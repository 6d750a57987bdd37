// frontier_solve: every side of the paper's frontier in one request. In
// process. Each request is one Service::SolveBatch holding two pinned
// handles per side (FO, terminal weak cycles, AC(3), C(4), and q0 on the
// SAT fallback): the side's query on its generated instance, and a twin
// on a renamed copy that is certain by construction, so a solver that
// wrongly answers either way fails the run. Every reply is also checked
// for the solver that answered it. One database is served by one
// session worker, so a request's latency is the sum over the classes and
// the median never falls between two groups of costs. Four callers each
// drive their own copy of that database (four databases of one Service,
// one worker each): a single core's speed on a shared host swings by up
// to a half for minutes at a time, four cores' average holds better.
// Each caller and its database's worker are pinned to one CPU of their
// own, so a request's hand-offs never cross CPUs and never wait for an
// idle vCPU to be woken, and which threads share a CPU is the same in
// every run.
// Set-up prepares a seeded catalog of random acyclic queries, which is
// where classification and rewriting are paid. A pinned answer set on
// relations the batch does not read carries the delta and answers
// classes.

#include <cstdio>
#include <memory>
#include <optional>

#include "core/classifier.h"
#include "fo/rewriter.h"
#include "gen/query_gen.h"
#include "inputs.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqa::Database;
using cqa::Service;

constexpr const char* kName = "frontier_solve";
constexpr int kCallers = 4;  // one database each
constexpr int kWorkers = 1;  // per database
constexpr int kFoBlocks = 4096;
constexpr int kCycleBlocks = 3;
constexpr int kLayerSize = 4;
constexpr int kSideBlocks = 256;
constexpr int kSideToggled = 8;
constexpr int kSidePerDelta = 4;
constexpr int kCatalog = 48;
constexpr int kSetups = 15;
constexpr int kClasses = 5;
// Per class; batch slots 2c and 2c + 1 are class c's query and its twin.
const char* const kClassSpan[kClasses] = {
    "fo.bool_solve", "solvers.terminal_cycles", "solvers.ack", "solvers.ck",
    "solvers.sat"};

struct Inputs {
  Database db;
  std::vector<BoolQuery> batch;
  AnswerStream side;
  std::vector<cqa::Query> catalog;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  cqa::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  in.batch = AddFrontier(kFoBlocks, kCycleBlocks, kLayerSize, &rng, &in.db);
  // The side set is consistent apart from its toggled blocks: every
  // conflicting block adds a SAT decision to the q0 solve.
  AddPinnedAnswers("F", kSideBlocks, kSideToggled, kSidePerDelta, false,
                   &rng, &in.db, &in.side);
  ComputeExpected(in.db, &in.side);
  FillVerdicts(in.db, &in.batch);
  for (int i = 0; i < kCatalog; ++i) {
    cqa::QueryGenOptions options;
    options.num_atoms = 3 + static_cast<int>(rng.Below(3));
    options.max_arity = 4;
    options.seed = rng.Next();
    in.catalog.push_back(cqa::RandomAcyclicQuery(options));
  }
  return in;
}

std::string DbName(int caller) { return "frontier" + std::to_string(caller); }

struct Fixture {
  std::unique_ptr<Service> service;
  std::vector<cqa::PreparedQueryHandle> batch;
  cqa::PreparedQueryHandle side;
  std::vector<uint64_t> base_epoch;  // per database
};

/// `databases` copies of the frontier database, the catalog, the pinned
/// handles, and one warm batch and page per database. With `cpus`,
/// database d's worker is created, and its warm requests are sent,
/// pinned to CpuOf(cpus, d); `*pinned` counts the databases whose pin
/// held.
bool SetUp(const Inputs& in, int databases, const std::vector<int>& cpus,
           Fixture* fx, Ledger* ledger, int* pinned) {
  Service::Options options;
  options.num_threads = kWorkers;
  fx->service = std::make_unique<Service>(options);
  for (const cqa::Query& q : in.catalog) {
    if (!fx->service->Prepare(q).ok()) return ledger->Fail("catalog");
  }
  for (const BoolQuery& q : in.batch) {
    auto handle = fx->service->Prepare(q.query);
    if (!handle.ok()) return ledger->Fail("prepare batch");
    fx->batch.push_back(*handle);
  }
  auto side = fx->service->Prepare(in.side.query, in.side.free_vars);
  if (!side.ok()) return ledger->Fail("prepare side");
  fx->side = *side;
  *pinned = 0;
  for (int d = 0; d < databases; ++d) {
    std::optional<ScopedPin> pin;
    if (!cpus.empty()) pin.emplace(CpuOf(cpus, d));
    if (pin && pin->ok()) ++*pinned;
    Database copy = in.db;
    // The session's worker is created here and inherits the pin.
    cqa::Status st = fx->service->CreateDatabase(DbName(d), std::move(copy));
    if (!st.ok()) return ledger->Fail("create: " + st.message());
    std::vector<Service::SolveRequest> batch(fx->batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].database = DbName(d);
      batch[i].prepared = fx->batch[i];
    }
    if (!CheckReplies(fx->service->SolveBatch(batch), in.batch, ledger)) {
      return false;
    }
    Service::CertainAnswersRequest page;
    page.database = DbName(d);
    page.prepared = fx->side;
    page.page_size = in.side.page_size;
    auto first = fx->service->CertainAnswers(page);
    if (!first.ok()) return ledger->Fail("warm-up page");
    fx->base_epoch.push_back(first->epoch);
  }
  return true;
}

/// Work counts harvested from the batch replies.
struct Work {
  uint64_t sat_decisions = 0;
  uint64_t sat_clauses = 0;
  uint64_t batches = 0;
};

/// One iteration of caller `d` against its database: the batch, a side
/// delta, a side first page — each checked.
void Iterate(const Inputs& in, Fixture* fx, int d, uint64_t* epoch,
             EndToEnd* run, Ledger* ledger, Work* work, Tracer* tracer) {
  const std::string db = DbName(d);
  const uint64_t base = fx->base_epoch[d];
  {
    std::vector<Service::SolveRequest> batch(fx->batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].database = db;
      batch[i].prepared = fx->batch[i];
    }
    ++ledger->attempted;
    Clock::time_point t = Clock::now();
    std::vector<cqa::Result<Service::SolveResponse>> replies = [&] {
      ScopedSpan span(tracer, "serve.solve");
      return fx->service->SolveBatch(batch);
    }();
    double us = MicrosSince(t);
    if (CheckReplies(replies, in.batch, ledger)) {
      for (const auto& r : replies) {
        work->sat_decisions += r->outcome.sat_decisions;
        work->sat_clauses += r->outcome.sat_clauses;
      }
      run->solve.Add(us);
      ++run->completed;
      ++work->batches;
    }
  }
  {
    Service::DeltaRequest req;
    req.database = db;
    req.delta = in.side.deltas[(*epoch - base) % in.side.period()];
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
    req.prepared = fx->side;
    req.page_size = in.side.page_size;
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
    const AnswerStream::Expected& want = in.side.At(r->epoch, base);
    if (r->total_rows != want.total ||
        RowsFingerprint(r->rows, 0, r->rows.size()) != want.page0) {
      ledger->Mismatch("side answers at epoch " + std::to_string(r->epoch));
    } else {
      run->answers.Add(us);
      ++run->completed;
    }
  }
}

}  // namespace

int RunFrontierSolve(const Args& args) {
  Inputs in = MakeInputs(args.seed);
  Ledger ledger;
  EndToEnd run;
  Fixture fx;
  const std::vector<int> cpus = AllowedCpus();
  int pinned = 0;
  for (int i = 0; i < kSetups; ++i) {
    fx = Fixture();
    Clock::time_point t = Clock::now();
    if (!SetUp(in, kCallers, cpus, &fx, &ledger, &pinned)) {
      return PrintResult(ledger, {});
    }
    run.setup_s.push_back(SecondsSince(t));
    PauseBetweenSetups();
  }
  std::vector<PerCaller> per(kCallers);
  std::vector<Work> works(kCallers);
  run.host_before = SampleHost();
  run.measured_s = RunClosedLoop(
      kCallers, args.seconds, [&](int d, const std::atomic<bool>& stop) {
        std::optional<ScopedPin> pin;
        if (!cpus.empty()) pin.emplace(CpuOf(cpus, d));
        per[d].pinned = pin && pin->ok();
        uint64_t epoch = fx.base_epoch[d];
        while (!stop.load()) {
          Iterate(in, &fx, d, &epoch, &per[d].run, &per[d].ledger,
                  &works[d], nullptr);
        }
      });
  run.host_after = SampleHost();
  MergeCallers(per, &run, &ledger);
  Work work;
  for (const Work& w : works) {
    work.sat_decisions += w.sat_decisions;
    work.sat_clauses += w.sat_clauses;
    work.batches += w.batches;
  }
  PrintRunShape(kName, kCallers, 0, kCallers * kWorkers, run);
  PrintPinning(per, pinned, cpus.size());
  DumpSamples(args, run);
  std::printf("work per batch: sat_decisions=%llu sat_clauses=%llu "
              "(batches=%llu)\n",
              static_cast<unsigned long long>(
                  work.batches ? work.sat_decisions / work.batches : 0),
              static_cast<unsigned long long>(
                  work.batches ? work.sat_clauses / work.batches : 0),
              static_cast<unsigned long long>(work.batches));
  return PrintResult(ledger, EndToEndMetrics(run));
}

LayerReport ReplayFrontierSolve(const Args& args, Tracer* tracer,
                                int requests, Ledger* ledger) {
  LayerReport report;
  Inputs in = MakeInputs(args.seed);
  // Compile-time layers over the catalog: the work set-up pays.
  uint64_t fo_rewritten = 0;
  for (size_t i = 0; i < in.catalog.size(); ++i) {
    tracer->BeginRequest(i);
    ScopedSpan root(tracer, "catalog");
    {
      ScopedSpan span(tracer, "plan.compile");
      (void)cqa::QueryPlan::Compile(in.catalog[i]);
    }
    cqa::Result<cqa::Classification> c = [&] {
      ScopedSpan span(tracer, "core.classify");
      return cqa::ClassifyQuery(in.catalog[i]);
    }();
    if (c.ok() && c->complexity == cqa::ComplexityClass::kFirstOrder) {
      ScopedSpan span(tracer, "fo.rewrite");
      (void)cqa::CertainRewriting(in.catalog[i]);
      ++fo_rewritten;
    }
  }
  Fixture fx;
  int pinned = 0;
  if (!SetUp(in, 1, {}, &fx, ledger, &pinned)) return report;
  // Direct solves of the same plans on a plain copy of the database (the
  // batch never reads the side relations the deltas touch).
  std::vector<std::shared_ptr<const cqa::QueryPlan>> plans;
  for (const auto& handle : fx.batch) plans.push_back(handle->plan());
  cqa::EvalContext ctx(in.db);
  for (const auto& plan : plans) (void)plan->Solve(ctx);
  uint64_t epoch = fx.base_epoch[0];
  EndToEnd sink;
  Work work;
  ReplayAlternating(
      tracer, requests, 1, 1000,
      [&](int) { Iterate(in, &fx, 0, &epoch, &sink, ledger, &work, tracer); },
      [&](int) {
        for (size_t i = 0; i < plans.size(); ++i) {
          ScopedSpan span(tracer, kClassSpan[i / 2]);
          (void)plans[i]->Solve(ctx);
        }
      },
      &report);
  // Per batch: both queries of a class, summed.
  auto per_batch_us = [&](const char* span) {
    return tracer->Get(kName, span).self_us / requests;
  };
  double direct = 0;
  for (const char* span : kClassSpan) direct += per_batch_us(span);
  std::printf("batch shares (base: %.1f us of direct solves per batch):",
              direct);
  for (const char* span : kClassSpan) {
    std::printf(" %s=%.1f%%", span, 100.0 * per_batch_us(span) / direct);
  }
  std::printf("\n");
  double solve = MeanSelfUs(*tracer, kName, "serve.solve");
  int64_t sat_decisions = 0;
  int64_t sat_clauses = 0;
  cqa::EvalContext sat_ctx(in.db);
  for (size_t i = 2 * (kClasses - 1); i < plans.size(); ++i) {
    auto sat = plans[i]->Solve(sat_ctx);
    if (!sat.ok()) {
      ledger->Fail("direct SAT solve");
      continue;
    }
    sat_decisions += sat->sat_decisions;
    sat_clauses += sat->sat_clauses;
  }
  report.metrics = {
      {"plan.compile_us", MeanSelfUs(*tracer, kName, "plan.compile"), "us"},
      {"core.classify_us", MeanSelfUs(*tracer, kName, "core.classify"), "us"},
      {"fo.rewrite_us", MeanSelfUs(*tracer, kName, "fo.rewrite"), "us"},
      {"serve.solve_us", solve, "us"},
      {"serve.dispatch_us", solve - direct, "us"},
      {"fo.bool_solve_us", per_batch_us("fo.bool_solve"), "us"},
      {"solvers.terminal_cycles_us", per_batch_us("solvers.terminal_cycles"),
       "us"},
      {"solvers.ack_us", per_batch_us("solvers.ack"), "us"},
      {"solvers.ck_us", per_batch_us("solvers.ck"), "us"},
      {"solvers.sat_us", per_batch_us("solvers.sat"), "us"},
      {"solvers.sat_decisions", static_cast<double>(sat_decisions), "count"},
      {"solvers.sat_clauses", static_cast<double>(sat_clauses), "count"},
  };
  report.work = {
      {"batches", work.batches},
      {"sat_decisions", work.sat_decisions},
      {"sat_clauses", work.sat_clauses},
      {"catalog_fo_rewritten", fo_rewritten},
  };
  return report;
}

}  // namespace perfbench
