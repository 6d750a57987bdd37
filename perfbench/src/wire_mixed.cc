// wire_mixed: the protocol path. A self-hosted net::Server over
// loopback with four client connections on four threads, each running
// the same closed-loop mix: a prepared Solve, an ad-hoc Solve (which
// goes through Canonicalize and a plan-cache hit), a CertainAnswers
// first page plus one continuation from a warm answer cache, and a
// small delta to a relation no query reads. Each request does very
// little query work, so framing, the codec, the poll/executor hops and
// the Service front door dominate. Four connections keep the vCPUs
// busy; one connection lets them idle, which makes latency noisy.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "cq/parser.h"
#include "inputs.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "net/wire.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqa::Database;
using cqa::Service;
namespace net = cqa::net;

constexpr const char* kName = "wire_mixed";
constexpr const char* kDb = "wire";
constexpr int kClients = 4;
constexpr int kExecutors = 4;
constexpr int kWorkers = 2;
constexpr int kPBlocks = 1024;
constexpr int kAdHoc = 16;
constexpr int kDeltaKeys = 64;  // L-blocks per client
constexpr int kSetups = 15;
constexpr int kTaxRequests = 2000;

struct Inputs {
  Database db;
  AnswerStream answers;  // no deltas: the mix never touches P or Q
  cqa::Query prepared;
  std::vector<cqa::Query> adhoc;
  bool prepared_certain = false;
  std::vector<bool> adhoc_certain;
};

std::string DeltaKey(int client, int k) {
  return "l" + std::to_string(client) + "_" + std::to_string(k);
}

/// The delta of client `c`'s n-th delta step: rewrite one of its own
/// L-blocks, alternating two values pass by pass. Always valid, and no
/// two clients touch the same block.
cqa::Delta DeltaFor(int c, uint64_t n) {
  int k = static_cast<int>(n % kDeltaKeys);
  std::string value = (n / kDeltaKeys) % 2 == 0 ? "b" : "a";
  cqa::Delta d;
  d.ReplaceBlock(cqa::InternSymbol("L"), {cqa::InternSymbol(DeltaKey(c, k))},
                 {cqa::Fact::Make("L", {DeltaKey(c, k), value}, 1)});
  return d;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  cqa::Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  AddPinnedAnswers("W", kPBlocks, 0, 1, true, &rng, &in.db, &in.answers);
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < kDeltaKeys; ++k) {
      MustAdd(&in.db, cqa::Fact::Make("L", {DeltaKey(c, k), "a"}, 1));
    }
  }
  ComputeExpected(in.db, &in.answers);
  in.prepared = cqa::MustParseQuery("PW(x | y), QW(y | z)");
  in.prepared_certain = ExpectedVerdict(in.prepared, in.db);
  for (int i = 0; i < kAdHoc; ++i) {
    int block = static_cast<int>(rng.Below(kPBlocks));
    in.adhoc.push_back(cqa::MustParseQuery(
        "PW('xW_" + std::to_string(block) + "' | y), QW(y | z)"));
    in.adhoc_certain.push_back(ExpectedVerdict(in.adhoc.back(), in.db));
  }
  return in;
}

/// The serving stack of one set-up. Torn down clients first, then the
/// server (which joins its threads), then the service they call into.
struct Fixture {
  Fixture() = default;
  ~Fixture() {
    clients.clear();
    server.reset();
    service.reset();
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::unique_ptr<Service> service;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::string prepared_id;     // minted by the server
  std::string answers_id;
};

net::ClientOptions ClientOpts() {
  net::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 10000;
  options.max_attempts = 3;
  options.client_name = "perfbench";
  return options;
}

bool SetUp(const Inputs& in, Fixture* fx, Ledger* ledger) {
  Database copy = in.db;
  Service::Options service_options;
  service_options.num_threads = kWorkers;
  fx->service = std::make_unique<Service>(service_options);
  cqa::Status st = fx->service->CreateDatabase(kDb, std::move(copy));
  if (!st.ok()) return ledger->Fail("create: " + st.message());
  net::Server::Options options;
  options.num_executors = kExecutors;
  options.sample_metrics = false;
  fx->server = std::make_unique<net::Server>(fx->service.get(), options);
  st = fx->server->Start();
  if (!st.ok()) return ledger->Fail("server: " + st.message());
  for (int c = 0; c < kClients; ++c) {
    fx->clients.push_back(std::make_unique<net::Client>(ClientOpts()));
    st = fx->clients.back()->Connect("127.0.0.1", fx->server->port());
    if (!st.ok()) return ledger->Fail("connect: " + st.message());
  }
  net::PrepareRequest prep;
  prep.query = in.prepared;
  auto prepared = fx->clients[0]->Prepare(prep);
  net::PrepareRequest prep_answers;
  prep_answers.query = in.answers.query;
  prep_answers.free_vars = {"x"};
  auto answers = fx->clients[0]->Prepare(prep_answers);
  if (!prepared.ok() || !answers.ok()) return ledger->Fail("prepare");
  fx->prepared_id = prepared->prepared_id;
  fx->answers_id = answers->prepared_id;
  // Warm every ad-hoc plan and the answer cache.
  for (const cqa::Query& q : in.adhoc) {
    net::SolveCall call;
    call.database = kDb;
    call.query = q;
    if (!fx->clients[0]->Solve(call).ok()) return ledger->Fail("warm");
  }
  net::CertainAnswersCall page;
  page.database = kDb;
  page.prepared_id = fx->answers_id;
  page.page_size = in.answers.page_size;
  if (!fx->clients[0]->CertainAnswers(page).ok()) {
    return ledger->Fail("warm page");
  }
  return true;
}

struct ClientRun {
  Samples solve, answers, next_page, delta;
  uint64_t completed = 0;
  uint64_t deltas = 0;  // delta steps taken (the model replays them)
  Ledger ledger;
};

void CheckPage(const Inputs& in, const net::CertainAnswersReply& reply,
               uint64_t want_fp, Ledger* ledger) {
  const AnswerStream::Expected& want = in.answers.expected[0];
  if (reply.total_rows != want.total ||
      RowsFingerprint(reply.rows, 0, reply.rows.size()) != want_fp) {
    ledger->Mismatch("answers page");
  }
}

/// Client `c`'s n-th step of the mix, over its own connection.
void Step(const Inputs& in, const Fixture& fx, net::Client* client, int c,
          uint64_t n, ClientRun* out) {
  Ledger& ledger = out->ledger;
  uint64_t failed_before = ledger.failed;
  ++ledger.attempted;
  Clock::time_point t = Clock::now();
  switch (n % 4) {
    case 0:
    case 1: {
      net::SolveCall call;
      call.database = kDb;
      bool want = in.prepared_certain;
      if (n % 4 == 0) {
        call.prepared_id = fx.prepared_id;
      } else {
        size_t q = (static_cast<size_t>(c) * 7 + n / 4) % in.adhoc.size();
        call.query = in.adhoc[q];
        want = in.adhoc_certain[q];
      }
      auto r = client->Solve(call);
      double us = MicrosSince(t);
      if (!r.ok()) {
        ledger.Fail("solve: " + r.status().message());
      } else if (r->certain != want) {
        ledger.Mismatch("verdict");
      } else {
        out->solve.Add(us);
      }
      break;
    }
    case 2: {
      net::CertainAnswersCall call;
      call.database = kDb;
      call.prepared_id = fx.answers_id;
      call.page_size = in.answers.page_size;
      auto first = client->CertainAnswers(call);
      double us = MicrosSince(t);
      if (!first.ok()) {
        ledger.Fail("answers: " + first.status().message());
        break;
      }
      CheckPage(in, *first, in.answers.expected[0].page0, &ledger);
      if (ledger.failed != failed_before) break;
      out->answers.Add(us);
      if (first->next_page_token.empty()) break;
      ++out->completed;
      ++ledger.attempted;
      net::CertainAnswersCall next;
      next.database = kDb;
      next.page_token = first->next_page_token;
      Clock::time_point t2 = Clock::now();
      auto second = client->CertainAnswers(next);
      double us2 = MicrosSince(t2);
      if (!second.ok()) {
        ledger.Fail("next page: " + second.status().message());
        break;
      }
      CheckPage(in, *second, in.answers.expected[0].page1, &ledger);
      out->next_page.Add(us2);
      break;
    }
    default: {
      net::ApplyDeltaCall call;
      call.database = kDb;
      call.delta = DeltaFor(c, out->deltas);
      auto r = client->ApplyDelta(call);
      double us = MicrosSince(t);
      ++out->deltas;
      if (!r.ok()) {
        ledger.Fail("delta: " + r.status().message());
      } else {
        out->delta.Add(us);
      }
      break;
    }
  }
  if (ledger.failed == failed_before) ++out->completed;
}

/// Checks the L relation the service ends with against a model: the
/// initial database with every client's delta steps applied through
/// ApplyDeltaToDatabase.
void CheckDeltaModel(const Inputs& in, Service* service,
                     const std::vector<ClientRun>& runs, Ledger* ledger) {
  Database model = in.db;
  for (int c = 0; c < kClients; ++c) {
    for (uint64_t n = 0; n < runs[c].deltas; ++n) {
      cqa::Status st = cqa::ApplyDeltaToDatabase(DeltaFor(c, n), &model);
      if (!st.ok()) {
        ledger->Fail("delta model: " + st.message());
        return;
      }
    }
  }
  std::set<std::string> want;
  for (const cqa::Fact& f : model.facts()) {
    if (cqa::SymbolName(f.relation()) != "L") continue;
    want.insert(cqa::SymbolName(f.values()[0]) + "=" +
                cqa::SymbolName(f.values()[1]));
  }
  Service::CertainAnswersRequest req;
  req.database = kDb;
  req.query = cqa::MustParseQuery("L(k | v)");
  req.free_vars = {cqa::InternSymbol("k"), cqa::InternSymbol("v")};
  req.page_size = 4096;
  auto r = service->CertainAnswers(req);
  std::set<std::string> got;
  if (r.ok()) {
    for (const auto& row : r->rows) {
      got.insert(cqa::SymbolName(row[0]) + "=" + cqa::SymbolName(row[1]));
    }
  }
  if (!r.ok() || got != want) ledger->Mismatch("final L relation vs model");
}

}  // namespace

int RunWireMixed(const Args& args) {
  Inputs in = MakeInputs(args.seed);
  Ledger ledger;
  EndToEnd run;
  std::optional<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.emplace();
    Clock::time_point t = Clock::now();
    if (!SetUp(in, &*fx, &ledger)) return PrintResult(ledger, {});
    run.setup_s.push_back(SecondsSince(t));
    PauseBetweenSetups();
  }
  std::vector<ClientRun> runs(kClients);
  run.host_before = SampleHost();
  run.measured_s = RunClosedLoop(
      kClients, args.seconds, [&](int c, const std::atomic<bool>& stop) {
        for (uint64_t n = 0; !stop.load(); ++n) {
          Step(in, *fx, fx->clients[c].get(), c, n, &runs[c]);
        }
      });
  run.host_after = SampleHost();
  uint64_t retries = 0;
  for (int c = 0; c < kClients; ++c) {
    run.solve.Merge(runs[c].solve);
    run.answers.Merge(runs[c].answers);
    run.delta.Merge(runs[c].delta);
    run.other.Merge(runs[c].next_page);
    run.completed += runs[c].completed;
    ledger.Merge(runs[c].ledger);
    retries += fx->clients[c]->retries_total();
  }
  CheckDeltaModel(in, fx->service.get(), runs, &ledger);
  net::Server::Counters counters = fx->server->counters();
  PrintRunShape(kName, kClients, kExecutors, kWorkers, run);
  DumpSamples(args, run);
  std::printf("refused: shed_inflight=%llu shed_queue=%llu "
              "deadline_exceeded=%llu client_retries=%llu\n",
              static_cast<unsigned long long>(counters.shed_inflight),
              static_cast<unsigned long long>(counters.shed_queue),
              static_cast<unsigned long long>(counters.deadline_exceeded),
              static_cast<unsigned long long>(retries));
  std::printf("work: wire_bytes_read=%llu wire_bytes_written=%llu "
              "requests=%llu next_page_p50_us=%.1f\n",
              static_cast<unsigned long long>(counters.bytes_read),
              static_cast<unsigned long long>(counters.bytes_written),
              static_cast<unsigned long long>(counters.requests),
              Median(run.other.us));
  std::vector<Metric> metrics = EndToEndMetrics(run);
  fx.reset();
  return PrintResult(ledger, metrics);
}

LayerReport ReplayWireMixed(const Args& args, Tracer* tracer, int requests,
                            Ledger* ledger) {
  LayerReport report;
  Inputs in = MakeInputs(args.seed);
  Database copy = in.db;
  Service::Options service_options;
  service_options.num_threads = kWorkers;
  Service service(service_options);
  if (!service.CreateDatabase(kDb, std::move(copy)).ok()) {
    ledger->Fail("create");
    return report;
  }
  auto prepared = service.Prepare(in.prepared);
  auto answers = service.Prepare(in.answers.query, in.answers.free_vars);
  if (!prepared.ok() || !answers.ok()) {
    ledger->Fail("prepare");
    return report;
  }
  // The benchmark's own warm plan cache times the ad-hoc hit path, and a
  // plain copy of the database the direct FO solves (the mix never
  // touches the relations those queries read).
  cqa::PlanCache cache;
  for (const cqa::Query& q : in.adhoc) (void)cache.GetOrCompile(q);
  cqa::EvalContext ctx(in.db);
  for (const cqa::Query& q : in.adhoc) {
    (void)(*cache.GetOrCompile(q))->Solve(ctx);
  }
  auto before = service.Stats({});
  uint64_t frame_bytes = 0;
  uint64_t frames = 0;
  uint64_t deltas = 0;
  // Encode, frame, parse and decode one message: the codec and framing
  // work one hop of the wire protocol does on both ends.
  auto wire_hop = [&](uint8_t verb, const std::string& payload) {
    std::string frame;
    {
      ScopedSpan span(tracer, "net.frame");
      net::AppendFrame(&frame, verb, 1, payload);
      net::Frame parsed;
      std::string error;
      if (net::TryParseFrame(&frame, &parsed, &error) !=
          net::ParseResult::kOk) {
        ledger->Fail("frame: " + error);
      }
    }
    frame_bytes += payload.size() + net::kHeaderSize + net::kTrailerSize;
    ++frames;
  };
  auto encode = [&](auto fn) {
    std::string payload;
    net::Writer w(&payload);
    {
      ScopedSpan span(tracer, "net.codec");
      fn(&w);
    }
    return payload;
  };
  // Spans alternate off and on one mix cycle (four requests) at a time.
  std::shared_ptr<const cqa::QueryPlan> probe_plan;
  ReplayAlternating(
      tracer, requests, 4, 0,
      [&](int i) {
        probe_plan = nullptr;
        ++ledger->attempted;
        uint64_t n = static_cast<uint64_t>(i);
        switch (n % 4) {
          case 0:
          case 1: {
            net::SolveCall call;
            call.database = kDb;
            Service::SolveRequest req;
            req.database = kDb;
            size_t q = (n / 4) % in.adhoc.size();
            bool want = in.prepared_certain;
            if (n % 4 == 0) {
              call.prepared_id = (*prepared)->id();
              req.prepared = *prepared;
            } else {
              call.query = in.adhoc[q];
              req.query = in.adhoc[q];
              want = in.adhoc_certain[q];
            }
            std::string payload =
                encode([&](net::Writer* w) { net::EncodeSolveCall(w, call); });
            wire_hop(static_cast<uint8_t>(net::Verb::kSolve), payload);
            {
              ScopedSpan span(tracer, "net.codec");
              net::Reader r(payload);
              (void)net::DecodeSolveCall(&r);
            }
            if (n % 4 == 1) {
              ScopedSpan span(tracer, "plan.lookup");
              (void)cache.GetOrCompile(in.adhoc[q]);
            }
            cqa::Result<Service::SolveResponse> r = [&] {
              ScopedSpan span(tracer, "serve.solve");
              return service.Solve(req);
            }();
            if (!r.ok()) {
              ledger->Fail("solve: " + r.status().message());
              break;
            }
            if (r->outcome.certain != want) ledger->Mismatch("verdict");
            net::SolveReply reply;
            reply.certain = r->outcome.certain;
            reply.solver_kind = cqa::ToString(r->outcome.solver);
            reply.epoch = r->epoch;
            std::string out = encode(
                [&](net::Writer* w) { net::EncodeSolveReply(w, reply); });
            wire_hop(
                static_cast<uint8_t>(net::Verb::kSolve) | net::kResponseBit,
                out);
            {
              ScopedSpan span(tracer, "net.codec");
              net::Reader rd(out);
              (void)net::DecodeSolveReply(&rd);
            }
            probe_plan = n % 4 == 0 ? (*prepared)->plan()
                                    : *cache.GetOrCompile(in.adhoc[q]);
            break;
          }
          case 2: {
            Service::CertainAnswersRequest req;
            req.database = kDb;
            req.prepared = *answers;
            req.page_size = in.answers.page_size;
            net::CertainAnswersCall call;
            call.database = kDb;
            call.prepared_id = (*answers)->id();
            call.page_size = req.page_size;
            std::string payload = encode([&](net::Writer* w) {
              net::EncodeCertainAnswersCall(w, call);
            });
            wire_hop(static_cast<uint8_t>(net::Verb::kCertainAnswers), payload);
            cqa::Result<Service::CertainAnswersResponse> first = [&] {
              ScopedSpan span(tracer, "serve.first_page");
              return service.CertainAnswers(req);
            }();
            if (!first.ok()) {
              ledger->Fail("answers: " + first.status().message());
              break;
            }
            net::CertainAnswersReply reply;
            reply.rows = first->rows;
            reply.next_page_token = first->next_page_token;
            reply.total_rows = first->total_rows;
            reply.epoch = first->epoch;
            std::string out = encode([&](net::Writer* w) {
              net::EncodeCertainAnswersReply(w, reply);
            });
            wire_hop(static_cast<uint8_t>(net::Verb::kCertainAnswers) |
                         net::kResponseBit,
                     out);
            CheckPage(in, reply, in.answers.expected[0].page0, ledger);
            if (first->next_page_token.empty()) break;
            Service::CertainAnswersRequest next;
            next.database = kDb;
            next.page_token = first->next_page_token;
            cqa::Result<Service::CertainAnswersResponse> second = [&] {
              ScopedSpan span(tracer, "serve.next_page");
              return service.CertainAnswers(next);
            }();
            if (!second.ok()) {
              ledger->Fail("next page: " + second.status().message());
              break;
            }
            reply.rows = second->rows;
            CheckPage(in, reply, in.answers.expected[0].page1, ledger);
            break;
          }
          default: {
            net::ApplyDeltaCall call;
            call.database = kDb;
            call.delta = DeltaFor(0, deltas++);
            std::string payload = encode(
                [&](net::Writer* w) { net::EncodeApplyDeltaCall(w, call); });
            wire_hop(static_cast<uint8_t>(net::Verb::kApplyDelta), payload);
            {
              ScopedSpan span(tracer, "net.codec");
              net::Reader r(payload);
              (void)net::DecodeApplyDeltaCall(&r);
            }
            Service::DeltaRequest req;
            req.database = kDb;
            req.delta = call.delta;
            cqa::Result<Service::DeltaResponse> r = [&] {
              ScopedSpan span(tracer, "serve.apply_delta");
              return service.ApplyDelta(req);
            }();
            if (!r.ok()) ledger->Fail("delta: " + r.status().message());
            break;
          }
        }
      },
      [&](int) {
        if (probe_plan == nullptr) return;
        ScopedSpan span(tracer, "fo.bool_solve");
        (void)probe_plan->Solve(ctx);
      },
      &report);
  auto after = service.Stats({});

  // Wire tax: the same prepared Solve in process and over loopback,
  // alternated so both sides see the same host.
  net::Server::Options server_options;
  server_options.num_executors = kExecutors;
  server_options.sample_metrics = false;
  net::Server server(&service, server_options);
  net::Client client(ClientOpts());
  Samples local, remote;
  uint64_t retries = 0;
  uint64_t shed = 0;
  if (!server.Start().ok() ||
      !client.Connect("127.0.0.1", server.port()).ok()) {
    ledger->Fail("tax server");
  } else {
    net::PrepareRequest prep;
    prep.query = in.prepared;
    auto id = client.Prepare(prep);
    for (int i = 0; id.ok() && i < kTaxRequests; ++i) {
      Service::SolveRequest req;
      req.database = kDb;
      req.prepared = *prepared;
      Clock::time_point t = Clock::now();
      auto a = service.Solve(req);
      local.Add(MicrosSince(t));
      net::SolveCall call;
      call.database = kDb;
      call.prepared_id = id->prepared_id;
      t = Clock::now();
      auto b = client.Solve(call);
      remote.Add(MicrosSince(t));
      if (!a.ok() || !b.ok()) ledger->Fail("tax solve");
    }
    retries = client.retries_total();
    net::Server::Counters counters = server.counters();
    shed = counters.shed_inflight + counters.shed_queue;
    client.Close();
    server.Stop();
  }
  if (!before.ok() || !after.ok()) {
    ledger->Fail("stats");
    return report;
  }
  const ServeCounts serves(before->session, after->session);
  uint64_t hits = after->plan_cache.hits - before->plan_cache.hits;
  uint64_t misses = after->plan_cache.misses - before->plan_cache.misses;
  std::printf("ratio base: wire_mixed plan.cache_hit_ratio = %llu hits / "
              "%llu lookups; serve.cache_hit_ratio = %llu cached / %llu "
              "serves; serve.rows_reused_ratio = %llu reused / %llu; "
              "net.wire_tax_us over %d solves each side\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(hits + misses),
              static_cast<unsigned long long>(serves.cached),
              static_cast<unsigned long long>(serves.serves()),
              static_cast<unsigned long long>(serves.reused),
              static_cast<unsigned long long>(serves.reused + serves.decided),
              kTaxRequests);
  double solve = MeanSelfUs(*tracer, kName, "serve.solve");
  double direct = MeanSelfUs(*tracer, kName, "fo.bool_solve");
  // Per request: codec and frame spans summed over the request's hops.
  uint64_t reqs = static_cast<uint64_t>(requests);
  Tracer::Totals codec = tracer->Get(kName, "net.codec");
  Tracer::Totals frame = tracer->Get(kName, "net.frame");
  report.metrics = {
      {"net.codec_us", codec.self_us / static_cast<double>(reqs), "us"},
      {"net.frame_us", frame.self_us / static_cast<double>(reqs), "us"},
      {"net.bytes_per_req", static_cast<double>(frame_bytes) / (2.0 * reqs),
       "bytes"},
      {"net.wire_tax_us", Quantile(remote.us, 0.5) - Quantile(local.us, 0.5),
       "us"},
      {"net.shed", static_cast<double>(shed), "count"},
      {"net.retries", static_cast<double>(retries), "count"},
      {"plan.lookup_us", MeanSelfUs(*tracer, kName, "plan.lookup"), "us"},
      {"plan.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"serve.solve_us", solve, "us"},
      {"serve.dispatch_us", solve - direct, "us"},
      {"serve.first_page_us", MeanSelfUs(*tracer, kName, "serve.first_page"),
       "us"},
      {"serve.next_page_us", MeanSelfUs(*tracer, kName, "serve.next_page"),
       "us"},
      {"serve.cache_hit_ratio", serves.cache_hit_ratio(), "ratio"},
      {"serve.rows_reused_ratio", serves.rows_reused_ratio(), "ratio"},
      {"fo.bool_solve_us", direct, "us"},
  };
  report.work = {
      {"frames", frames},
      {"frame_bytes", frame_bytes},
      {"plan_cache_hits", hits},
      {"answers_cached", serves.cached},
      {"answers_incremental", serves.incremental},
      {"deltas", after->session.deltas_applied -
                     before->session.deltas_applied},
  };
  return report;
}

}  // namespace perfbench
