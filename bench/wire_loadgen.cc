#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/service.h"
#include "util/status.h"

/// Wire-protocol load generator: N client threads drive a mixed
/// workload (prepared solves, ad-hoc solves, deltas, certain-answer
/// pagination) against a live server socket and report per-class
/// latency percentiles plus overall throughput.
///
/// Two modes:
///   * `--port=P [--host=H]` targets an already-running server (CI's
///     wire-smoke job starts examples/wire_server first);
///   * without `--port` the binary hosts an in-process Server on an
///     ephemeral port and load-tests itself — the full protocol path
///     over loopback with zero setup.
///
/// Results append to the same JSON line-record file the google-benchmark
/// binaries maintain (BENCH_results.json / $CQA_BENCH_JSON), replacing
/// this binary's previous records and leaving everyone else's intact.
/// The run also VALIDATES the kMetrics endpoint: missing counter
/// families fail the process, so CI catches a silently broken exporter.
///
/// Chaos mode (`--chaos-plan=delay|partial|drop|mixed [--chaos-seed=N]`,
/// CI's chaos-smoke job): client traffic is routed through an
/// in-process FaultInjectingTransport that injects the named faults
/// deterministically. Clients run with retries enabled; the run
/// asserts ZERO hangs and a live, coherent server afterwards, while
/// individual request failures are tolerated and reported (a dropped
/// non-idempotent verb must surface as an error, not a retry).

namespace {

using cqa::Atom;
using cqa::Database;
using cqa::Delta;
using cqa::Fact;
using cqa::Query;
using cqa::Service;
using cqa::Status;
using cqa::net::ApplyDeltaCall;
using cqa::net::CertainAnswersCall;
using cqa::net::Client;
using cqa::net::MetricsReply;
using cqa::net::PrepareRequest;
using cqa::net::PrepareResponse;
using cqa::net::Server;
using cqa::net::SolveCall;
using cqa::Result;

constexpr const char* kDatabase = "loadgen";

Database SeedDatabase() {
  Database db;
  // A conflicted block and a clean one (the Boolean traffic), plus a
  // violation-free paging relation.
  (void)db.AddFact(Fact::Make("R", {"k1", "v1"}, 1));
  (void)db.AddFact(Fact::Make("R", {"k1", "v2"}, 1));
  (void)db.AddFact(Fact::Make("R", {"k2", "v1"}, 1));
  for (int i = 0; i < 64; ++i) {
    (void)db.AddFact(Fact::Make("P", {"p" + std::to_string(i)}, 1));
  }
  return db;
}

Query CertainBoolQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("R", {"'k2", "'v1"}, 1));
  return Query(std::move(atoms));
}

Query UncertainBoolQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("R", {"'k1", "'v1"}, 1));
  return Query(std::move(atoms));
}

Query PagingQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("P", {"x"}, 1));
  return Query(std::move(atoms));
}

// ------------------------------------------------------------ workload

enum Class { kPrepared = 0, kAdHoc = 1, kDelta = 2, kPage = 3, kNumClasses };

const char* ClassName(int c) {
  switch (c) {
    case kPrepared: return "prepared_solve";
    case kAdHoc: return "adhoc_solve";
    case kDelta: return "apply_delta";
    case kPage: return "certain_answers_page";
  }
  return "?";
}

struct ThreadResult {
  std::vector<int64_t> latencies_us[kNumClasses];
  int errors = 0;
  uint64_t retries = 0;
  std::string first_error;
};

void RunClient(const std::string& host, uint16_t port, int thread_id,
               int requests, cqa::net::ClientOptions copts,
               ThreadResult* out) {
  Client client(copts);
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    out->errors = requests;
    out->first_error = "connect: " + st.message();
    return;
  }
  PrepareRequest prep;
  prep.query = CertainBoolQuery();
  Result<PrepareResponse> prepared = client.Prepare(prep);
  if (!prepared.ok()) {
    out->errors = requests;
    out->first_error = "prepare: " + prepared.status().message();
    return;
  }

  auto record = [&](int cls, const Status& status,
                    std::chrono::steady_clock::time_point begin) {
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - begin)
                  .count();
    if (status.ok()) {
      out->latencies_us[cls].push_back(us);
    } else {
      ++out->errors;
      if (out->first_error.empty()) out->first_error = status.message();
    }
  };

  for (int i = 0; i < requests; ++i) {
    int cls = i % kNumClasses;
    auto begin = std::chrono::steady_clock::now();
    switch (cls) {
      case kPrepared: {
        SolveCall call;
        call.database = kDatabase;
        call.prepared_id = prepared->prepared_id;
        record(cls, client.Solve(call).status(), begin);
        break;
      }
      case kAdHoc: {
        SolveCall call;
        call.database = kDatabase;
        call.query = (i / kNumClasses) % 2 == 0 ? UncertainBoolQuery()
                                                : CertainBoolQuery();
        record(cls, client.Solve(call).status(), begin);
        break;
      }
      case kDelta: {
        Delta d;
        d.Insert(Fact::Make(
            "L",
            {"t" + std::to_string(thread_id) + "-" + std::to_string(i), "v"},
            1));
        ApplyDeltaCall call;
        call.database = kDatabase;
        call.delta = d;
        record(cls, client.ApplyDelta(call).status(), begin);
        break;
      }
      case kPage: {
        // First page + one continuation: both halves of the cursor
        // protocol on every iteration.
        CertainAnswersCall call;
        call.database = kDatabase;
        call.query = PagingQuery();
        call.free_vars = {"x"};
        call.page_size = 16;
        auto page = client.CertainAnswers(call);
        if (page.ok() && !page->next_page_token.empty()) {
          CertainAnswersCall next;
          next.database = kDatabase;
          next.page_token = page->next_page_token;
          page = client.CertainAnswers(next);
        }
        record(cls, page.status(), begin);
        break;
      }
    }
  }
  out->retries = client.retries_total();
}

// ----------------------------------------------------------- reporting

int64_t Percentile(std::vector<int64_t>* sorted, double p) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(p * (sorted->size() - 1) + 0.5);
  return (*sorted)[idx];
}

std::string JsonPath() {
  const char* path = std::getenv("CQA_BENCH_JSON");
  if (path != nullptr && *path != '\0') return path;
  return "BENCH_results.json";
}

/// Same merge discipline as bench/bench_main.cc: keep other binaries'
/// line records and our "naive" ones, replace our "indexed" ones,
/// write-then-rename.
void WriteJson(const std::vector<std::string>& records) {
  const std::string self_key = "\"bench\":\"wire_loadgen\",";
  const std::string mode_key = "\"matcher\":\"indexed\"";
  std::vector<std::string> kept;
  {
    std::ifstream in(JsonPath());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] != '{') continue;
      if (line.find(self_key) != std::string::npos &&
          line.find(mode_key) != std::string::npos) {
        continue;
      }
      if (line.back() == ',') line.pop_back();
      kept.push_back(line);
    }
  }
  kept.insert(kept.end(), records.begin(), records.end());
  std::string tmp = JsonPath() + ".wire_loadgen.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "[\n";
    for (size_t i = 0; i < kept.size(); ++i) {
      out << kept[i] << (i + 1 < kept.size() ? "," : "") << "\n";
    }
    out << "]\n";
  }
  std::rename(tmp.c_str(), JsonPath().c_str());
}

/// The exporter sanity gate: a metrics payload missing a required
/// family means the endpoint regressed, and the run fails.
bool ValidateMetrics(const std::string& text) {
  bool ok = true;
  for (const char* needle :
       {"# TYPE cqa_plan_cache_hits counter", "cqa_session_solves",
        "cqa_session_deltas_applied", "cqa_server_requests_total",
        "cqa_server_responses_total", "cqa_server_connections_accepted"}) {
    if (text.find(needle) == std::string::npos) {
      std::fprintf(stderr, "wire_loadgen: metrics missing '%s'\n", needle);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int clients = 4;
  int requests = 400;  // per client
  bool write_json = true;
  std::string chaos_plan;
  uint64_t chaos_seed = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--host=", 7) == 0) {
      host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      clients = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--requests=", 11) == 0) {
      requests = std::atoi(arg + 11);
    } else if (std::strcmp(arg, "--no-json") == 0) {
      write_json = false;
    } else if (std::strncmp(arg, "--chaos-plan=", 13) == 0) {
      chaos_plan = arg + 13;
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      chaos_seed = std::strtoull(arg + 13, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: wire_loadgen [--host=H] [--port=P] [--clients=N] "
                   "[--requests=N] [--no-json]\n"
                   "       [--chaos-plan=delay|partial|drop|mixed] "
                   "[--chaos-seed=N]\n"
                   "  without --port, hosts its own server on loopback\n");
      return 2;
    }
  }

  // Self-hosted mode: a full Server over loopback, torn down on exit.
  std::unique_ptr<Service> own_service;
  std::unique_ptr<Server> own_server;
  if (port == 0) {
    own_service = std::make_unique<Service>();
    Server::Options options;
    options.server_name = "cqa-loadgen";
    own_server = std::make_unique<Server>(own_service.get(), options);
    Status st = own_server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "wire_loadgen: self-host failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    host = "127.0.0.1";
    port = own_server->port();
  }

  // Chaos mode: route client traffic through a fault-injecting proxy.
  // The admin client stays on the clean path (seeding and the metrics
  // gate must not flake), and clients retry with backoff.
  std::unique_ptr<cqa::net::FaultInjectingTransport> chaos;
  std::string client_host = host;
  uint16_t client_port = static_cast<uint16_t>(port);
  cqa::net::ClientOptions client_options;
  bool tolerate_errors = false;
  if (!chaos_plan.empty()) {
    cqa::net::FaultPlan plan;
    plan.seed = chaos_seed;
    if (chaos_plan == "delay") {
      plan.delay_prob = 0.15;
      plan.max_delay_ms = 5;
    } else if (chaos_plan == "partial") {
      plan.partial_write_prob = 0.3;
      plan.max_chunk = 7;
    } else if (chaos_plan == "drop") {
      plan.drop_prob = 0.02;
    } else if (chaos_plan == "mixed") {
      plan.delay_prob = 0.1;
      plan.max_delay_ms = 3;
      plan.partial_write_prob = 0.2;
      plan.drop_prob = 0.01;
      plan.flip_prob = 0.005;
    } else {
      std::fprintf(stderr, "wire_loadgen: unknown chaos plan '%s'\n",
                   chaos_plan.c_str());
      return 2;
    }
    chaos = std::make_unique<cqa::net::FaultInjectingTransport>(plan);
    Status pst = chaos->Start(host, static_cast<uint16_t>(port));
    if (!pst.ok()) {
      std::fprintf(stderr, "wire_loadgen: chaos proxy failed: %s\n",
                   pst.message().c_str());
      return 1;
    }
    client_host = "127.0.0.1";
    client_port = chaos->port();
    client_options.max_attempts = 6;
    client_options.backoff_initial_ms = 5;
    client_options.backoff_max_ms = 200;
    client_options.io_timeout_ms = 10000;  // a hang fails loudly, fast
    tolerate_errors = true;
    write_json = false;  // chaos latencies would pollute the records
  }

  // Seed the tenant over the wire (drop leftovers from a prior run).
  Client admin;
  Status st = admin.Connect(host, static_cast<uint16_t>(port));
  if (!st.ok()) {
    std::fprintf(stderr, "wire_loadgen: connect %s:%d failed: %s\n",
                 host.c_str(), port, st.message().c_str());
    return 1;
  }
  (void)admin.DropDatabase(kDatabase);
  st = admin.CreateDatabase(kDatabase, SeedDatabase());
  if (!st.ok()) {
    std::fprintf(stderr, "wire_loadgen: seed failed: %s\n",
                 st.message().c_str());
    return 1;
  }

  std::printf("wire_loadgen: %d clients x %d requests against %s:%d%s%s\n",
              clients, requests, host.c_str(), port,
              chaos_plan.empty() ? "" : ", chaos=", chaos_plan.c_str());
  std::vector<ThreadResult> results(clients);
  auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back(RunClient, client_host, client_port, t, requests,
                           client_options, &results[t]);
    }
    for (std::thread& t : threads) t.join();
  }
  double wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                      std::chrono::steady_clock::now() - begin)
                      .count();

  int errors = 0;
  std::string first_error;
  std::vector<int64_t> merged[kNumClasses];
  uint64_t retries = 0;
  for (const ThreadResult& r : results) {
    errors += r.errors;
    retries += r.retries;
    if (first_error.empty()) first_error = r.first_error;
    for (int c = 0; c < kNumClasses; ++c) {
      merged[c].insert(merged[c].end(), r.latencies_us[c].begin(),
                       r.latencies_us[c].end());
    }
  }
  size_t completed = 0;
  for (int c = 0; c < kNumClasses; ++c) completed += merged[c].size();
  double qps = wall_s > 0 ? completed / wall_s : 0;

  std::printf("%-22s %8s %8s %8s %8s\n", "class", "count", "p50_us", "p95_us",
              "p99_us");
  std::vector<std::string> records;
  for (int c = 0; c < kNumClasses; ++c) {
    int64_t p50 = Percentile(&merged[c], 0.50);
    int64_t p95 = Percentile(&merged[c], 0.95);
    int64_t p99 = Percentile(&merged[c], 0.99);
    std::printf("%-22s %8zu %8lld %8lld %8lld\n", ClassName(c),
                merged[c].size(), static_cast<long long>(p50),
                static_cast<long long>(p95), static_cast<long long>(p99));
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"wire_loadgen\",\"name\":\"wire/%s\","
                  "\"matcher\":\"indexed\",\"count\":%zu,\"p50_us\":%lld,"
                  "\"p95_us\":%lld,\"p99_us\":%lld,\"qps\":%.1f,"
                  "\"clients\":%d}",
                  ClassName(c), merged[c].size(),
                  static_cast<long long>(p50), static_cast<long long>(p95),
                  static_cast<long long>(p99), qps, clients);
    records.push_back(line);
  }
  std::printf("total: %zu ok, %d errors, %llu client retries, %.2fs wall, "
              "%.0f req/s\n",
              completed, errors, static_cast<unsigned long long>(retries),
              wall_s, qps);

  // Metrics validation runs AFTER traffic so the counters are warm.
  Result<MetricsReply> metrics = admin.Metrics();
  if (!metrics.ok()) {
    std::fprintf(stderr, "wire_loadgen: metrics fetch failed: %s\n",
                 metrics.status().message().c_str());
    return 1;
  }
  if (!ValidateMetrics(metrics->text)) return 1;

  if (chaos != nullptr) {
    cqa::net::FaultInjectingTransport::Counters fc = chaos->counters();
    chaos->Stop();
    std::printf(
        "chaos: %llu connections, %llu delays, %llu partials, %llu drops, "
        "%llu flips\n",
        static_cast<unsigned long long>(fc.connections),
        static_cast<unsigned long long>(fc.delays),
        static_cast<unsigned long long>(fc.partial_writes),
        static_cast<unsigned long long>(fc.drops),
        static_cast<unsigned long long>(fc.flips));
    if (completed == 0) {
      std::fprintf(stderr,
                   "wire_loadgen: chaos run completed ZERO requests "
                   "(first error: %s)\n",
                   first_error.c_str());
      return 1;
    }
  }

  if (errors > 0 && !tolerate_errors) {
    std::fprintf(stderr, "wire_loadgen: %d requests failed (first: %s)\n",
                 errors, first_error.c_str());
    return 1;
  }
  if (errors > 0) {
    // Chaos mode: failures are expected (a cut mid-ApplyDelta must NOT
    // be blindly retried); what matters is that every call RETURNED.
    std::printf("wire_loadgen: %d chaos-induced failures (first: %s)\n",
                errors, first_error.c_str());
  }
  if (write_json) {
    WriteJson(records);
    std::printf("wire_loadgen: results merged into %s\n", JsonPath().c_str());
  }
  return 0;
}
