#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/service.h"
#include "solvers/solver.h"
#include "util/interner.h"
#include "util/status.h"

/// End-to-end tests over a real loopback socket: Client -> frames ->
/// Server -> Service and back. The acceptance bar (docs/PROTOCOL.md §1):
/// every answer a wire client sees is byte-identical to what the same
/// call against the in-process `Service` returns — the tests here hold
/// the two side by side on ONE service instance. Plus the failure
/// surface: request-level errors keep the connection usable, framing
/// errors kill it with a terminal notice, overload sheds kUnavailable.

namespace cqa {
namespace net {
namespace {

/// An uncertain block (two facts under key k1) plus a clean one, and a
/// violation-free paging relation P with seven rows.
Database DemoDatabase() {
  Database db;
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"k1", "v1"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"k1", "v2"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"k2", "v1"}, 1)).ok());
  for (int i = 1; i <= 7; ++i) {
    EXPECT_TRUE(
        db.AddFact(Fact::Make("P", {"p" + std::to_string(i)}, 1)).ok());
  }
  return db;
}

/// R(k2, v1): its block is conflict-free, so certainty holds.
Query CertainBoolQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("R", {"'k2", "'v1"}, 1));
  return Query(std::move(atoms));
}

/// R(k1, v1): half the repairs pick v2, so NOT certain.
Query UncertainBoolQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("R", {"'k1", "'v1"}, 1));
  return Query(std::move(atoms));
}

/// P(x): violation-free, every row is a certain answer.
Query PagingQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("P", {"x"}, 1));
  return Query(std::move(atoms));
}

class WireServerTest : public ::testing::Test {
 protected:
  void StartServer(Server::Options options = {}) {
    options.server_name = "cqa-test";
    server_ = std::make_unique<Server>(&service_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override {
    client_.Close();
    if (server_ != nullptr) server_->Stop();
  }

  Service service_;
  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(WireServerTest, HelloHandshake) {
  StartServer();
  EXPECT_EQ(client_.hello().version, kProtocolVersion);
  EXPECT_EQ(client_.hello().server_name, "cqa-test");
  EXPECT_EQ(client_.hello().max_payload, kMaxPayload);
}

/// The acceptance journey of docs/PROTOCOL.md §1, with every wire
/// answer checked against the identical in-process call.
TEST_F(WireServerTest, EndToEndJourneyMatchesInProcessService) {
  StartServer();

  // Create over the wire; visible to both views of the registry.
  ASSERT_TRUE(client_.CreateDatabase("wire", DemoDatabase()).ok());
  EXPECT_TRUE(service_.HasDatabase("wire"));
  Result<NameListResponse> names = client_.ListDatabases();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->names, service_.ListDatabases());

  // Ad-hoc Boolean solves, wire vs in-process.
  for (const Query& q : {CertainBoolQuery(), UncertainBoolQuery()}) {
    SolveCall call;
    call.database = "wire";
    call.query = q;
    Result<SolveReply> wire = client_.Solve(call);
    ASSERT_TRUE(wire.ok()) << wire.status();

    Service::SolveRequest sreq;
    sreq.database = "wire";
    sreq.query = q;
    Result<Service::SolveResponse> local = service_.Solve(sreq);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(wire->certain, local->outcome.certain);
    EXPECT_EQ(wire->solver_kind, ToString(local->outcome.solver));
    EXPECT_EQ(wire->epoch, local->epoch);
  }

  // Prepare over the wire; solving by handle id equals solving ad-hoc.
  PrepareRequest prep;
  prep.query = CertainBoolQuery();
  Result<PrepareResponse> prepared = client_.Prepare(prep);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_FALSE(prepared->prepared_id.empty());
  EXPECT_FALSE(prepared->solver_kind.empty());
  {
    SolveCall by_id;
    by_id.database = "wire";
    by_id.prepared_id = prepared->prepared_id;
    Result<SolveReply> wire = client_.Solve(by_id);
    ASSERT_TRUE(wire.ok()) << wire.status();
    EXPECT_TRUE(wire->certain);
    EXPECT_EQ(wire->solver_kind, prepared->solver_kind);
  }

  // A batch mixing ad-hoc, a poisoned handle id, and a good handle id:
  // the bad item fails POSITIONALLY, the others still answer.
  {
    SolveBatchRequest batch;
    SolveCall adhoc;
    adhoc.database = "wire";
    adhoc.query = UncertainBoolQuery();
    batch.calls.push_back(adhoc);
    SolveCall poisoned;
    poisoned.database = "wire";
    poisoned.prepared_id = "no-such-handle";
    batch.calls.push_back(poisoned);
    SolveCall by_id;
    by_id.database = "wire";
    by_id.prepared_id = prepared->prepared_id;
    batch.calls.push_back(by_id);

    Result<SolveBatchResponse> resp = client_.SolveBatch(batch);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->items.size(), 3u);
    EXPECT_TRUE(resp->items[0].first.ok());
    EXPECT_FALSE(resp->items[0].second.certain);
    EXPECT_EQ(resp->items[1].first.code(), StatusCode::kNotFound);
    EXPECT_TRUE(resp->items[2].first.ok());
    EXPECT_TRUE(resp->items[2].second.certain);
  }

  // Apply a delta over the wire; the epoch the wire reports is the
  // epoch in-process readers observe.
  {
    Delta d;
    d.Insert(Fact::Make("P", {"p8"}, 1));
    ApplyDeltaCall call;
    call.database = "wire";
    call.delta = d;
    Result<ApplyDeltaReply> wire = client_.ApplyDelta(call);
    ASSERT_TRUE(wire.ok()) << wire.status();
    Service::SolveRequest sreq;
    sreq.database = "wire";
    sreq.query = CertainBoolQuery();
    Result<Service::SolveResponse> local = service_.Solve(sreq);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(wire->epoch, local->epoch);
  }

  // Page through the certain answers of P(x) in pages of 3 and compare
  // the concatenation against the in-process full answer set (now 8
  // rows after the delta).
  Session::RowSet wire_rows;
  uint64_t wire_total = 0;
  {
    CertainAnswersCall call;
    call.database = "wire";
    call.query = PagingQuery();
    call.free_vars = {"x"};
    call.page_size = 3;
    size_t pages = 0;
    for (;;) {
      Result<CertainAnswersReply> page = client_.CertainAnswers(call);
      ASSERT_TRUE(page.ok()) << page.status();
      ++pages;
      wire_total = page->total_rows;
      for (auto& row : page->rows) wire_rows.push_back(std::move(row));
      if (page->next_page_token.empty()) break;
      // Later pages: token only; the server-side cursor remembers the
      // rest (PROTOCOL.md §6.7).
      call = CertainAnswersCall();
      call.database = "wire";
      call.page_token = page->next_page_token;
    }
    EXPECT_EQ(pages, 3u);  // 3 + 3 + 2
  }
  {
    Service::CertainAnswersRequest creq;
    creq.database = "wire";
    creq.query = PagingQuery();
    creq.free_vars = {InternSymbol("x")};
    Result<Service::CertainAnswersResponse> local =
        service_.CertainAnswers(creq);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(wire_rows, local->rows);
    EXPECT_EQ(wire_total, local->total_rows);
    EXPECT_EQ(wire_rows.size(), 8u);
  }

  // A corrupt page token is an error, not a silent restart.
  {
    CertainAnswersCall call;
    call.database = "wire";
    call.page_token = "hostile token";
    EXPECT_FALSE(client_.CertainAnswers(call).ok());
  }

  // Stats over the wire are exactly the flattened in-process counters.
  {
    Result<StatsReply> wire = client_.Stats(StatsCall{""});
    ASSERT_TRUE(wire.ok()) << wire.status();
    Result<Service::StatsResponse> local =
        service_.Stats(Service::StatsRequest{});
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(wire->counters, FlattenStats(*local));
    EXPECT_GT(wire->counters.at("session.solves"), 0u);
  }

  // Durability is off: the store listing is empty but well-formed.
  {
    Result<NameListResponse> stores = client_.ListStores();
    ASSERT_TRUE(stores.ok());
    EXPECT_TRUE(stores->names.empty());
  }

  // Drop over the wire; both views agree, and solving now fails with
  // the Service's own NotFound.
  ASSERT_TRUE(client_.DropDatabase("wire").ok());
  EXPECT_FALSE(service_.HasDatabase("wire"));
  SolveCall call;
  call.database = "wire";
  call.query = CertainBoolQuery();
  EXPECT_EQ(client_.Solve(call).status().code(), StatusCode::kNotFound);
}

TEST_F(WireServerTest, RequestLevelErrorsKeepTheConnectionUsable) {
  StartServer();
  ASSERT_TRUE(client_.CreateDatabase("db", DemoDatabase()).ok());

  // Unknown verb.
  std::string body;
  Status st = client_.Call(static_cast<Verb>(99), "", &body);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // Malformed payload under a known verb.
  st = client_.Call(Verb::kPrepare, "\x07garbage", &body);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // Wrong-type payload: a Solve frame carrying a truncated message.
  st = client_.Call(Verb::kSolve, "\xff\xff\xff", &body);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // The connection survived all three.
  Result<NameListResponse> names = client_.ListDatabases();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->names, std::vector<std::string>{"db"});
  EXPECT_EQ(server_->counters().protocol_errors, 0u);
}

TEST_F(WireServerTest, FramingErrorIsConnectionFatalWithTerminalNotice) {
  StartServer();
  ASSERT_TRUE(client_.SendRaw("XXXX not a frame").ok());
  Frame notice;
  ASSERT_TRUE(client_.ReadFrame(&notice).ok());
  // Terminal notice (PROTOCOL.md §2.4): bare response bit, request id 0,
  // status payload.
  EXPECT_EQ(notice.verb, kResponseBit);
  EXPECT_EQ(notice.request_id, 0u);
  Reader r(notice.payload);
  EXPECT_EQ(DecodeStatus(&r).code(), StatusCode::kInvalidArgument);
  // The server closed the stream after the notice.
  Frame next;
  EXPECT_FALSE(client_.ReadFrame(&next).ok());
  EXPECT_GE(server_->counters().protocol_errors, 1u);
}

TEST_F(WireServerTest, WrongVersionFrameIsRefused) {
  StartServer();
  std::string frame;
  AppendFrame(&frame, static_cast<uint8_t>(Verb::kListDatabases), 5, "");
  frame[2] = 9;  // future protocol version; stale CRC is irrelevant —
                 // the version check precedes it
  ASSERT_TRUE(client_.SendRaw(frame).ok());
  Frame notice;
  ASSERT_TRUE(client_.ReadFrame(&notice).ok());
  EXPECT_EQ(notice.request_id, 0u);
  Reader r(notice.payload);
  Status st = DecodeStatus(&r);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST_F(WireServerTest, ResponseBitFromAClientIsFatal) {
  StartServer();
  std::string frame;
  AppendFrame(&frame, static_cast<uint8_t>(Verb::kSolve) | kResponseBit, 5,
              "");
  ASSERT_TRUE(client_.SendRaw(frame).ok());
  Frame notice;
  ASSERT_TRUE(client_.ReadFrame(&notice).ok());
  EXPECT_EQ(notice.request_id, 0u);
  Frame next;
  EXPECT_FALSE(client_.ReadFrame(&next).ok());
}

TEST_F(WireServerTest, OverloadShedsWithUnavailable) {
  Server::Options options;
  options.num_executors = 1;
  options.max_inflight_per_connection = 1;
  StartServer(options);
  ASSERT_TRUE(client_.CreateDatabase("db", DemoDatabase()).ok());

  // Pipeline 32 solves in ONE write past the in-flight budget of 1. The
  // poll thread parses them back to back, far faster than the lone
  // executor can answer, so the excess is shed inline (PROTOCOL.md §7).
  SolveCall call;
  call.database = "db";
  call.query = CertainBoolQuery();
  std::string payload;
  Writer w(&payload);
  EncodeSolveCall(&w, call);
  constexpr int kPipelined = 32;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    AppendFrame(&burst, static_cast<uint8_t>(Verb::kSolve), 1000 + i,
                payload);
  }
  ASSERT_TRUE(client_.SendRaw(burst).ok());

  int ok = 0, unavailable = 0;
  std::map<uint64_t, int> seen_ids;
  for (int i = 0; i < kPipelined; ++i) {
    Frame f;
    ASSERT_TRUE(client_.ReadFrame(&f).ok());
    EXPECT_EQ(f.verb, static_cast<uint8_t>(Verb::kSolve) | kResponseBit);
    ++seen_ids[f.request_id];
    Reader r(f.payload);
    Status st = DecodeStatus(&r);
    if (st.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  // Every request answered exactly once, out-of-order completion tied
  // back by the echoed ids (PROTOCOL.md §2.2).
  EXPECT_EQ(seen_ids.size(), static_cast<size_t>(kPipelined));
  EXPECT_GE(ok, 1);
  EXPECT_GE(unavailable, 1);
  EXPECT_EQ(ok + unavailable, kPipelined);
  Server::Counters counters = server_->counters();
  EXPECT_GE(counters.shed_inflight + counters.shed_queue, 1u);

  // Shedding is retry-later, not failure: the connection still serves.
  Result<SolveReply> again = client_.Solve(call);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->certain);
}

TEST_F(WireServerTest, EvictedPreparedHandleAnswersNotFound) {
  Server::Options options;
  options.max_prepared = 1;
  StartServer(options);
  ASSERT_TRUE(client_.CreateDatabase("db", DemoDatabase()).ok());

  PrepareRequest first;
  first.query = CertainBoolQuery();
  Result<PrepareResponse> p1 = client_.Prepare(first);
  ASSERT_TRUE(p1.ok()) << p1.status();
  PrepareRequest second;
  second.query = UncertainBoolQuery();
  Result<PrepareResponse> p2 = client_.Prepare(second);
  ASSERT_TRUE(p2.ok()) << p2.status();

  SolveCall evicted;
  evicted.database = "db";
  evicted.prepared_id = p1->prepared_id;
  Status st = client_.Solve(evicted).status();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_NE(st.message().find("re-Prepare"), std::string::npos);

  SolveCall live;
  live.database = "db";
  live.prepared_id = p2->prepared_id;
  EXPECT_TRUE(client_.Solve(live).ok());
}

TEST_F(WireServerTest, MetricsVerbRendersPrometheusText) {
  Server::Options options;
  options.metrics.interval = std::chrono::milliseconds(10);
  StartServer(options);
  ASSERT_TRUE(client_.CreateDatabase("db", DemoDatabase()).ok());
  SolveCall call;
  call.database = "db";
  call.query = CertainBoolQuery();
  ASSERT_TRUE(client_.Solve(call).ok());

  Result<MetricsReply> metrics = client_.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const std::string& text = metrics->text;
  EXPECT_NE(text.find("# TYPE cqa_plan_cache_hits counter"),
            std::string::npos);
  for (const char* gauge :
       {"cqa_plan_cache_entries", "cqa_plan_cache_negative_entries",
        "cqa_plan_cache_capacity", "cqa_backend_sqlite_databases",
        "cqa_backend_degraded_backends", "cqa_server_connections_active",
        "cqa_service_databases", "cqa_service_prepared_queries",
        "cqa_service_open_cursors", "cqa_store_durable_databases",
        "cqa_store_read_only_databases", "cqa_store_wal_bytes",
        "cqa_session_index_bytes"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + gauge + " gauge\n"),
              std::string::npos)
        << gauge;
  }
  EXPECT_NE(text.find("cqa_session_solves"), std::string::npos);
  EXPECT_NE(text.find("cqa_server_requests_total"), std::string::npos);
  EXPECT_NE(text.find("cqa_server_connections_accepted"), std::string::npos);
  // The robustness counters (ISSUE 9) are part of the export surface
  // even when zero — dashboards can alert on them without a first event.
  EXPECT_NE(text.find("cqa_server_deadline_exceeded_total"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_server_idle_reaped_total"), std::string::npos);
  EXPECT_NE(text.find("cqa_server_write_stall_evicted_total"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_server_drain_shed_total"), std::string::npos);

  // The background sampler fills the exportable time series.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(server_->metrics().samples_taken(), 1u);
  std::vector<MetricsExporter::Sample> series = server_->metrics().Series();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.front().tick, 1u);
  EXPECT_GT(series.back().counters.at("session.solves"), 0u);
}

TEST_F(WireServerTest, TwoClientsShareOneServiceRegistry) {
  StartServer();
  ASSERT_TRUE(client_.CreateDatabase("shared", DemoDatabase()).ok());

  Client other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server_->port()).ok());
  SolveCall call;
  call.database = "shared";
  call.query = CertainBoolQuery();
  Result<SolveReply> reply = other.Solve(call);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(reply->certain);
  other.Close();

  EXPECT_GE(server_->counters().connections_accepted, 2u);
}

TEST_F(WireServerTest, HelloVersionIntersectionIsChecked) {
  StartServer();
  // Speak the raw verb: a client demanding only v2+ gets a request-level
  // InvalidArgument (PROTOCOL.md §2.3), not a dead connection.
  HelloRequest req;
  req.min_version = 2;
  req.max_version = 7;
  req.client_name = "from the future";
  std::string payload;
  Writer w(&payload);
  EncodeHelloRequest(&w, req);
  std::string body;
  Status st = client_.Call(Verb::kHello, payload, &body);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("no common protocol version"),
            std::string::npos);
  // Still connected; v1 traffic proceeds.
  EXPECT_TRUE(client_.ListDatabases().ok());
}

}  // namespace
}  // namespace net
}  // namespace cqa
