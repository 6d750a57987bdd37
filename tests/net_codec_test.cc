#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "net/codec.h"
#include "net/metrics.h"
#include "net/wire.h"
#include "serve/session.h"
#include "util/interner.h"
#include "util/status.h"

/// Property tests for the wire layer: frame parsing against hostile
/// byte streams, and every payload codec under the three adversarial
/// transformations a network can apply — truncation (at EVERY offset),
/// corruption, and trailing garbage. The invariant under test: a decoder
/// either returns the encoded value or a Status; it never crashes, never
/// reads out of bounds, and never silently accepts a damaged payload.

namespace cqa {
namespace net {
namespace {

// ------------------------------------------------------------- fixtures

Query TestQuery() {
  std::vector<Atom> atoms;
  atoms.push_back(Atom::Make("R", {"x", "'a"}, 1));
  atoms.push_back(Atom::Make("S", {"x", "y", "'b"}, 2));
  return Query(std::move(atoms));
}

Database TestDatabase() {
  Database db;
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "c"}, 1)).ok());
  // Embedded NUL: the wire strings are length-prefixed raw bytes.
  EXPECT_TRUE(
      db.AddFact(
            Fact::Make("S", {"", std::string("with nul\0inside", 15), "x"}, 2))
          .ok());
  return db;
}

Delta TestDelta() {
  Delta d;
  d.Insert(Fact::Make("R", {"k1", "v"}, 1));
  d.Remove(Fact::Make("R", {"a", "b"}, 1));
  d.ReplaceBlock(InternSymbol("S"), {InternSymbol("k")},
                 {Fact::Make("S", {"k", "1", "2"}, 1),
                  Fact::Make("S", {"k", "3", "4"}, 1)});
  return d;
}

/// The round-trip identity used everywhere: encode -> decode ->
/// re-encode must reproduce the exact bytes. (Struct equality would need
/// operator== on every DTO; byte equality is stronger anyway, since the
/// encodings are deterministic.)
template <typename T, typename Encode, typename Decode>
void ExpectRoundTrip(const T& value, Encode encode, Decode decode) {
  std::string bytes;
  Writer w(&bytes);
  encode(&w, value);
  Reader r(bytes);
  auto decoded = decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  std::string again;
  Writer w2(&again);
  encode(&w2, *decoded);
  EXPECT_EQ(bytes, again);
}

/// Truncation property: every STRICT prefix of a valid payload must be
/// rejected (the decoders end with a whole-payload consumption check, so
/// no prefix can masquerade as a complete message).
template <typename Decode>
void ExpectStrictPrefixesFail(const std::string& payload, Decode decode) {
  for (size_t len = 0; len < payload.size(); ++len) {
    Reader r(std::string_view(payload.data(), len));
    auto decoded = decode(&r);
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " of "
                               << payload.size() << " bytes decoded";
  }
}

/// Trailing-garbage property: one extra byte after a valid payload must
/// be rejected.
template <typename Decode>
void ExpectTrailingGarbageFails(const std::string& payload, Decode decode) {
  std::string extended = payload + '\x00';
  Reader r(extended);
  auto decoded = decode(&r);
  EXPECT_FALSE(decoded.ok()) << "payload with trailing garbage decoded";
}

// ---------------------------------------------------------------- frames

TEST(WireFrameTest, RoundTripAndPipelining) {
  std::string buffer;
  AppendFrame(&buffer, static_cast<uint8_t>(Verb::kSolve), 7, "payload-1");
  AppendFrame(&buffer, static_cast<uint8_t>(Verb::kStats) | kResponseBit, 8,
              "");
  Frame frame;
  std::string error;
  ASSERT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kOk);
  EXPECT_EQ(frame.verb, static_cast<uint8_t>(Verb::kSolve));
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_EQ(frame.payload, "payload-1");
  ASSERT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kOk);
  EXPECT_EQ(frame.verb, static_cast<uint8_t>(Verb::kStats) | kResponseBit);
  EXPECT_EQ(frame.request_id, 8u);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kNeedMore);
}

TEST(WireFrameTest, TruncationAtEveryOffsetIsNeedMoreNeverFatal) {
  std::string whole;
  AppendFrame(&whole, static_cast<uint8_t>(Verb::kPrepare), 42,
              "some payload bytes");
  for (size_t len = 0; len < whole.size(); ++len) {
    std::string buffer = whole.substr(0, len);
    Frame frame;
    std::string error;
    EXPECT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kNeedMore)
        << "at truncation offset " << len;
    EXPECT_EQ(buffer.size(), len) << "kNeedMore must not consume bytes";
  }
}

TEST(WireFrameTest, BadMagicIsFatal) {
  std::string buffer;
  AppendFrame(&buffer, static_cast<uint8_t>(Verb::kSolve), 1, "x");
  buffer[0] = 'X';
  Frame frame;
  std::string error;
  EXPECT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kFatal);
  EXPECT_FALSE(error.empty());
}

TEST(WireFrameTest, WrongVersionIsFatalAndReported) {
  std::string buffer;
  AppendFrame(&buffer, static_cast<uint8_t>(Verb::kSolve), 1, "x");
  buffer[2] = 9;  // version byte
  Frame frame;
  std::string error;
  uint8_t bad_version = 0;
  EXPECT_EQ(TryParseFrame(&buffer, &frame, &error, &bad_version),
            ParseResult::kFatal);
  EXPECT_EQ(bad_version, 9);
}

TEST(WireFrameTest, OversizedLengthIsFatalBeforeBuffering) {
  std::string buffer;
  AppendFrame(&buffer, static_cast<uint8_t>(Verb::kSolve), 1, "x");
  // Patch the length field (offset 12, u32 LE) beyond kMaxPayload. The
  // parser must refuse from the HEADER alone — it can never wait for
  // (or allocate) 4 GiB.
  buffer[12] = '\xff';
  buffer[13] = '\xff';
  buffer[14] = '\xff';
  buffer[15] = '\xff';
  Frame frame;
  std::string error;
  EXPECT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kFatal);
}

TEST(WireFrameTest, CorruptionAnywhereFailsTheChecksum) {
  std::string whole;
  AppendFrame(&whole, static_cast<uint8_t>(Verb::kApplyDelta), 3,
              "delta bytes here");
  // Flipping one bit at any offset past the fixed header prefix checks
  // (magic/version are refused on their own) must fail the CRC. The
  // length field (offsets 12..15) is excluded: growing it legitimately
  // reads as an incomplete longer frame (kNeedMore) — the CRC can only
  // be checked once the claimed extent has arrived.
  for (size_t i = 3; i < whole.size(); ++i) {
    if (i >= 12 && i < 16) continue;
    std::string buffer = whole;
    buffer[i] = static_cast<char>(buffer[i] ^ 0x01);
    Frame frame;
    std::string error;
    EXPECT_EQ(TryParseFrame(&buffer, &frame, &error), ParseResult::kFatal)
        << "flipped bit at offset " << i << " went unnoticed";
  }
}

// --------------------------------------------------------------- varints

TEST(WireVarintTest, CanonicalRoundTrips) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     (1ull << 32), ~0ull}) {
    std::string bytes;
    Writer w(&bytes);
    w.Varint(v);
    Reader r(bytes);
    EXPECT_EQ(r.Varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireVarintTest, OverlongAndOverflowingVarintsFail) {
  {
    // 11 continuation bytes: longer than any 64-bit varint.
    std::string bytes(11, '\x80');
    bytes.push_back('\x01');
    Reader r(bytes);
    r.Varint();
    EXPECT_TRUE(r.failed());
  }
  {
    // 10th byte above 1 overflows 64 bits.
    std::string bytes(9, '\x80');
    bytes.push_back('\x02');
    Reader r(bytes);
    r.Varint();
    EXPECT_TRUE(r.failed());
  }
  {
    // Truncated mid-varint.
    std::string bytes(3, '\x80');
    Reader r(bytes);
    r.Varint();
    EXPECT_TRUE(r.failed());
  }
}

TEST(WireReaderTest, HostileStringLengthCannotDriveAllocation) {
  std::string bytes;
  Writer w(&bytes);
  w.Varint(100000);  // promises 100k bytes...
  bytes += "abc";    // ...delivers 3
  Reader r(bytes);
  std::string_view s = r.Str();
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(s.empty());
}

// ------------------------------------------------------------ status code

TEST(CodecStatusTest, RoundTripsEveryKnownCode) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kFailedPrecondition, StatusCode::kUnavailable,
        StatusCode::kDataLoss}) {
    std::string bytes;
    Writer w(&bytes);
    EncodeStatus(&w, Status(code, code == StatusCode::kOk ? "" : "msg"));
    Reader r(bytes);
    Status decoded = DecodeStatus(&r);
    EXPECT_EQ(decoded.code(), code);
    EXPECT_TRUE(r.done());
  }
}

TEST(CodecStatusTest, UnknownRemoteCodeCollapsesToInternal) {
  std::string bytes;
  Writer w(&bytes);
  w.U8(200);
  w.Str("from the future");
  Reader r(bytes);
  Status decoded = DecodeStatus(&r);
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("from the future"), std::string::npos);
}

// ----------------------------------------------------------- round trips

TEST(CodecRoundTripTest, AllMessages) {
  ExpectRoundTrip(TestQuery(), EncodeQuery, DecodeQuery);
  ExpectRoundTrip(Fact::Make("R", {"a", "b", "c"}, 2), EncodeFact, DecodeFact);
  ExpectRoundTrip(TestDelta(), EncodeDelta, DecodeDelta);
  ExpectRoundTrip(TestDatabase(), EncodeDatabase, DecodeDatabase);

  Session::RowSet rows = {
      {InternSymbol("a"), InternSymbol("b")},
      {InternSymbol(""), InternSymbol(std::string_view("\xff\x00x", 3))},
      {}};
  ExpectRoundTrip(rows, EncodeRows, DecodeRows);

  HelloRequest hello;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.client_name = "test client";
  ExpectRoundTrip(hello, EncodeHelloRequest, DecodeHelloRequest);

  HelloResponse hello_resp;
  hello_resp.version = 1;
  hello_resp.server_name = "srv";
  hello_resp.max_payload = kMaxPayload;
  ExpectRoundTrip(hello_resp, EncodeHelloResponse, DecodeHelloResponse);

  CreateDatabaseRequest create;
  create.name = "db with spaces/and/slashes";
  create.db = TestDatabase();
  ExpectRoundTrip(create, EncodeCreateDatabaseRequest,
                  DecodeCreateDatabaseRequest);

  ExpectRoundTrip(NameRequest{"x"}, EncodeNameRequest, DecodeNameRequest);
  ExpectRoundTrip(NameListResponse{{"a", "b", ""}}, EncodeNameListResponse,
                  DecodeNameListResponse);

  OpenStoreResponse open;
  open.epoch = 17;
  open.replayed = 5;
  open.torn_tail_recovered = true;
  ExpectRoundTrip(open, EncodeOpenStoreResponse, DecodeOpenStoreResponse);

  PrepareRequest prepare;
  prepare.query = TestQuery();
  prepare.free_vars = {"x", "y"};
  prepare.force_solver = "sat";
  ExpectRoundTrip(prepare, EncodePrepareRequest, DecodePrepareRequest);

  PrepareResponse prepare_resp;
  prepare_resp.prepared_id = "plan:R(x,a)";
  prepare_resp.solver_kind = "fo-rewriting";
  prepare_resp.complexity = "FO";
  prepare_resp.parameterized = true;
  ExpectRoundTrip(prepare_resp, EncodePrepareResponse, DecodePrepareResponse);

  SolveCall solve;
  solve.database = "db";
  solve.prepared_id = "";
  solve.query = TestQuery();
  ExpectRoundTrip(solve, EncodeSolveCall, DecodeSolveCall);

  SolveReply solve_reply;
  solve_reply.certain = true;
  solve_reply.solver_kind = "ack";
  solve_reply.epoch = 9;
  ExpectRoundTrip(solve_reply, EncodeSolveReply, DecodeSolveReply);

  SolveBatchRequest batch;
  batch.calls.push_back(solve);
  SolveCall by_handle;
  by_handle.database = "db2";
  by_handle.prepared_id = "handle-1";
  batch.calls.push_back(by_handle);
  ExpectRoundTrip(batch, EncodeSolveBatchRequest, DecodeSolveBatchRequest);

  SolveBatchResponse batch_resp;
  batch_resp.items.emplace_back(Status::OK(), solve_reply);
  batch_resp.items.emplace_back(Status::NotFound("nope"), SolveReply{});
  ExpectRoundTrip(batch_resp, EncodeSolveBatchResponse,
                  DecodeSolveBatchResponse);

  CertainAnswersCall answers;
  answers.database = "db";
  answers.query = TestQuery();
  answers.free_vars = {"x"};
  answers.page_size = 128;
  answers.page_token = "v1:3:256";
  ExpectRoundTrip(answers, EncodeCertainAnswersCall, DecodeCertainAnswersCall);

  CertainAnswersReply answers_reply;
  answers_reply.rows = rows;
  answers_reply.next_page_token = "v1:3:512";
  answers_reply.total_rows = 1000;
  answers_reply.epoch = 4;
  ExpectRoundTrip(answers_reply, EncodeCertainAnswersReply,
                  DecodeCertainAnswersReply);

  ApplyDeltaCall delta_call;
  delta_call.database = "db";
  delta_call.delta = TestDelta();
  ExpectRoundTrip(delta_call, EncodeApplyDeltaCall, DecodeApplyDeltaCall);
  ExpectRoundTrip(ApplyDeltaReply{33}, EncodeApplyDeltaReply,
                  DecodeApplyDeltaReply);

  ExpectRoundTrip(StatsCall{"db"}, EncodeStatsCall, DecodeStatsCall);
  StatsReply stats;
  stats.counters = {{"plan_cache.hits", 5}, {"session.solves", 7}};
  ExpectRoundTrip(stats, EncodeStatsReply, DecodeStatsReply);

  ExpectRoundTrip(MetricsReply{"cqa_up 1\n"}, EncodeMetricsReply,
                  DecodeMetricsReply);
}

// -------------------------------------------------- hostile payload bytes

TEST(CodecHostileTest, TruncationAtEveryOffsetFails) {
  {
    PrepareRequest prepare;
    prepare.query = TestQuery();
    prepare.free_vars = {"x", "y"};
    std::string bytes;
    Writer w(&bytes);
    EncodePrepareRequest(&w, prepare);
    ExpectStrictPrefixesFail(bytes, DecodePrepareRequest);
    ExpectTrailingGarbageFails(bytes, DecodePrepareRequest);
  }
  {
    CreateDatabaseRequest create;
    create.name = "db";
    create.db = TestDatabase();
    std::string bytes;
    Writer w(&bytes);
    EncodeCreateDatabaseRequest(&w, create);
    ExpectStrictPrefixesFail(bytes, DecodeCreateDatabaseRequest);
    ExpectTrailingGarbageFails(bytes, DecodeCreateDatabaseRequest);
  }
  {
    ApplyDeltaCall call;
    call.database = "db";
    call.delta = TestDelta();
    std::string bytes;
    Writer w(&bytes);
    EncodeApplyDeltaCall(&w, call);
    ExpectStrictPrefixesFail(bytes, DecodeApplyDeltaCall);
    ExpectTrailingGarbageFails(bytes, DecodeApplyDeltaCall);
  }
  {
    CertainAnswersCall call;
    call.database = "db";
    call.query = TestQuery();
    call.free_vars = {"x"};
    call.page_token = "v1:1:0";
    std::string bytes;
    Writer w(&bytes);
    EncodeCertainAnswersCall(&w, call);
    ExpectStrictPrefixesFail(bytes, DecodeCertainAnswersCall);
    ExpectTrailingGarbageFails(bytes, DecodeCertainAnswersCall);
  }
  {
    SolveBatchResponse resp;
    SolveReply reply;
    reply.certain = true;
    reply.solver_kind = "ck";
    resp.items.emplace_back(Status::OK(), reply);
    resp.items.emplace_back(Status::Unavailable("shed"), SolveReply{});
    std::string bytes;
    Writer w(&bytes);
    EncodeSolveBatchResponse(&w, resp);
    ExpectStrictPrefixesFail(bytes, DecodeSolveBatchResponse);
    ExpectTrailingGarbageFails(bytes, DecodeSolveBatchResponse);
  }
}

TEST(CodecHostileTest, BadEnumTagsFail) {
  {
    // Term tag 2 (only 0=var, 1=const exist).
    std::string bytes;
    Writer w(&bytes);
    w.Varint(1);   // one atom
    w.Str("R");
    w.Varint(0);   // key_arity
    w.Varint(1);   // arity
    w.U8(2);       // hostile term tag
    w.Str("x");
    Reader r(bytes);
    EXPECT_FALSE(DecodeQuery(&r).ok());
  }
  {
    // Delta op tag 4 (1..3 exist).
    std::string bytes;
    Writer w(&bytes);
    w.Varint(1);
    w.U8(4);
    Reader r(bytes);
    EXPECT_FALSE(DecodeDelta(&r).ok());
  }
  {
    // Optional-query flag must be 0 or 1.
    std::string bytes;
    Writer w(&bytes);
    w.Str("db");
    w.Str("");
    w.U8(7);  // hostile optional flag
    Reader r(bytes);
    EXPECT_FALSE(DecodeSolveCall(&r).ok());
  }
}

TEST(CodecHostileTest, ArityBoundsAreEnforced) {
  {
    // key_arity > arity.
    std::string bytes;
    Writer w(&bytes);
    w.Str("R");
    w.Varint(3);  // key_arity
    w.Varint(2);  // arity
    w.Str("a");
    w.Str("b");
    Reader r(bytes);
    EXPECT_FALSE(DecodeFact(&r).ok());
  }
  {
    // A hostile arity above kMaxArity is refused BEFORE any reserve.
    std::string bytes;
    Writer w(&bytes);
    w.Str("R");
    w.Varint(0);
    w.Varint(kMaxArity + 1);
    Reader r(bytes);
    EXPECT_FALSE(DecodeFact(&r).ok());
  }
  {
    // Same for row widths.
    std::string bytes;
    Writer w(&bytes);
    w.Varint(1);
    w.Varint(kMaxArity + 1);
    Reader r(bytes);
    EXPECT_FALSE(DecodeRows(&r).ok());
  }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsRenderTest, PrometheusTextExposition) {
  std::map<std::string, uint64_t> counters = {
      {"plan_cache.hits", 12},
      {"plan_cache.entries", 5},
      {"plan_cache.negative_entries", 1},
      {"plan_cache.capacity", 64},
      {"backend.sqlite_databases", 2},
      {"backend.degraded_backends", 0},
      {"service.databases", 3},
      {"service.prepared_queries", 6},
      {"service.open_cursors", 1},
      {"store.durable_databases", 2},
      {"store.read_only_databases", 0},
      {"store.wal_bytes", 4096},
      {"session.index_bytes", 2048},
      {"session.solves", 7},
      {"session.answers_covered", 2},
      {"solver.sat.calls", 3},
      {"solver.sat.certain", 2},
      {"solver.fo-rewriting.calls", 9},
  };
  MetricGauges extra = {{"server.requests_total", 40},
                        {"server.connections_active", 4}};
  std::string text = RenderPrometheus(counters, extra);
  EXPECT_NE(text.find("# TYPE cqa_plan_cache_hits counter\n"
                      "cqa_plan_cache_hits 12\n"),
            std::string::npos);
  // Levels that can fall are gauges, not counters.
  for (const char* gauge :
       {"plan_cache_entries 5", "plan_cache_negative_entries 1",
        "plan_cache_capacity 64", "backend_sqlite_databases 2",
        "backend_degraded_backends 0", "server_connections_active 4",
        "service_databases 3", "service_prepared_queries 6",
        "service_open_cursors 1", "store_durable_databases 2",
        "store_read_only_databases 0", "store_wal_bytes 4096",
        "session_index_bytes 2048"}) {
    std::string name = gauge;
    name = "cqa_" + name.substr(0, name.find(' '));
    EXPECT_NE(text.find("# TYPE " + name + " gauge\ncqa_" + gauge + "\n"),
              std::string::npos)
        << gauge;
    EXPECT_EQ(text.find("# TYPE " + name + " counter"), std::string::npos)
        << gauge;
  }
  EXPECT_NE(text.find("# TYPE cqa_server_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_session_solves 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cqa_session_answers_covered counter\n"
                      "cqa_session_answers_covered 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_solver_calls_total{kind=\"sat\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_solver_certain_total{kind=\"sat\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_solver_calls_total{kind=\"fo-rewriting\"} 9"),
            std::string::npos);
  EXPECT_NE(text.find("cqa_server_requests_total 40"), std::string::npos);
  // One TYPE line per labeled family, not one per label value.
  size_t first = text.find("# TYPE cqa_solver_calls_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE cqa_solver_calls_total counter", first + 1),
            std::string::npos);
}

TEST(MetricsFlattenTest, StatsKeysAreStable) {
  Service service;
  Result<Service::StatsResponse> stats =
      service.Stats(Service::StatsRequest{});
  ASSERT_TRUE(stats.ok());
  std::map<std::string, uint64_t> flat = FlattenStats(*stats);
  // The names PROTOCOL.md §6.9 freezes; receivers ignore unknown keys,
  // but these must never disappear or rename.
  for (const char* key :
       {"plan_cache.hits", "plan_cache.misses", "session.deltas_applied",
        "session.solves", "session.answers_covered",
        "contention.interner_lookups",
        "store.durable_databases", "service.databases",
        "service.prepared_queries", "service.open_cursors"}) {
    EXPECT_EQ(flat.count(key), 1u) << "missing flattened counter " << key;
  }
}

}  // namespace
}  // namespace net
}  // namespace cqa
