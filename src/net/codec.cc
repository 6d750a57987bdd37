#include "net/codec.h"

#include <utility>

#include "util/interner.h"

namespace cqa {
namespace net {

namespace {

/// Highest StatusCode value protocol v1 knows; decoded codes above it
/// collapse to kInternal (forward compatibility, §3).
constexpr uint8_t kMaxKnownStatusCode =
    static_cast<uint8_t>(StatusCode::kDeadlineExceeded);

void EncodeStringList(Writer* w, const std::vector<std::string>& names) {
  w->Varint(names.size());
  for (const std::string& name : names) w->Str(name);
}

bool DecodeStringList(Reader* r, std::vector<std::string>* out) {
  uint64_t n = r->Varint();
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    out->push_back(std::string(r->Str()));
  }
  return !r->failed();
}

void EncodeOptionalQuery(Writer* w, const std::optional<Query>& q) {
  w->Bool(q.has_value());
  if (q.has_value()) EncodeQuery(w, *q);
}

Result<std::optional<Query>> DecodeOptionalQuery(Reader* r) {
  if (!r->Bool()) return std::optional<Query>();
  Result<Query> q = DecodeQuery(r);
  if (!q.ok()) return q.status();
  return std::optional<Query>(*std::move(q));
}

/// Shared tail check: the payload must be fully consumed.
template <typename T>
Result<T> Finish(Reader* r, T value, const char* what) {
  if (!r->done()) return MalformedPayload(what);
  return value;
}

}  // namespace

// --------------------------------------------------------------- status

void EncodeStatus(Writer* w, const Status& status) {
  w->U8(static_cast<uint8_t>(status.code()));
  w->Str(status.message());
}

Status DecodeStatus(Reader* r) {
  uint8_t code = r->U8();
  std::string message(r->Str());
  if (r->failed()) return MalformedPayload("status");
  if (code == 0) return Status::OK();
  if (code > kMaxKnownStatusCode) {
    return Status::Internal("unknown remote status code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// ------------------------------------------------------ data structures

void EncodeQuery(Writer* w, const Query& q) {
  w->Varint(q.atoms().size());
  for (const Atom& atom : q.atoms()) {
    w->Str(SymbolName(atom.relation()));
    w->Varint(static_cast<uint64_t>(atom.key_arity()));
    w->Varint(static_cast<uint64_t>(atom.arity()));
    for (const Term& t : atom.terms()) {
      w->U8(t.is_var() ? 0 : 1);
      w->Str(SymbolName(t.id()));
    }
  }
}

Result<Query> DecodeQuery(Reader* r) {
  uint64_t natoms = r->Varint();
  std::vector<Atom> atoms;
  for (uint64_t i = 0; i < natoms && !r->failed(); ++i) {
    std::string_view relation = r->Str();
    uint64_t key_arity = r->Varint();
    uint64_t arity = r->Varint();
    if (r->failed() || arity > kMaxArity || key_arity > arity) {
      return MalformedPayload("atom arity");
    }
    std::vector<Term> terms;
    terms.reserve(arity);
    for (uint64_t j = 0; j < arity; ++j) {
      uint8_t tag = r->U8();
      std::string_view name = r->Str();
      if (r->failed() || tag > 1) return MalformedPayload("term");
      terms.push_back(tag == 0 ? Term::Var(name) : Term::Const(name));
    }
    atoms.emplace_back(InternSymbol(relation), std::move(terms),
                       static_cast<int>(key_arity));
  }
  if (r->failed()) return MalformedPayload("query");
  return Query(std::move(atoms));
}

void EncodeFact(Writer* w, const Fact& fact) {
  w->Str(SymbolName(fact.relation()));
  w->Varint(static_cast<uint64_t>(fact.key_arity()));
  w->Varint(static_cast<uint64_t>(fact.arity()));
  for (SymbolId v : fact.values()) w->Str(SymbolName(v));
}

Result<Fact> DecodeFact(Reader* r) {
  std::string_view relation = r->Str();
  uint64_t key_arity = r->Varint();
  uint64_t arity = r->Varint();
  if (r->failed() || arity > kMaxArity || key_arity > arity) {
    return MalformedPayload("fact arity");
  }
  std::vector<SymbolId> values;
  values.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    values.push_back(InternSymbol(r->Str()));
  }
  if (r->failed()) return MalformedPayload("fact");
  return Fact(InternSymbol(relation), std::move(values),
              static_cast<int>(key_arity));
}

void EncodeDelta(Writer* w, const Delta& delta) {
  w->Varint(delta.ops().size());
  for (const Delta::Op& op : delta.ops()) {
    switch (op.kind) {
      case Delta::Op::Kind::kInsert:
        w->U8(1);
        EncodeFact(w, op.fact);
        break;
      case Delta::Op::Kind::kRemove:
        w->U8(2);
        EncodeFact(w, op.fact);
        break;
      case Delta::Op::Kind::kReplaceBlock:
        w->U8(3);
        w->Str(SymbolName(op.relation));
        w->Varint(op.key.size());
        for (SymbolId v : op.key) w->Str(SymbolName(v));
        w->Varint(op.block_facts.size());
        for (const Fact& f : op.block_facts) EncodeFact(w, f);
        break;
    }
  }
}

Result<Delta> DecodeDelta(Reader* r) {
  uint64_t nops = r->Varint();
  Delta delta;
  for (uint64_t i = 0; i < nops && !r->failed(); ++i) {
    uint8_t tag = r->U8();
    if (tag == 1 || tag == 2) {
      Result<Fact> fact = DecodeFact(r);
      if (!fact.ok()) return fact.status();
      if (tag == 1) {
        delta.Insert(*std::move(fact));
      } else {
        delta.Remove(*std::move(fact));
      }
    } else if (tag == 3) {
      SymbolId relation = InternSymbol(r->Str());
      uint64_t key_len = r->Varint();
      if (r->failed() || key_len > kMaxArity) {
        return MalformedPayload("replace_block key");
      }
      std::vector<SymbolId> key;
      key.reserve(key_len);
      for (uint64_t j = 0; j < key_len; ++j) {
        key.push_back(InternSymbol(r->Str()));
      }
      uint64_t nfacts = r->Varint();
      std::vector<Fact> facts;
      for (uint64_t j = 0; j < nfacts && !r->failed(); ++j) {
        Result<Fact> fact = DecodeFact(r);
        if (!fact.ok()) return fact.status();
        facts.push_back(*std::move(fact));
      }
      if (r->failed()) return MalformedPayload("replace_block");
      delta.ReplaceBlock(relation, std::move(key), std::move(facts));
    } else {
      return MalformedPayload("delta op tag");
    }
  }
  if (r->failed()) return MalformedPayload("delta");
  return delta;
}

void EncodeDatabase(Writer* w, const Database& db) {
  const Schema& schema = db.schema();
  w->Varint(schema.relations().size());
  for (SymbolId rel : schema.relations()) {
    Signature sig = *schema.Find(rel);
    w->Str(SymbolName(rel));
    w->Varint(static_cast<uint64_t>(sig.arity));
    w->Varint(static_cast<uint64_t>(sig.key_arity));
  }
  w->Varint(db.facts().size());
  for (const Fact& fact : db.facts()) EncodeFact(w, fact);
}

Result<Database> DecodeDatabase(Reader* r) {
  uint64_t nrels = r->Varint();
  Schema schema;
  for (uint64_t i = 0; i < nrels && !r->failed(); ++i) {
    std::string_view name = r->Str();
    uint64_t arity = r->Varint();
    uint64_t key_arity = r->Varint();
    if (r->failed() || arity > kMaxArity || key_arity > arity) {
      return MalformedPayload("schema signature");
    }
    Status added = schema.AddRelation(name, static_cast<int>(arity),
                                      static_cast<int>(key_arity));
    if (!added.ok()) return added;
  }
  if (r->failed()) return MalformedPayload("schema");
  Database db(std::move(schema));
  uint64_t nfacts = r->Varint();
  for (uint64_t i = 0; i < nfacts && !r->failed(); ++i) {
    Result<Fact> fact = DecodeFact(r);
    if (!fact.ok()) return fact.status();
    Status added = db.AddFact(*fact);
    if (!added.ok()) return added;
  }
  if (r->failed()) return MalformedPayload("database");
  return db;
}

void EncodeRows(Writer* w, const Session::RowSet& rows) {
  w->Varint(rows.size());
  for (const std::vector<SymbolId>& row : rows) {
    w->Varint(row.size());
    for (SymbolId v : row) w->Str(SymbolName(v));
  }
}

Result<Session::RowSet> DecodeRows(Reader* r) {
  uint64_t nrows = r->Varint();
  Session::RowSet rows;
  for (uint64_t i = 0; i < nrows && !r->failed(); ++i) {
    uint64_t width = r->Varint();
    if (r->failed() || width > kMaxArity) return MalformedPayload("row");
    std::vector<SymbolId> row;
    row.reserve(width);
    for (uint64_t j = 0; j < width; ++j) {
      row.push_back(InternSymbol(r->Str()));
    }
    rows.push_back(std::move(row));
  }
  if (r->failed()) return MalformedPayload("rows");
  return rows;
}

// ----------------------------------------------------- request messages

void EncodeHelloRequest(Writer* w, const HelloRequest& m) {
  w->Varint(m.min_version);
  w->Varint(m.max_version);
  w->Str(m.client_name);
}

Result<HelloRequest> DecodeHelloRequest(Reader* r) {
  HelloRequest m;
  m.min_version = r->Varint();
  m.max_version = r->Varint();
  m.client_name = std::string(r->Str());
  if (r->failed()) return MalformedPayload("hello");
  return Finish(r, std::move(m), "hello");
}

void EncodeHelloResponse(Writer* w, const HelloResponse& m) {
  w->Varint(m.version);
  w->Str(m.server_name);
  w->Varint(m.max_payload);
}

Result<HelloResponse> DecodeHelloResponse(Reader* r) {
  HelloResponse m;
  m.version = r->Varint();
  m.server_name = std::string(r->Str());
  m.max_payload = r->Varint();
  if (r->failed()) return MalformedPayload("hello response");
  return Finish(r, std::move(m), "hello response");
}

void EncodeCreateDatabaseRequest(Writer* w, const CreateDatabaseRequest& m) {
  w->Str(m.name);
  EncodeDatabase(w, m.db);
}

Result<CreateDatabaseRequest> DecodeCreateDatabaseRequest(Reader* r) {
  CreateDatabaseRequest m;
  m.name = std::string(r->Str());
  Result<Database> db = DecodeDatabase(r);
  if (!db.ok()) return db.status();
  m.db = *std::move(db);
  return Finish(r, std::move(m), "create_database");
}

void EncodeNameRequest(Writer* w, const NameRequest& m) { w->Str(m.name); }

Result<NameRequest> DecodeNameRequest(Reader* r) {
  NameRequest m;
  m.name = std::string(r->Str());
  if (r->failed()) return MalformedPayload("name");
  return Finish(r, std::move(m), "name");
}

void EncodeNameListResponse(Writer* w, const NameListResponse& m) {
  EncodeStringList(w, m.names);
}

Result<NameListResponse> DecodeNameListResponse(Reader* r) {
  NameListResponse m;
  if (!DecodeStringList(r, &m.names)) return MalformedPayload("name list");
  return Finish(r, std::move(m), "name list");
}

void EncodeOpenStoreResponse(Writer* w, const OpenStoreResponse& m) {
  w->Varint(m.epoch);
  w->Varint(m.replayed);
  w->Bool(m.torn_tail_recovered);
}

Result<OpenStoreResponse> DecodeOpenStoreResponse(Reader* r) {
  OpenStoreResponse m;
  m.epoch = r->Varint();
  m.replayed = r->Varint();
  m.torn_tail_recovered = r->Bool();
  if (r->failed()) return MalformedPayload("open_store response");
  return Finish(r, std::move(m), "open_store response");
}

void EncodePrepareRequest(Writer* w, const PrepareRequest& m) {
  EncodeQuery(w, m.query);
  EncodeStringList(w, m.free_vars);
  w->Str(m.force_solver);
}

Result<PrepareRequest> DecodePrepareRequest(Reader* r) {
  PrepareRequest m;
  Result<Query> q = DecodeQuery(r);
  if (!q.ok()) return q.status();
  m.query = *std::move(q);
  if (!DecodeStringList(r, &m.free_vars)) {
    return MalformedPayload("prepare free_vars");
  }
  m.force_solver = std::string(r->Str());
  if (r->failed()) return MalformedPayload("prepare");
  return Finish(r, std::move(m), "prepare");
}

void EncodePrepareResponse(Writer* w, const PrepareResponse& m) {
  w->Str(m.prepared_id);
  w->Str(m.solver_kind);
  w->Str(m.complexity);
  w->Bool(m.parameterized);
}

Result<PrepareResponse> DecodePrepareResponse(Reader* r) {
  PrepareResponse m;
  m.prepared_id = std::string(r->Str());
  m.solver_kind = std::string(r->Str());
  m.complexity = std::string(r->Str());
  m.parameterized = r->Bool();
  if (r->failed()) return MalformedPayload("prepare response");
  return Finish(r, std::move(m), "prepare response");
}

void EncodeSolveCall(Writer* w, const SolveCall& m) {
  w->Str(m.database);
  w->Str(m.prepared_id);
  EncodeOptionalQuery(w, m.query);
}

Result<SolveCall> DecodeSolveCall(Reader* r) {
  SolveCall m;
  m.database = std::string(r->Str());
  m.prepared_id = std::string(r->Str());
  Result<std::optional<Query>> q = DecodeOptionalQuery(r);
  if (!q.ok()) return q.status();
  m.query = *std::move(q);
  if (r->failed()) return MalformedPayload("solve");
  return m;  // embedded in SolveBatch: no Finish here
}

void EncodeSolveReply(Writer* w, const SolveReply& m) {
  w->Bool(m.certain);
  w->Str(m.solver_kind);
  w->Varint(m.epoch);
}

Result<SolveReply> DecodeSolveReply(Reader* r) {
  SolveReply m;
  m.certain = r->Bool();
  m.solver_kind = std::string(r->Str());
  m.epoch = r->Varint();
  if (r->failed()) return MalformedPayload("solve reply");
  return m;
}

void EncodeSolveBatchRequest(Writer* w, const SolveBatchRequest& m) {
  w->Varint(m.calls.size());
  for (const SolveCall& call : m.calls) EncodeSolveCall(w, call);
}

Result<SolveBatchRequest> DecodeSolveBatchRequest(Reader* r) {
  uint64_t n = r->Varint();
  SolveBatchRequest m;
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    Result<SolveCall> call = DecodeSolveCall(r);
    if (!call.ok()) return call.status();
    m.calls.push_back(*std::move(call));
  }
  if (r->failed()) return MalformedPayload("solve batch");
  return Finish(r, std::move(m), "solve batch");
}

void EncodeSolveBatchResponse(Writer* w, const SolveBatchResponse& m) {
  w->Varint(m.items.size());
  for (const auto& [status, reply] : m.items) {
    EncodeStatus(w, status);
    if (status.ok()) EncodeSolveReply(w, reply);
  }
}

Result<SolveBatchResponse> DecodeSolveBatchResponse(Reader* r) {
  uint64_t n = r->Varint();
  SolveBatchResponse m;
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    Status status = DecodeStatus(r);
    if (r->failed()) return MalformedPayload("solve batch response");
    SolveReply reply;
    if (status.ok()) {
      Result<SolveReply> decoded = DecodeSolveReply(r);
      if (!decoded.ok()) return decoded.status();
      reply = *std::move(decoded);
    }
    m.items.emplace_back(std::move(status), std::move(reply));
  }
  if (r->failed()) return MalformedPayload("solve batch response");
  return Finish(r, std::move(m), "solve batch response");
}

void EncodeCertainAnswersCall(Writer* w, const CertainAnswersCall& m) {
  w->Str(m.database);
  w->Str(m.prepared_id);
  EncodeOptionalQuery(w, m.query);
  EncodeStringList(w, m.free_vars);
  w->Varint(m.page_size);
  w->Str(m.page_token);
}

Result<CertainAnswersCall> DecodeCertainAnswersCall(Reader* r) {
  CertainAnswersCall m;
  m.database = std::string(r->Str());
  m.prepared_id = std::string(r->Str());
  Result<std::optional<Query>> q = DecodeOptionalQuery(r);
  if (!q.ok()) return q.status();
  m.query = *std::move(q);
  if (!DecodeStringList(r, &m.free_vars)) {
    return MalformedPayload("certain_answers free_vars");
  }
  m.page_size = r->Varint();
  m.page_token = std::string(r->Str());
  if (r->failed()) return MalformedPayload("certain_answers");
  return Finish(r, std::move(m), "certain_answers");
}

void EncodeCertainAnswersReply(Writer* w, const CertainAnswersReply& m) {
  EncodeRows(w, m.rows);
  w->Str(m.next_page_token);
  w->Varint(m.total_rows);
  w->Varint(m.epoch);
}

Result<CertainAnswersReply> DecodeCertainAnswersReply(Reader* r) {
  CertainAnswersReply m;
  Result<Session::RowSet> rows = DecodeRows(r);
  if (!rows.ok()) return rows.status();
  m.rows = *std::move(rows);
  m.next_page_token = std::string(r->Str());
  m.total_rows = r->Varint();
  m.epoch = r->Varint();
  if (r->failed()) return MalformedPayload("certain_answers reply");
  return Finish(r, std::move(m), "certain_answers reply");
}

void EncodeApplyDeltaCall(Writer* w, const ApplyDeltaCall& m) {
  w->Str(m.database);
  EncodeDelta(w, m.delta);
}

Result<ApplyDeltaCall> DecodeApplyDeltaCall(Reader* r) {
  ApplyDeltaCall m;
  m.database = std::string(r->Str());
  Result<Delta> delta = DecodeDelta(r);
  if (!delta.ok()) return delta.status();
  m.delta = *std::move(delta);
  return Finish(r, std::move(m), "apply_delta");
}

void EncodeApplyDeltaReply(Writer* w, const ApplyDeltaReply& m) {
  w->Varint(m.epoch);
}

Result<ApplyDeltaReply> DecodeApplyDeltaReply(Reader* r) {
  ApplyDeltaReply m;
  m.epoch = r->Varint();
  if (r->failed()) return MalformedPayload("apply_delta reply");
  return Finish(r, std::move(m), "apply_delta reply");
}

void EncodeStatsCall(Writer* w, const StatsCall& m) { w->Str(m.database); }

Result<StatsCall> DecodeStatsCall(Reader* r) {
  StatsCall m;
  m.database = std::string(r->Str());
  if (r->failed()) return MalformedPayload("stats");
  return Finish(r, std::move(m), "stats");
}

void EncodeStatsReply(Writer* w, const StatsReply& m) {
  w->Varint(m.counters.size());
  for (const auto& [key, value] : m.counters) {
    w->Str(key);
    w->Varint(value);
  }
}

Result<StatsReply> DecodeStatsReply(Reader* r) {
  uint64_t n = r->Varint();
  StatsReply m;
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    std::string key(r->Str());
    uint64_t value = r->Varint();
    if (!r->failed()) m.counters[std::move(key)] = value;
  }
  if (r->failed()) return MalformedPayload("stats reply");
  return Finish(r, std::move(m), "stats reply");
}

void EncodeMetricsReply(Writer* w, const MetricsReply& m) { w->Str(m.text); }

Result<MetricsReply> DecodeMetricsReply(Reader* r) {
  MetricsReply m;
  m.text = std::string(r->Str());
  if (r->failed()) return MalformedPayload("metrics reply");
  return Finish(r, std::move(m), "metrics reply");
}

std::map<std::string, uint64_t> FlattenStats(
    const Service::StatsResponse& stats) {
  std::map<std::string, uint64_t> out;
  out["plan_cache.hits"] = stats.plan_cache.hits;
  out["plan_cache.misses"] = stats.plan_cache.misses;
  out["plan_cache.evictions"] = stats.plan_cache.evictions;
  out["plan_cache.negative_hits"] = stats.plan_cache.negative_hits;
  out["plan_cache.shard_waits"] = stats.plan_cache.shard_waits;
  out["plan_cache.entries"] = stats.plan_cache.entries;
  out["plan_cache.negative_entries"] = stats.plan_cache.negative_entries;
  out["plan_cache.capacity"] = stats.plan_cache.capacity;
  out["session.deltas_applied"] = stats.session.deltas_applied;
  out["session.facts_added"] = stats.session.facts_added;
  out["session.facts_removed"] = stats.session.facts_removed;
  out["session.solves"] = stats.session.solves;
  out["session.answers_cached"] = stats.session.answers_cached;
  out["session.answers_incremental"] = stats.session.answers_incremental;
  out["session.answers_full"] = stats.session.answers_full;
  out["session.answers_covered"] = stats.session.answers_covered;
  out["session.rows_reused"] = stats.session.rows_reused;
  out["session.rows_decided"] = stats.session.rows_decided;
  out["session.parallel_batches"] = stats.session.parallel_batches;
  out["session.parallel_chunks"] = stats.session.parallel_chunks;
  out["session.index_bytes"] = stats.session.index_bytes;
  out["contention.interner_lookups"] = stats.contention.interner_lookups;
  out["contention.interner_misses"] = stats.contention.interner_misses;
  out["contention.interner_symbols"] = stats.contention.interner_symbols;
  out["contention.plan_cache_shard_waits"] =
      stats.contention.plan_cache_shard_waits;
  out["contention.gate_writer_handoffs"] =
      stats.contention.gate_writer_handoffs;
  out["contention.gate_reader_waits"] = stats.contention.gate_reader_waits;
  out["store.durable_databases"] = stats.store.durable_databases;
  out["store.read_only_databases"] = stats.store.read_only_databases;
  out["store.wal_appends"] = stats.store.wal_appends;
  out["store.wal_appended_bytes"] = stats.store.wal_appended_bytes;
  out["store.wal_bytes"] = stats.store.wal_bytes;
  out["store.snapshots_written"] = stats.store.snapshots_written;
  out["store.compaction_failures"] = stats.store.compaction_failures;
  out["store.torn_tails_recovered"] = stats.store.torn_tails_recovered;
  out["store.snapshots_skipped"] = stats.store.snapshots_skipped;
  out["backend.pushed_solves"] = stats.backend.pushed_solves;
  out["backend.pushed_answer_sets"] = stats.backend.pushed_answer_sets;
  out["backend.pushed_row_spans"] = stats.backend.pushed_row_spans;
  out["backend.pushed_rows"] = stats.backend.pushed_rows;
  out["backend.cursors_opened"] = stats.backend.cursors_opened;
  out["backend.fallback_admitted"] = stats.backend.fallback_admitted;
  out["backend.fallback_refused"] = stats.backend.fallback_refused;
  out["backend.loads"] = stats.backend.loads;
  out["backend.mutations_mirrored"] = stats.backend.mutations_mirrored;
  out["backend.transactions_committed"] =
      stats.backend.transactions_committed;
  out["backend.statements_prepared"] = stats.backend.statements_prepared;
  out["backend.statement_cache_hits"] = stats.backend.statement_cache_hits;
  out["backend.sqlite_databases"] = stats.sqlite_databases;
  out["backend.degraded_backends"] = stats.degraded_backends;
  out["service.databases"] = stats.databases;
  out["service.prepared_queries"] = stats.prepared_queries;
  out["service.open_cursors"] = stats.open_cursors;
  for (const auto& [kind, counters] : stats.solvers) {
    std::string prefix = std::string("solver.") + ToString(kind);
    out[prefix + ".calls"] = static_cast<uint64_t>(counters.calls);
    out[prefix + ".certain"] = static_cast<uint64_t>(counters.certain);
  }
  return out;
}

}  // namespace net
}  // namespace cqa
