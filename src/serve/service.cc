#include "serve/service.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace cqa {

namespace {

Status CheckVersion(int api_version) {
  if (api_version == Service::kApiVersion) return Status::OK();
  return Status::InvalidArgument(
      "unsupported api_version " + std::to_string(api_version) +
      " (this service speaks version " +
      std::to_string(Service::kApiVersion) + ")");
}

std::string PageToken(uint64_t cursor_id, size_t offset) {
  return "v1:" + std::to_string(cursor_id) + ":" + std::to_string(offset);
}

/// Inverse of PageToken; false on any malformation (tokens are opaque
/// to clients — anything we did not mint is InvalidArgument).
bool ParsePageToken(const std::string& token, uint64_t* cursor_id,
                    size_t* offset) {
  if (token.compare(0, 3, "v1:") != 0) return false;
  size_t sep = token.find(':', 3);
  if (sep == std::string::npos || sep == 3 || sep + 1 >= token.size()) {
    return false;
  }
  uint64_t id = 0;
  size_t off = 0;
  for (size_t i = 3; i < sep; ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    id = id * 10 + static_cast<uint64_t>(token[i] - '0');
  }
  for (size_t i = sep + 1; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    off = off * 10 + static_cast<size_t>(token[i] - '0');
  }
  *cursor_id = id;
  *offset = off;
  return true;
}

void Accumulate(Session::Stats* into, const Session::Stats& from) {
  into->deltas_applied += from.deltas_applied;
  into->facts_added += from.facts_added;
  into->facts_removed += from.facts_removed;
  into->solves += from.solves;
  into->answers_cached += from.answers_cached;
  into->answers_incremental += from.answers_incremental;
  into->answers_full += from.answers_full;
  into->answers_covered += from.answers_covered;
  into->rows_reused += from.rows_reused;
  into->rows_decided += from.rows_decided;
  into->parallel_batches += from.parallel_batches;
  into->parallel_chunks += from.parallel_chunks;
  into->gate_writer_handoffs += from.gate_writer_handoffs;
  into->gate_reader_waits += from.gate_reader_waits;
  into->index_bytes += from.index_bytes;
}

void AccumulateStore(Service::StoreStats* into,
                     const store::DbStore::Stats& from) {
  ++into->durable_databases;
  if (from.read_only) ++into->read_only_databases;
  into->wal_appends += from.appends;
  into->wal_appended_bytes += from.appended_bytes;
  into->wal_bytes += from.wal_bytes;
  into->snapshots_written += from.snapshots_written;
  into->compaction_failures += from.compaction_failures;
  into->torn_tails_recovered += from.torn_tails_recovered;
  into->snapshots_skipped += from.snapshots_skipped;
}

/// Every backend is a SQLite pushdown backend: an in-memory tenant has
/// none.
void AccumulateBackend(Service::StatsResponse* into, const Backend& backend) {
  Backend::Stats from = backend.stats();
  into->backend.pushed_solves += from.pushed_solves;
  into->backend.pushed_answer_sets += from.pushed_answer_sets;
  into->backend.pushed_row_spans += from.pushed_row_spans;
  into->backend.pushed_rows += from.pushed_rows;
  into->backend.cursors_opened += from.cursors_opened;
  into->backend.fallback_admitted += from.fallback_admitted;
  into->backend.fallback_refused += from.fallback_refused;
  into->backend.loads += from.loads;
  into->backend.mutations_mirrored += from.mutations_mirrored;
  into->backend.transactions_committed += from.transactions_committed;
  into->backend.statements_prepared += from.statements_prepared;
  into->backend.statement_cache_hits += from.statement_cache_hits;
  if (from.degraded) ++into->degraded_backends;
  ++into->sqlite_databases;
}

/// Database names are arbitrary strings; directory names are not.
/// [A-Za-z0-9._-] pass through, everything else becomes %XX — an
/// injective map, so distinct names never collide on disk.
std::string EscapeDbName(const std::string& name) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (unsigned char c : name) {
    bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    // '%' itself must escape (injectivity), and a leading '.' must not
    // produce "." / ".." path components.
    if (plain && c != '%' && !(c == '.' && out.empty())) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

std::optional<std::string> UnescapeDbName(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out.push_back(escaped[i]);
      continue;
    }
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    if (i + 2 >= escaped.size()) return std::nullopt;
    int hi = nibble(escaped[i + 1]);
    int lo = nibble(escaped[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

}  // namespace

Service::Service(const Options& options)
    : options_(options), plan_cache_(options.plan_cache) {}

Service::~Service() = default;

// --------------------------------------------------- database registry

store::Env* Service::store_env() const {
  return options_.durability.env != nullptr ? options_.durability.env
                                            : store::Env::Default();
}

std::string Service::StorePath(const std::string& name) const {
  return store::JoinPath(options_.durability.dir, EscapeDbName(name));
}

store::DbStore::Options Service::StoreOptions() const {
  store::DbStore::Options out;
  out.wal = options_.durability.wal;
  out.compaction_threshold_bytes =
      options_.durability.compaction_threshold_bytes;
  return out;
}

Result<std::shared_ptr<Backend>> Service::MakeBackend(
    const std::string& name, const BackendOptions& backend_options) const {
  if (backend_options.kind == BackendOptions::Kind::kInMemory) {
    return std::shared_ptr<Backend>();
  }
  // SQLite path resolution. The mirror is always a rebuilt-on-open
  // execution replica (the in-memory database stays authoritative), so
  // the only question is where its file may live.
  std::string path;
  if (!backend_options.sqlite_dir.empty()) {
    CQA_RETURN_NOT_OK(
        store::Env::Default()->CreateDirs(backend_options.sqlite_dir));
    path = store::JoinPath(backend_options.sqlite_dir,
                           EscapeDbName(name) + ".sqlite3");
  } else if (durable() && (options_.durability.env == nullptr ||
                           options_.durability.env == store::Env::Default())) {
    // Durable tenant on the real filesystem: keep the mirror inside the
    // tenant's own store directory, so DropDatabase's directory removal
    // reclaims it with everything else.
    path = store::JoinPath(StorePath(name), "backend.sqlite3");
  }
  // else: `:memory:` — a memory-only service, or a test Env (MemEnv /
  // fault injection) whose paths are not real files SQLite could open.
  Result<std::unique_ptr<Backend>> made =
      MakeSqliteBackend(path, backend_options.resident_budget_facts);
  if (!made.ok()) return made.status();
  return std::shared_ptr<Backend>(std::move(*made));
}

std::shared_ptr<Session> Service::MakeSession(
    Database db, const std::shared_ptr<store::DbStore>& db_store,
    uint64_t initial_epoch, const std::shared_ptr<Backend>& backend) {
  Session::Options session_options = options_.session;
  session_options.num_threads = options_.num_threads;
  session_options.initial_epoch = initial_epoch;
  session_options.backend = backend;
  if (backend != nullptr) {
    // A failed load degrades the backend — it starts declining every
    // pushdown and the session serves in-memory — but never blocks the
    // database from coming up.
    Status loaded = backend->Load(db);
    (void)loaded;
  }
  if (db_store != nullptr) {
    // Write-ahead ordering lives here: the commit hook runs after
    // validation and before any in-memory mutation, under the session's
    // exclusive epoch gate.
    session_options.commit_hook = [db_store](const Delta& delta,
                                             uint64_t epoch) {
      return db_store->AppendDelta(delta, epoch);
    };
    session_options.post_commit_hook = [db_store](const Database& post,
                                                  uint64_t epoch) {
      db_store->MaybeCompact(post, epoch);
    };
  }
  return std::make_shared<Session>(std::move(db), session_options);
}

Status Service::RegisterEntry(const std::string& name, Entry entry) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (databases_.count(name) != 0) {
    return Status::FailedPrecondition("database '" + name +
                                      "' already exists");
  }
  if (databases_.size() >= options_.max_databases) {
    return Status::FailedPrecondition(
        "database registry is full (" +
        std::to_string(options_.max_databases) + ")");
  }
  databases_.emplace(name, std::move(entry));
  return Status::OK();
}

Status Service::CreateDatabase(const std::string& name, Database db) {
  return CreateDatabase(name, std::move(db), options_.backend);
}

Status Service::CreateDatabase(const std::string& name, Database db,
                               const BackendOptions& backend_options) {
  if (name.empty()) {
    return Status::InvalidArgument("database name must be non-empty");
  }
  Entry entry;
  if (durable()) {
    // The store's exclusive mkdir is the cross-restart existence check;
    // the initial snapshot + empty WAL are durable before the session
    // (or the registry) ever sees the database.
    CQA_RETURN_NOT_OK(store_env()->CreateDirs(options_.durability.dir));
    Result<std::unique_ptr<store::DbStore>> created = store::DbStore::Create(
        store_env(), StorePath(name), db, /*epoch=*/0, StoreOptions());
    if (!created.ok()) {
      if (created.status().code() == StatusCode::kFailedPrecondition) {
        return Status::FailedPrecondition(
            "database '" + name +
            "' already has durable state; use OpenStore to recover it "
            "or DropDatabase to delete it");
      }
      return created.status();
    }
    entry.store = std::move(*created);
  }
  // The backend resolves after the store exists: a durable SQLite
  // mirror lives inside the store directory created above.
  Result<std::shared_ptr<Backend>> backend = MakeBackend(name, backend_options);
  if (!backend.ok()) {
    if (entry.store != nullptr) {
      entry.store.reset();
      Status cleanup = store_env()->RemoveDirRecursive(StorePath(name));
      (void)cleanup;
    }
    return backend.status();
  }
  entry.backend = *std::move(backend);
  // The session (worker pool and all) is built outside the registry
  // lock; a lost name race just discards it.
  entry.session = MakeSession(std::move(db), entry.store,
                              /*initial_epoch=*/0, entry.backend);
  Status registered = RegisterEntry(name, std::move(entry));
  if (!registered.ok() && durable()) {
    // The name was live in memory; do not leave a second copy on disk.
    Status cleanup = store_env()->RemoveDirRecursive(StorePath(name));
    (void)cleanup;
  }
  return registered;
}

Status Service::DropDatabase(const std::string& name) {
  Entry dropped;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = databases_.find(name);
    if (it == databases_.end()) {
      return Status::NotFound("unknown database '" + name + "'");
    }
    dropped = std::move(it->second);
    databases_.erase(it);
  }
  // Strictly order against in-flight deltas: MarkDefunct takes the
  // session's exclusive epoch gate, so a delta that resolved this
  // session before the drop either committed already or will now fail
  // NotFound instead of landing on a zombie.
  dropped.session->MarkDefunct();
  if (dropped.backend != nullptr) {
    // Close the execution mirror and delete its files before the store
    // directory goes: a live SQLite handle must never race the
    // directory removal below. Open backend cursors keep reading their
    // pinned (now unlinked) snapshot until they close.
    dropped.backend->TearDown();
  }
  if (dropped.store != nullptr) {
    std::string dir = dropped.store->dir();
    dropped.store.reset();  // only the session's hooks may remain
    Status cleanup = store_env()->RemoveDirRecursive(dir);
    (void)cleanup;  // best effort: a dead store dir cannot resurrect
  }
  // Cursors pinned to the dropped database release their snapshots;
  // their tokens start failing Unavailable.
  std::lock_guard<std::mutex> lock(cursors_mu_);
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->second.database == name) {
      it = cursors_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Result<Service::OpenStoreResponse> Service::OpenStore(
    const std::string& name) {
  if (!durable()) {
    return Status::FailedPrecondition(
        "OpenStore requires Options::durability.dir");
  }
  if (name.empty()) {
    return Status::InvalidArgument("database name must be non-empty");
  }
  if (HasDatabase(name)) {
    return Status::FailedPrecondition("database '" + name +
                                      "' is already open");
  }
  std::string dir = StorePath(name);
  if (!store_env()->DirExists(dir)) {
    return Status::NotFound("no store for database '" + name + "' under '" +
                            options_.durability.dir + "'");
  }
  Result<store::DbStore::Recovered> recovered =
      store::DbStore::Open(store_env(), dir, StoreOptions());
  if (!recovered.ok()) return recovered.status();

  Entry entry;
  entry.store = std::move(recovered->store);
  Result<std::shared_ptr<Backend>> backend =
      MakeBackend(name, options_.backend);
  if (!backend.ok()) return backend.status();
  entry.backend = *std::move(backend);
  // Resume the epoch chain where the WAL left off, so post-recovery
  // deltas append with the epochs a future recovery expects.
  entry.session = MakeSession(std::move(recovered->db), entry.store,
                              recovered->epoch, entry.backend);
  CQA_RETURN_NOT_OK(RegisterEntry(name, std::move(entry)));

  OpenStoreResponse response;
  response.epoch = recovered->epoch;
  response.replayed = recovered->replayed;
  response.torn_tail_recovered = recovered->torn_tail;
  return response;
}

std::vector<std::string> Service::ListStores() const {
  std::vector<std::string> names;
  if (!durable()) return names;
  Result<std::vector<std::string>> children =
      store_env()->ListDir(options_.durability.dir);
  if (!children.ok()) return names;
  for (const std::string& child : *children) {
    if (std::optional<std::string> name = UnescapeDbName(child)) {
      names.push_back(*std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool Service::HasDatabase(const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return databases_.count(name) != 0;
}

std::vector<std::string> Service::ListDatabases() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, entry] : databases_) {
    (void)entry;
    names.push_back(name);
  }
  return names;  // std::map iterates sorted.
}

Result<std::shared_ptr<Session>> Service::ResolveSession(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = databases_.find(name);
  if (it == databases_.end()) {
    return Status::NotFound("unknown database '" + name + "'");
  }
  return it->second.session;
}

// ---------------------------------------------------- prepared queries

Result<PreparedQueryHandle> Service::Prepare(
    const Query& q, const std::vector<SymbolId>& free_vars,
    const PrepareOptions& options) {
  std::shared_ptr<const QueryPlan> plan;
  std::string id;
  if (options.force_solver.has_value()) {
    if (!free_vars.empty()) {
      return Status::InvalidArgument(
          "solver override requires a Boolean query");
    }
    Result<std::shared_ptr<const QueryPlan>> forced =
        QueryPlan::CompileForcedSolver(q, *options.force_solver);
    if (!forced.ok()) return forced.status();
    plan = *forced;
    id = plan->cache_key();  // already carries the ";solver=" tag
  } else {
    Result<std::shared_ptr<const QueryPlan>> compiled =
        free_vars.empty() ? plan_cache_.GetOrCompile(q)
                          : plan_cache_.GetOrCompile(q, free_vars);
    if (!compiled.ok()) return compiled.status();
    plan = *compiled;
    id = plan->cache_key();
  }

  std::lock_guard<std::mutex> lock(prepared_mu_);
  auto it = prepared_.find(id);
  if (it != prepared_.end()) {
    if (PreparedQueryHandle live = it->second.lock()) return live;
  }
  PreparedQueryHandle handle(
      new PreparedQuery(q, free_vars, std::move(plan), id));
  prepared_[id] = handle;
  // Opportunistic prune: entries whose last handle died stay behind as
  // expired weak_ptrs; sweep them so the table tracks live handles.
  for (auto sweep = prepared_.begin(); sweep != prepared_.end();) {
    if (sweep->second.expired()) {
      sweep = prepared_.erase(sweep);
    } else {
      ++sweep;
    }
  }
  return handle;
}

// ---------------------------------------------------------------- solve

Result<std::shared_ptr<const QueryPlan>> Service::ResolvePlan(
    const PreparedQueryHandle& prepared, const std::optional<Query>& query,
    const std::vector<SymbolId>& free_vars, const Query** q_out,
    const std::vector<SymbolId>** fv_out) {
  if ((prepared != nullptr) == query.has_value()) {
    return Status::InvalidArgument(
        "exactly one of {prepared, query} must be set");
  }
  if (prepared != nullptr) {
    if (!free_vars.empty()) {
      return Status::InvalidArgument(
          "free_vars travels with ad-hoc queries; a prepared handle "
          "carries its own");
    }
    *q_out = &prepared->query();
    *fv_out = &prepared->free_vars();
    return prepared->plan();
  }
  *q_out = &*query;
  *fv_out = &free_vars;
  return free_vars.empty() ? plan_cache_.GetOrCompile(*query)
                           : plan_cache_.GetOrCompile(*query, free_vars);
}

std::vector<Result<Service::SolveResponse>> Service::SolveBatch(
    const std::vector<SolveRequest>& requests) {
  std::vector<Result<SolveResponse>> results(
      requests.size(),
      Result<SolveResponse>(Status::Internal("batch item not served")));
  // Group by database so each session runs ONE pool pass.
  struct Group {
    std::shared_ptr<Session> session;
    std::vector<size_t> indexes;
    std::vector<std::shared_ptr<const QueryPlan>> plans;
    /// The group's budget: the soonest deadline of its items (one wire
    /// SolveBatch shares one frame deadline, so in practice they agree).
    Deadline deadline;
  };
  std::map<std::string, Group> groups;
  static const std::vector<SymbolId> kNoFreeVars;
  for (size_t i = 0; i < requests.size(); ++i) {
    const SolveRequest& request = requests[i];
    Status version = CheckVersion(request.api_version);
    if (!version.ok()) {
      results[i] = version;
      continue;
    }
    const Query* q = nullptr;
    const std::vector<SymbolId>* fv = nullptr;
    Result<std::shared_ptr<const QueryPlan>> plan =
        ResolvePlan(request.prepared, request.query, kNoFreeVars, &q, &fv);
    if (!plan.ok()) {
      results[i] = plan.status();
      continue;
    }
    if ((*plan)->parameterized()) {
      results[i] = Status::FailedPrecondition(
          "parameterized query cannot be solved as a Boolean request; "
          "use CertainAnswers");
      continue;
    }
    Group& group = groups[request.database];
    if (group.session == nullptr) {
      Result<std::shared_ptr<Session>> session =
          ResolveSession(request.database);
      if (!session.ok()) {
        results[i] = session.status();
        continue;
      }
      group.session = *session;
    }
    group.indexes.push_back(i);
    group.plans.push_back(*plan);
    group.deadline = Deadline::Sooner(group.deadline, request.deadline);
  }
  for (auto& [name, group] : groups) {
    (void)name;
    // A group whose session never resolved holds no indexes (each of
    // its items already carries the NotFound).
    if (group.session == nullptr) continue;
    uint64_t epoch = 0;  // read under the epoch gate: exact
    std::vector<Result<SolveOutcome>> outcomes =
        group.session->SolveBatch(group.plans, &epoch, group.deadline);
    for (size_t j = 0; j < group.indexes.size(); ++j) {
      if (outcomes[j].ok()) {
        results[group.indexes[j]] = SolveResponse{*outcomes[j], epoch};
      } else {
        results[group.indexes[j]] = outcomes[j].status();
      }
    }
  }
  return results;
}

Result<Service::SolveResponse> Service::Solve(const SolveRequest& request) {
  return SolveBatch({request})[0];
}

// ------------------------------------------------------ certain answers

Service::CertainAnswersResponse Service::MakePage(const RowBlock& snapshot,
                                                  uint64_t epoch,
                                                  size_t offset, size_t end) {
  CertainAnswersResponse response;
  response.total_rows = snapshot.size();
  response.epoch = epoch;
  response.rows = snapshot.Rows(offset, end);
  return response;
}

Result<Service::CertainAnswersResponse> Service::ContinueStream(
    const CertainAnswersRequest& request) {
  if (request.prepared != nullptr || request.query.has_value()) {
    return Status::InvalidArgument(
        "page_token continues an existing stream; do not resend the "
        "query");
  }
  uint64_t cursor_id = 0;
  size_t offset = 0;
  if (!ParsePageToken(request.page_token, &cursor_id, &offset)) {
    return Status::InvalidArgument("malformed page token '" +
                                   request.page_token + "'");
  }
  // Under the lock: cursor bookkeeping only (O(1)). The page's rows are
  // materialized AFTER release — an in-memory snapshot is immutable and
  // a backend cursor serializes internally — so concurrent page fetches
  // never queue behind each other's row copies.
  std::shared_ptr<const RowBlock> snapshot;
  std::shared_ptr<Backend::AnswerCursor> backend_cursor;
  uint64_t epoch = 0;
  size_t total = 0;
  size_t end = 0;
  {
    std::lock_guard<std::mutex> lock(cursors_mu_);
    auto it = cursors_.find(cursor_id);
    if (it == cursors_.end()) {
      return Status::Unavailable(
          "page token expired: its cursor was evicted or its database "
          "dropped; restart from the first page");
    }
    Cursor& cursor = it->second;
    if (!request.database.empty() && request.database != cursor.database) {
      return Status::InvalidArgument(
          "page token belongs to database '" + cursor.database +
          "', not '" + request.database + "'");
    }
    total = cursor.snapshot != nullptr ? cursor.snapshot->size()
                                       : cursor.total_rows;
    if (offset > total) {
      return Status::InvalidArgument("page token offset out of range");
    }
    size_t page_size =
        request.page_size > 0
            ? std::min(request.page_size, options_.max_page_size)
            : cursor.page_size;
    snapshot = cursor.snapshot;
    backend_cursor = cursor.backend_cursor;
    epoch = cursor.epoch;
    end = std::min(offset + page_size, total);
    if (end >= total) {
      cursors_.erase(it);  // Stream exhausted; release the snapshot.
    } else {
      cursor.last_use = ++cursor_clock_;
    }
  }
  CertainAnswersResponse response;
  if (snapshot != nullptr) {
    response = MakePage(*snapshot, epoch, offset, end);
  } else {
    // Backend-paged stream: the rows come straight off the backend's
    // pinned read snapshot (e.g. a SQLite read transaction).
    Result<Backend::RowSet> rows =
        backend_cursor->Fetch(offset, end - offset, request.deadline);
    if (!rows.ok()) return rows.status();
    response.rows = *std::move(rows);
    response.total_rows = total;
    response.epoch = epoch;
  }
  if (end < total) {
    response.next_page_token = PageToken(cursor_id, end);
  }
  return response;
}

uint64_t Service::RegisterCursor(Cursor cursor) {
  std::lock_guard<std::mutex> lock(cursors_mu_);
  uint64_t cursor_id = next_cursor_id_++;
  cursor.last_use = ++cursor_clock_;
  cursors_.emplace(cursor_id, std::move(cursor));
  while (cursors_.size() > options_.max_open_cursors) {
    // Evict the least recently used snapshot; its token fails
    // Unavailable from now on.
    auto victim = cursors_.begin();
    for (auto candidate = cursors_.begin(); candidate != cursors_.end();
         ++candidate) {
      if (candidate->second.last_use < victim->second.last_use) {
        victim = candidate;
      }
    }
    cursors_.erase(victim);
  }
  return cursor_id;
}

Result<Service::CertainAnswersResponse> Service::CertainAnswers(
    const CertainAnswersRequest& request) {
  CQA_RETURN_NOT_OK(CheckVersion(request.api_version));
  if (request.deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired before serving");
  }
  if (!request.page_token.empty()) return ContinueStream(request);

  Result<std::shared_ptr<Session>> session =
      ResolveSession(request.database);
  if (!session.ok()) return session.status();
  const Query* q = nullptr;
  const std::vector<SymbolId>* fv = nullptr;
  Result<std::shared_ptr<const QueryPlan>> plan =
      ResolvePlan(request.prepared, request.query, request.free_vars, &q,
                  &fv);
  if (!plan.ok()) return plan.status();

  size_t page_size =
      request.page_size > 0
          ? std::min(request.page_size, options_.max_page_size)
          : options_.default_page_size;

  // Backend cursor pushdown: a parameterized plan the backend executes
  // natively pages straight out of the backend — SQL LIMIT/OFFSET over
  // a pinned read snapshot — without ever materializing the full answer
  // set in session memory. A decline (null cursor) or a first-fetch
  // failure other than the deadline falls through to the materialized
  // path below.
  if ((*plan)->parameterized()) {
    uint64_t cursor_epoch = 0;
    Result<std::shared_ptr<Backend::AnswerCursor>> pushed =
        (*session)->OpenAnswerCursor(*plan, &cursor_epoch, request.deadline);
    if (!pushed.ok()) return pushed.status();
    if (*pushed != nullptr) {
      size_t total = (*pushed)->total_rows();
      size_t end = std::min(page_size, total);
      Result<Backend::RowSet> rows = (*pushed)->Fetch(0, end, request.deadline);
      if (rows.status().code() == StatusCode::kDeadlineExceeded) {
        return rows.status();
      }
      if (rows.ok()) {
        CertainAnswersResponse response;
        response.rows = *std::move(rows);
        response.total_rows = total;
        response.epoch = cursor_epoch;
        if (total <= page_size) {
          return response;  // Single-page result: no cursor to track.
        }
        Cursor cursor;
        cursor.database = request.database;
        cursor.backend_cursor = *std::move(pushed);
        cursor.total_rows = total;
        cursor.epoch = cursor_epoch;
        cursor.page_size = page_size;
        response.next_page_token =
            PageToken(RegisterCursor(std::move(cursor)), end);
        return response;
      }
    }
  }

  uint64_t epoch = 0;
  Result<std::shared_ptr<const RowBlock>> snapshot =
      (*session)->CertainAnswers(*plan, *q, *fv, &epoch, request.deadline);
  if (!snapshot.ok()) return snapshot.status();

  size_t total = (*snapshot)->size();
  size_t end = std::min(page_size, total);
  CertainAnswersResponse response = MakePage(**snapshot, epoch, 0, end);
  if (total <= page_size) {
    return response;  // Single-page result: no cursor to track.
  }

  Cursor cursor;
  cursor.database = request.database;
  cursor.snapshot = *snapshot;
  cursor.total_rows = total;
  cursor.epoch = epoch;
  cursor.page_size = page_size;
  response.next_page_token =
      PageToken(RegisterCursor(std::move(cursor)), end);
  return response;
}

// ---------------------------------------------------------------- deltas

Result<Service::DeltaResponse> Service::ApplyDelta(
    const DeltaRequest& request) {
  CQA_RETURN_NOT_OK(CheckVersion(request.api_version));
  Result<std::shared_ptr<Session>> session =
      ResolveSession(request.database);
  if (!session.ok()) return session.status();
  // Checked only here, before the commit path starts: once admitted,
  // a delta runs to completion — transactionality beats the deadline.
  if (request.deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired before delta commit");
  }
  Result<uint64_t> epoch = (*session)->ApplyDelta(request.delta);
  if (!epoch.ok()) return epoch.status();
  return DeltaResponse{*epoch};
}

Status Service::FlushStores() {
  // Collect the stores under the registry lock, sync them outside it:
  // fsync under registry_mu_ would stall CreateDatabase/DropDatabase.
  std::vector<std::shared_ptr<store::DbStore>> stores;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& [name, entry] : databases_) {
      (void)name;
      if (entry.store != nullptr) stores.push_back(entry.store);
    }
  }
  Status first = Status::OK();
  for (const std::shared_ptr<store::DbStore>& store : stores) {
    Status st = store->Sync();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

// ----------------------------------------------------------------- stats

Result<Service::StatsResponse> Service::Stats(
    const StatsRequest& request) const {
  CQA_RETURN_NOT_OK(CheckVersion(request.api_version));
  StatsResponse response;
  response.plan_cache = plan_cache_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto fold = [&response](const Entry& entry) {
      Accumulate(&response.session, entry.session->stats());
      if (entry.store != nullptr) {
        AccumulateStore(&response.store, entry.store->stats());
      }
      if (entry.backend != nullptr) {
        AccumulateBackend(&response, *entry.backend);
      }
    };
    if (request.database.empty()) {
      response.databases = databases_.size();
      for (const auto& [name, entry] : databases_) {
        (void)name;
        fold(entry);
      }
    } else {
      auto it = databases_.find(request.database);
      if (it == databases_.end()) {
        return Status::NotFound("unknown database '" + request.database +
                                "'");
      }
      response.databases = 1;
      fold(it->second);
    }
  }
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    for (const auto& [id, weak] : prepared_) {
      (void)id;
      PreparedQueryHandle live = weak.lock();
      if (live == nullptr) continue;
      ++response.prepared_queries;
      const Solver* solver = live->plan()->solver();
      if (solver == nullptr) continue;
      SolverStats::Snapshot stats = solver->stats();
      SolverCounters& counters = response.solvers[live->solver_kind()];
      counters.calls += stats.calls;
      counters.certain += stats.certain;
    }
  }
  {
    std::lock_guard<std::mutex> lock(cursors_mu_);
    response.open_cursors = cursors_.size();
  }
  Interner::Stats interner = GlobalInterner().stats();
  response.contention.interner_lookups = interner.lookups;
  response.contention.interner_misses = interner.misses;
  response.contention.interner_symbols = interner.symbols;
  response.contention.plan_cache_shard_waits = response.plan_cache.shard_waits;
  response.contention.gate_writer_handoffs =
      response.session.gate_writer_handoffs;
  response.contention.gate_reader_waits = response.session.gate_reader_waits;
  return response;
}

}  // namespace cqa
