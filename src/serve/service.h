#ifndef CQA_SERVE_SERVICE_H_
#define CQA_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"
#include "cq/query.h"
#include "db/database.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "serve/session.h"
#include "solvers/solver.h"
#include "store/store.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// One front door. `cqa::Service` is the versioned request/response
/// façade over the whole serving stack: it owns a registry of named
/// databases (each backed by a long-lived `Session` with its persistent
/// worker pool and incremental indexes), a service-local `PlanCache`,
/// and a table of answer cursors — and every piece of traffic flows
/// through explicit request structs:
///
///   Prepare          -> a deduplicated `PreparedQuery` handle pinning
///                       the compiled plan (classification, complexity,
///                       solver kind, FO program) for repeated serving
///   SolveRequest     -> one Boolean CERTAINTY(q) decision
///   CertainAnswers-  -> certain answers with cursor-based pagination:
///     Request           pages stream off the session's copy-on-write
///                       `RowBlock` snapshots, so an open cursor keeps
///                       serving ONE immutable snapshot no matter how
///                       many deltas land behind it
///   DeltaRequest     -> a transactional database mutation
///   StatsRequest     -> plan-cache / session / solver counters, one
///                       consistent snapshot in one place
///
/// Error taxonomy (every entry point returns `Status` / `Result`):
///   InvalidArgument    — malformed request: unknown api_version, both
///                        or neither of {prepared, query}, a bad page
///                        token, a free variable missing from the query
///   NotFound           — database name not in the registry (or, from a
///                        delta, removing an absent fact)
///   FailedPrecondition — request is well-formed but the current state
///                        refuses it: creating a database that already
///                        exists, solving a parameterized handle as a
///                        Boolean query, registry at capacity
///   Unavailable        — transient or degraded: a page token whose
///                        cursor was evicted or whose database was
///                        dropped (retry from the first page), or a
///                        delta against a database whose WAL failed and
///                        is now read-only (reads keep serving)
///   DataLoss           — durable state failed validation on recovery
///                        (mid-log checksum mismatch, broken epoch
///                        chain, no loadable snapshot)
///
/// With `Options::durability.dir` set, every database the service
/// creates is durable: deltas are appended to a per-database
/// write-ahead log BEFORE they mutate the session (store/store.h), the
/// WAL is compacted into checksummed snapshots as it grows, and
/// `OpenStore` recovers a database from disk after a restart — newest
/// valid snapshot plus WAL tail replay, resuming the epoch chain where
/// it left off. This façade is the seam future scenarios (sharding,
/// remote transport, multi-tenant quotas) attach to — and the one
/// `net::Server` already uses: every request struct here has a wire
/// codec (net/codec.h) and the whole API travels over TCP per
/// docs/PROTOCOL.md. docs/ARCHITECTURE.md traces a request through
/// every layer.

namespace cqa {

class Service;

/// A compiled, immutable, shareable query handle. Handles are
/// deduplicated by canonical key: preparing the same (or an
/// α-equivalent) query twice returns the SAME handle, so a fleet of
/// callers naturally converges on one pinned plan. A handle outlives
/// databases and even the Service that minted it — it owns its plan.
class PreparedQuery {
 public:
  /// The dedup identity: the plan's canonical cache key (plus the
  /// forced-solver tag when a solver override was requested).
  const std::string& id() const { return id_; }
  /// The query as the caller wrote it (pre-canonicalization).
  const Query& query() const { return query_; }
  /// Free variables of a non-Boolean handle; empty for Boolean.
  const std::vector<SymbolId>& free_vars() const { return free_vars_; }

  // ------------------------------------------- per-handle introspection
  SolverKind solver_kind() const { return plan_->solver_kind(); }
  ComplexityClass complexity() const { return plan_->complexity(); }
  bool parameterized() const { return plan_->parameterized(); }
  /// Attack-graph diagnostics; nullopt for the SAT-fallback fragments.
  const std::optional<Classification>& classification() const {
    return plan_->classification();
  }
  /// The pinned compiled plan (cached `QueryPlan` + compiled FO
  /// program where applicable).
  const std::shared_ptr<const QueryPlan>& plan() const { return plan_; }

 private:
  friend class Service;
  PreparedQuery(Query query, std::vector<SymbolId> free_vars,
                std::shared_ptr<const QueryPlan> plan, std::string id)
      : query_(std::move(query)),
        free_vars_(std::move(free_vars)),
        plan_(std::move(plan)),
        id_(std::move(id)) {}

  Query query_;
  std::vector<SymbolId> free_vars_;
  std::shared_ptr<const QueryPlan> plan_;
  std::string id_;
};

using PreparedQueryHandle = std::shared_ptr<const PreparedQuery>;

class Service {
 public:
  /// The wire-contract version spoken by this build. Every request
  /// carries `api_version` (defaulted so in-process callers never think
  /// about it); a mismatch is InvalidArgument, which is what lets a
  /// future version evolve the structs without silent misreads.
  static constexpr int kApiVersion = 1;

  struct Options {
    /// Worker threads per database session; 0 = DefaultServingThreads().
    int num_threads = 0;
    /// The service-local plan cache: Prepare and the ad-hoc requests to
    /// every database resolve through it.
    PlanCache::Options plan_cache;
    /// Per-database session tuning. `num_threads`, `initial_epoch` and
    /// `backend` in here are overridden by the service's own, and so are
    /// the commit hooks of a durable database.
    Session::Options session;
    /// Registry capacity.
    size_t max_databases = 64;
    /// Answer pagination: the page size used when a request leaves
    /// `page_size` zero, the cap applied to explicit requests, and how
    /// many cursors (pinned snapshots) may be open before the least
    /// recently used one is evicted (its token then fails Unavailable).
    size_t default_page_size = 256;
    size_t max_page_size = 4096;
    size_t max_open_cursors = 64;
    /// Default execution backend for every database this service
    /// creates (backend/backend.h). kInMemory (the default) builds no
    /// backend: the tenant serves from its session's in-memory engine.
    /// kSqlite mirrors each tenant into an embedded SQLite database and
    /// pushes FO-rewritable plans down as SQL. A per-database override
    /// is available on CreateDatabase.
    BackendOptions backend;
    /// Durable storage. With `dir` empty (the default) databases live
    /// in memory only and the rest of this struct is ignored.
    struct Durability {
      /// Root directory; each database stores under
      /// `<dir>/<escaped name>/`.
      std::string dir;
      /// Filesystem to store through; null = store::Env::Default().
      /// Tests inject a MemEnv or FaultInjectingEnv here.
      store::Env* env = nullptr;
      /// WAL sync policy and buffering (see store/wal.h).
      store::Wal::Options wal;
      /// Snapshot-compact once a WAL exceeds this many bytes; 0
      /// disables compaction.
      uint64_t compaction_threshold_bytes = 4 * 1024 * 1024;
    };
    Durability durability;
  };

  Service() : Service(Options()) {}
  /// Constructs an empty service: no databases, an empty plan cache.
  /// Cheap — sessions (and their worker pools) are created per
  /// database by CreateDatabase/OpenStore, not up front.
  explicit Service(const Options& options);
  /// Drains and joins every database session. Outstanding
  /// PreparedQueryHandles stay valid (they own their plans); page
  /// tokens do not survive the service.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // ------------------------------------------------- database registry
  /// Registers `db` under `name` and spins up its serving session.
  /// FailedPrecondition if the name is taken or the registry is full.
  /// With durability on, the database (WAL + initial snapshot) is on
  /// disk before this returns, and the on-disk directory doubles as the
  /// existence check across restarts.
  Status CreateDatabase(const std::string& name, Database db);
  /// Per-database backend override: like CreateDatabase above but with
  /// an explicit execution backend instead of `Options::backend` (e.g.
  /// one SQLite-backed tenant in an otherwise in-memory service).
  /// Fails Unsupported when a SQLite backend is requested and the build
  /// carries none (CQA_WITH_SQLITE off).
  Status CreateDatabase(const std::string& name, Database db,
                        const BackendOptions& backend_options);
  /// Unregisters the database. The session is marked defunct under its
  /// exclusive epoch gate first, so a delta racing the drop either
  /// commits before it or fails NotFound — never lands on a zombie
  /// session. Every cursor pinned to the database starts failing
  /// Unavailable, and with durability on the on-disk store is deleted.
  Status DropDatabase(const std::string& name);

  /// Recovers a durable database from disk (newest valid snapshot +
  /// WAL tail replay) and registers it under `name`. A torn final WAL
  /// record — the signature of a crash mid-append — is truncated and
  /// reported; checksum corruption anywhere else fails DataLoss.
  /// FailedPrecondition when durability is off or the name is live;
  /// NotFound when no store exists for `name`.
  struct OpenStoreResponse {
    /// Epoch the database resumed at.
    uint64_t epoch = 0;
    /// Deltas replayed from the WAL tail on top of the snapshot.
    uint64_t replayed = 0;
    bool torn_tail_recovered = false;
  };
  Result<OpenStoreResponse> OpenStore(const std::string& name);
  /// Names (unescaped) of the stores under the durability root, sorted;
  /// empty when durability is off.
  std::vector<std::string> ListStores() const;
  /// True iff `name` is currently registered (racy by nature — a
  /// concurrent create/drop can change the answer immediately).
  bool HasDatabase(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> ListDatabases() const;

  // -------------------------------------------------- prepared queries
  struct PrepareOptions {
    /// Force the decision procedure instead of the classifier's choice
    /// (Boolean queries only). `SolverKind::kOracle` turns a handle
    /// into a repair-enumeration cross-check; `kSat` exercises the
    /// fallback on a tractable query. Forced plans bypass the plan
    /// cache and are deduplicated per handle.
    std::optional<SolverKind> force_solver;
  };
  /// Compiles (q, free_vars) through the service plan cache and returns
  /// the deduplicated handle. α-equivalent queries yield the SAME
  /// handle (pointer-equal).
  Result<PreparedQueryHandle> Prepare(const Query& q,
                                      const std::vector<SymbolId>& free_vars,
                                      const PrepareOptions& options);
  Result<PreparedQueryHandle> Prepare(const Query& q) {
    return Prepare(q, {}, {});
  }
  Result<PreparedQueryHandle> Prepare(
      const Query& q, const std::vector<SymbolId>& free_vars) {
    return Prepare(q, free_vars, {});
  }

  // ------------------------------------------------------------ solve
  struct SolveRequest {
    int api_version = kApiVersion;
    std::string database;
    /// Exactly one of `prepared` / `query` must be set. A prepared
    /// handle skips canonicalization and cache lookup entirely; an
    /// ad-hoc query resolves through the service plan cache.
    PreparedQueryHandle prepared;
    std::optional<Query> query;
    /// Time budget for this decision; unlimited by default. Expiry
    /// answers kDeadlineExceeded (the work is abandoned cooperatively).
    Deadline deadline;
  };
  struct SolveResponse {
    SolveOutcome outcome;
    /// The session epoch observed when the decision was served.
    uint64_t epoch = 0;
  };
  /// Decides CERTAINTY(q) — does the query hold in EVERY repair? —
  /// against one consistent database snapshot (the epoch gate is held
  /// shared for the whole call). Thread-safe; any number of Solves may
  /// run concurrently with each other and with paginated streams.
  Result<SolveResponse> Solve(const SolveRequest& request);
  /// Batched decisions over each database's worker pool. Results align
  /// positionally; each item carries its own status.
  std::vector<Result<SolveResponse>> SolveBatch(
      const std::vector<SolveRequest>& requests);

  // -------------------------------------------------- certain answers
  struct CertainAnswersRequest {
    int api_version = kApiVersion;
    std::string database;
    /// First page: exactly one of `prepared` / `query` (with
    /// `free_vars`). Later pages: `page_token` only — the cursor
    /// remembers everything else.
    PreparedQueryHandle prepared;
    std::optional<Query> query;
    std::vector<SymbolId> free_vars;
    /// Rows per page; 0 = Options::default_page_size. May vary page to
    /// page on one cursor.
    size_t page_size = 0;
    /// Empty = start a stream; otherwise the `next_page_token` of the
    /// previous response.
    std::string page_token;
    /// Time budget; unlimited by default. Polled through the whole
    /// decision pipeline (chunk dispatch, FO batch loops) — an expired
    /// request answers kDeadlineExceeded and caches nothing.
    Deadline deadline;
  };
  struct CertainAnswersResponse {
    /// This page of the answer set (rows sorted lexicographically
    /// across the whole stream). For a Boolean query the set is empty
    /// or the single empty row.
    Session::RowSet rows;
    /// Non-empty while more pages remain; feed it back verbatim. All
    /// pages of one stream come from ONE immutable snapshot — deltas
    /// applied mid-stream never tear the result.
    std::string next_page_token;
    /// Total rows in the snapshot the stream serves.
    size_t total_rows = 0;
    /// The session epoch the snapshot was cut at.
    uint64_t epoch = 0;
  };
  /// Serves one page of the certain answers of (query, free_vars) —
  /// the rows true in EVERY repair. A first-page request computes (or
  /// serves from the session's answer cache) the full row set, pins it
  /// as an immutable snapshot in the cursor table, and returns the
  /// first page plus a token; continuations walk that same snapshot.
  /// Unavailable on an evicted cursor (restart the stream).
  Result<CertainAnswersResponse> CertainAnswers(
      const CertainAnswersRequest& request);

  // ------------------------------------------------------------ deltas
  struct DeltaRequest {
    int api_version = kApiVersion;
    std::string database;
    Delta delta;
    /// Time budget. Deltas are transactional, so the deadline is only
    /// checked BEFORE the commit starts — an admitted delta always
    /// commits in full (never half-applied by a timeout).
    Deadline deadline;
  };
  struct DeltaResponse {
    /// The database epoch after the delta.
    uint64_t epoch = 0;
  };
  /// Applies the delta transactionally: every op is validated against
  /// the pre-delta state (an invalid op rejects the whole delta and
  /// mutates nothing), durable databases WAL-append before the
  /// in-memory commit, and the epoch advances by exactly one. Open
  /// answer streams are unaffected — they serve their pinned snapshot.
  Result<DeltaResponse> ApplyDelta(const DeltaRequest& request);

  // ------------------------------------------------------------- stats
  struct StatsRequest {
    int api_version = kApiVersion;
    /// Empty = aggregate over every database; a name selects one
    /// (NotFound if unknown).
    std::string database;
  };
  struct SolverCounters {
    int64_t calls = 0;
    int64_t certain = 0;
  };
  /// Durable-store counters, summed over the selected database(s).
  struct StoreStats {
    size_t durable_databases = 0;
    /// Databases degraded to read-only by a WAL failure.
    size_t read_only_databases = 0;
    uint64_t wal_appends = 0;
    uint64_t wal_appended_bytes = 0;
    /// Live WAL bytes (the distance to the next compaction).
    uint64_t wal_bytes = 0;
    uint64_t snapshots_written = 0;
    uint64_t compaction_failures = 0;
    uint64_t torn_tails_recovered = 0;
    uint64_t snapshots_skipped = 0;
  };
  /// Contention counters across the shared hot-path structures — the
  /// scaling-blocker telemetry a `/metrics` exporter inherits for free.
  /// Interner and plan-cache fields are process-wide (both structures
  /// are shared across databases); gate fields are summed over the
  /// selected database(s), mirroring `session`.
  struct ContentionStats {
    /// String->id probes and first-sight appends of the global interner
    /// (canonicalization traffic; the lock-free id->string direction is
    /// deliberately uncounted).
    uint64_t interner_lookups = 0;
    uint64_t interner_misses = 0;
    size_t interner_symbols = 0;
    /// Plan-cache hit-path probes that found their shard exclusively
    /// locked (PlanCache::Stats::shard_waits).
    uint64_t plan_cache_shard_waits = 0;
    /// Epoch-gate events: writer-to-writer hand-offs at unlock, and
    /// readers parked behind an announced writer.
    uint64_t gate_writer_handoffs = 0;
    uint64_t gate_reader_waits = 0;
  };
  struct StatsResponse {
    /// Atomic snapshot of the service plan cache (see
    /// PlanCache::Snapshot — mutually consistent counters).
    PlanCache::Stats plan_cache;
    /// Session counters, summed over the selected database(s).
    Session::Stats session;
    /// Hot-path contention counters (see ContentionStats).
    ContentionStats contention;
    /// Durability counters (all zero when durability is off).
    StoreStats store;
    size_t databases = 0;
    /// Execution-backend counters, summed over the selected
    /// database(s) (see Backend::Stats); an in-memory tenant has no
    /// backend and adds nothing. `sqlite_databases` counts tenants
    /// served by the SQLite pushdown backend; `degraded_backends` counts
    /// backends that hit an execution failure and fell back to
    /// declining every pushdown.
    Backend::Stats backend;
    size_t sqlite_databases = 0;
    size_t degraded_backends = 0;
    /// Live prepared handles and open pagination cursors.
    size_t prepared_queries = 0;
    size_t open_cursors = 0;
    /// Per-kind decision counters aggregated over the live prepared
    /// handles' pinned solvers.
    std::map<SolverKind, SolverCounters> solvers;
  };
  /// One consistent counter snapshot across every subsystem. This is
  /// the single source the wire tier exports from — net/codec.h's
  /// FlattenStats names these fields for the kStats verb and the
  /// Prometheus exposition (docs/PROTOCOL.md §6.9).
  Result<StatsResponse> Stats(const StatsRequest& request) const;

  /// Flush + fsync every durable database's live WAL (store::DbStore::
  /// Sync). The graceful-drain hook: `net::Server::Shutdown` calls it
  /// after in-flight requests settle so a clean SIGTERM loses nothing
  /// even under SyncPolicy::kNever. Returns the first failure but
  /// still attempts every store. No-op when durability is off.
  Status FlushStores();

 private:
  struct Cursor {
    std::string database;
    /// Exactly one of {snapshot, backend_cursor} is set. A snapshot is
    /// the in-memory answer set, shared with the session's cache; a
    /// backend cursor pages straight out of the execution backend (e.g.
    /// a pinned SQLite read transaction) without ever materializing the
    /// full set.
    std::shared_ptr<const RowBlock> snapshot;
    std::shared_ptr<Backend::AnswerCursor> backend_cursor;
    /// Row count of the stream; mirrors snapshot->size() for the
    /// in-memory flavor.
    size_t total_rows = 0;
    uint64_t epoch = 0;
    size_t page_size = 0;
    uint64_t last_use = 0;  // LRU clock tick
  };

  /// One registered database: its serving session plus, with
  /// durability on, the store its commit hooks write through. The
  /// session's hooks hold the store shared_ptr, so the store outlives
  /// every in-flight delta even across a concurrent drop.
  struct Entry {
    std::shared_ptr<Session> session;
    std::shared_ptr<store::DbStore> store;
    /// The database's execution backend, shared with the session's
    /// options; null for an in-memory tenant.
    std::shared_ptr<Backend> backend;
  };

  /// The session serving `name`, or NotFound. The returned shared_ptr
  /// keeps the session alive across a concurrent DropDatabase.
  Result<std::shared_ptr<Session>> ResolveSession(
      const std::string& name) const;
  bool durable() const { return !options_.durability.dir.empty(); }
  store::Env* store_env() const;
  /// `<durability root>/<escaped name>`.
  std::string StorePath(const std::string& name) const;
  store::DbStore::Options StoreOptions() const;
  /// Builds the execution backend for database `name`: null for
  /// kInMemory. The SQLite flavor resolves its file path here: an explicit
  /// `BackendOptions::sqlite_dir` wins; a durable database on the
  /// default filesystem keeps its mirror inside its own store
  /// directory; anything else (memory-only service, injected test Env)
  /// runs SQLite in `:memory:`.
  Result<std::shared_ptr<Backend>> MakeBackend(
      const std::string& name, const BackendOptions& backend_options) const;
  /// Builds the session for `db` with its commit hooks bound to
  /// `db_store` (null for a memory-only database) and its execution
  /// backend loaded with the initial state.
  std::shared_ptr<Session> MakeSession(
      Database db, const std::shared_ptr<store::DbStore>& db_store,
      uint64_t initial_epoch, const std::shared_ptr<Backend>& backend);
  /// Registers the entry; on failure (name taken / registry full) the
  /// caller still owns the discarded session and store.
  Status RegisterEntry(const std::string& name, Entry entry);
  /// Resolves the (plan, query, free_vars) triple of a request that
  /// carries either a prepared handle or an ad-hoc query.
  Result<std::shared_ptr<const QueryPlan>> ResolvePlan(
      const PreparedQueryHandle& prepared, const std::optional<Query>& query,
      const std::vector<SymbolId>& free_vars, const Query** q_out,
      const std::vector<SymbolId>** fv_out);
  Result<CertainAnswersResponse> ContinueStream(
      const CertainAnswersRequest& request);
  /// Copies rows [offset, end) of the snapshot into a response. Called
  /// OUTSIDE cursors_mu_ — the snapshot is immutable, so the lock only
  /// guards the cursor table itself.
  static CertainAnswersResponse MakePage(const RowBlock& snapshot,
                                         uint64_t epoch, size_t offset,
                                         size_t end);
  /// Inserts the cursor under a fresh id, evicting least-recently-used
  /// entries past `max_open_cursors`. Returns the new cursor's id.
  uint64_t RegisterCursor(Cursor cursor);

  Options options_;
  PlanCache plan_cache_;

  mutable std::mutex registry_mu_;
  std::map<std::string, Entry> databases_;

  mutable std::mutex prepared_mu_;
  std::unordered_map<std::string, std::weak_ptr<const PreparedQuery>>
      prepared_;

  mutable std::mutex cursors_mu_;
  std::unordered_map<uint64_t, Cursor> cursors_;
  uint64_t next_cursor_id_ = 1;
  uint64_t cursor_clock_ = 0;
};

}  // namespace cqa

#endif  // CQA_SERVE_SERVICE_H_
