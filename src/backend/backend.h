#ifndef CQA_BACKEND_BACKEND_H_
#define CQA_BACKEND_BACKEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "plan/query_plan.h"
#include "solvers/solver.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// Pluggable execution backends — where a certainty decision actually
/// runs. The serving tier (serve/session.h) owns the authoritative
/// in-memory `Database` and the compiled `QueryPlan`s. A tenant without
/// a backend (a null `Backend`) serves every decision through the
/// session's own `FoProgram` / solver path; a tenant with one lets it
/// decide how plan evaluation and answer enumeration execute. The one
/// backend is `SqliteBackend` (backend/sqlite_backend.cc, compiled when
/// CQA_WITH_SQLITE is ON): it mirrors the tenant's facts into an
/// embedded SQLite database — a per-tenant file under the tenant dir,
/// or `:memory:` — and executes FO-rewritable plans as plain SQL
/// (fo/sql_lower.h): the ConQuer deployment path, pointed at tenants
/// whose working set should not live in the session's RAM indexes.
///
/// The contract is *decline-based*: every pushdown entry point may
/// answer "not me" (nullopt / null cursor), and the session then serves
/// through its in-memory path, which is always correct. A backend
/// failure degrades the backend (it starts declining), never the
/// session; a deadline that passes inside a pushed statement answers
/// kDeadlineExceeded and degrades nothing. The one per-request gate is
/// `AdmitFallback`, asked once before any entry point: it admits a plan
/// the backend runs itself, and otherwise applies the fallback policy —
/// a SQLite-only tenant with a resident fact budget refuses
/// (kFailedPrecondition) to serve a plan it cannot push down when the
/// database exceeds that budget, the explicit contract for
/// larger-than-RAM tenants instead of a silent full-memory evaluation.
///
/// Thread-safety: the session calls Load and ApplyMutations under its
/// exclusive epoch gate, and the pushdown entry points under the shared
/// gate (possibly from several pool workers at once) — implementations
/// synchronize their own connection state internally.

namespace cqa {

/// Per-database backend selection, carried by `Service::Options` (the
/// default for every database) and per-database `CreateDatabase`.
struct BackendOptions {
  /// kInMemory builds no backend: the tenant serves in memory.
  enum class Kind : uint8_t { kInMemory, kSqlite };
  Kind kind = Kind::kInMemory;
  /// SQLite placement: an explicit directory for the per-tenant file.
  /// Empty = derive from the service's durability dir (the tenant's
  /// store directory) when one exists on the real filesystem, else run
  /// in `:memory:` (pushdown without a file; no snapshot cursors).
  std::string sqlite_dir;
  /// Resident budget for SQLite tenants: when > 0 and the database
  /// holds more facts than this, plans the backend cannot push down
  /// natively are REFUSED (kFailedPrecondition) instead of silently
  /// evaluated in memory. 0 = always fall back.
  size_t resident_budget_facts = 0;
};

class Backend {
 public:
  /// Rows as vectors, distinct and sorted lexicographically: an answer
  /// set or page, and the candidate rows a plan decides
  /// (`Session::RowSet` is this type).
  using RowSet = std::vector<std::vector<SymbolId>>;

  /// One validated primitive mutation of a committed delta (the
  /// session's apply order, insertion-then-removal sequence preserved).
  struct Mutation {
    bool add = false;
    Fact fact;
  };

  /// A paginated view over one certain-answer set pinned to a stable
  /// snapshot (for SQLite, a held read transaction on a dedicated
  /// connection): pages fetched later never see mid-stream deltas.
  class AnswerCursor {
   public:
    virtual ~AnswerCursor() = default;
    /// Rows in the pinned answer set.
    virtual size_t total_rows() const = 0;
    /// Rows [offset, offset + limit) of the set, in set order. A
    /// `deadline` that passes first answers kDeadlineExceeded.
    virtual Result<RowSet> Fetch(size_t offset, size_t limit,
                                 const Deadline& deadline) = 0;
  };

  struct Stats {
    /// Pushdown traffic actually served by the backend.
    uint64_t pushed_solves = 0;       // Boolean certainty via SQL: Solve
                                      // requests and Boolean answer pages
    uint64_t pushed_answer_sets = 0;  // full parameterized answer sets
    uint64_t pushed_row_spans = 0;    // row-decision batches via SQL
    uint64_t pushed_rows = 0;         // rows decided across those batches
    uint64_t cursors_opened = 0;      // snapshot answer cursors
    /// Fallback policy outcomes for plans the backend cannot push down.
    uint64_t fallback_admitted = 0;
    uint64_t fallback_refused = 0;  // kFailedPrecondition refusals
    /// Mirror maintenance.
    uint64_t loads = 0;                   // full mirror rebuilds
    uint64_t mutations_mirrored = 0;      // facts written by deltas
    uint64_t transactions_committed = 0;  // delta transactions
    /// Prepared-statement cache (keyed by plan canonical key). A hit is
    /// one call that runs statements an earlier call prepared; a lookup
    /// that runs none (AdmitFallback) counts none.
    uint64_t statements_prepared = 0;
    uint64_t statement_cache_hits = 0;
    /// True once an execution error degraded the backend to
    /// decline-everything (the session keeps serving in memory).
    bool degraded = false;
  };

  virtual ~Backend() = default;

  /// Rebuilds the backend's mirror from `db` (session construction /
  /// store recovery). Called before any serving. Failure degrades the
  /// backend and is otherwise harmless.
  virtual Status Load(const Database& db) = 0;

  /// Mirrors one committed delta, already applied to the in-memory
  /// database: `mutations` in apply order. Runs under the session's
  /// exclusive gate, after the WAL commit hook and the in-memory
  /// mutation. Failure degrades the backend, never the delta.
  virtual Status ApplyMutations(const std::vector<Mutation>& mutations) = 0;

  /// The per-request gate, asked once before the entry points below.
  /// OK for a plan the backend runs itself (for SQLite: an FO plan whose
  /// program lowers to SQL, and the backend not degraded). Any other
  /// plan is served by the in-memory engine if the policy admits it:
  /// OK admits, kFailedPrecondition refuses (SQLite-only tenant over its
  /// resident budget). `db_facts` is the current fact count.
  virtual Status AdmitFallback(const QueryPlan& plan, size_t db_facts) = 0;

  /// Decides every row of a parameterized plan — the backend-routed
  /// twin of `QueryPlan::IsCertainRows`, REQUIRED to produce identical
  /// verdicts. The session hands the whole batch over in one call,
  /// since the backend's row decisions serialize on its connection.
  /// nullopt declines (the session decides the rows in memory).
  virtual Result<std::optional<std::vector<char>>> DecideRows(
      const QueryPlan& plan, const RowSet& rows,
      const Deadline& deadline) = 0;

  /// Boolean certainty of a parameterless plan, pushed down. nullopt
  /// declines (the session runs plan.Solve); a value must equal what
  /// plan.Solve would answer. The session decides Boolean answer pages
  /// here too: a certain query is always possible.
  virtual Result<std::optional<bool>> SolveCertain(
      const QueryPlan& plan, const Deadline& deadline) = 0;

  /// The full certain-answer set of a parameterized plan (over its
  /// canonical params), pushed down in one statement: candidates
  /// filtered by the rewriting, sorted — the session's
  /// ComputeCertainFull contract. nullopt declines.
  virtual Result<std::optional<RowSet>> CertainAnswerSet(
      const QueryPlan& plan, const Deadline& deadline) = 0;

  /// Opens a snapshot answer cursor for a parameterized plan, or null
  /// to decline (non-native plan, no stable-snapshot support — e.g.
  /// `:memory:` SQLite, where a second connection cannot see the same
  /// data). Counting the pinned set runs under `deadline`. Caller (the
  /// session) serializes the open against deltas.
  virtual Result<std::shared_ptr<AnswerCursor>> OpenAnswerCursor(
      const QueryPlan& plan, const Deadline& deadline) = 0;

  virtual Stats stats() const = 0;

  /// Releases every on-disk resource (the tenant is being dropped).
  virtual void TearDown() {}
};

/// True when this build carries the SQLite backend (CQA_WITH_SQLITE).
bool SqliteBackendAvailable();

/// An embedded-SQLite backend mirroring the tenant into `path` (a
/// filesystem path for a per-tenant file, or empty for `:memory:`).
/// Unsupported when the build has no SQLite (SqliteBackendAvailable()).
Result<std::unique_ptr<Backend>> MakeSqliteBackend(
    const std::string& path, size_t resident_budget_facts);

}  // namespace cqa

#endif  // CQA_BACKEND_BACKEND_H_
