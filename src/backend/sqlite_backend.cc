/// \file
/// The embedded-SQLite execution backend (see backend/backend.h for the
/// contract). Compiled only under CQA_WITH_SQLITE — the whole
/// translation unit is empty otherwise, so default builds need no
/// SQLite anywhere.
///
/// Shape: ONE main connection, serialized by a mutex, owns the mirror —
/// per-relation tables of INTEGER SymbolId columns rebuilt on Load and
/// kept current by a SQL transaction per committed delta. Plan SQL
/// (fo/sql_lower.h) and its prepared statements are cached per plan
/// canonical key. Snapshot answer cursors run on their OWN read-only
/// connection holding a read transaction, so WAL mode gives them a
/// stable snapshot while deltas keep committing on the main connection
/// (`:memory:` databases have no second connection to the same data, so
/// they decline cursors). Every plan statement steps under the request
/// deadline (`StepStatement`). Any unexpected SQLite error *degrades*
/// the backend — it starts declining every pushdown and the session
/// serves from its authoritative in-memory state; a deadline that
/// passes answers kDeadlineExceeded and degrades nothing.

#if defined(CQA_WITH_SQLITE)

#include <sqlite3.h>

#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "backend/backend.h"
#include "fo/sql_lower.h"

namespace cqa {

namespace {

/// SQLite VM instructions between progress-handler deadline polls.
constexpr int kProgressOpStride = 4096;

Status SqliteError(sqlite3* conn, const std::string& what) {
  return Status::Internal("sqlite " + what + ": " +
                          (conn != nullptr ? sqlite3_errmsg(conn) : "?"));
}

int DeadlineProgress(void* arg) {
  return static_cast<const Deadline*>(arg)->Expired() ? 1 : 0;
}

/// Steps `stmt` to its end under `deadline`, handing each result row to
/// `on_row`, then resets it and clears its bindings. A deadline that
/// has passed runs nothing; the progress handler polls it every
/// kProgressOpStride VM instructions, so a statement that runs long
/// before or between its rows stops too. Either way the answer is
/// kDeadlineExceeded, which no caller degrades on; any other failure is
/// Internal.
template <typename OnRow>
Status StepStatement(sqlite3* conn, sqlite3_stmt* stmt,
                     const Deadline& deadline, OnRow&& on_row) {
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired before a SQL statement");
  }
  sqlite3_progress_handler(conn, kProgressOpStride, DeadlineProgress,
                           const_cast<Deadline*>(&deadline));
  int rc;
  while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) on_row(stmt);
  Status st = Status::OK();
  if (rc == SQLITE_INTERRUPT) {
    st = Status::DeadlineExceeded("deadline expired in a SQL statement");
  } else if (rc != SQLITE_DONE) {
    st = SqliteError(conn, "statement step");
  }
  sqlite3_reset(stmt);
  sqlite3_clear_bindings(stmt);
  sqlite3_progress_handler(conn, 0, nullptr, nullptr);
  return st;
}

/// Appends `stmt`'s current row, `width` INTEGER columns, to `rows`.
void AppendRow(sqlite3_stmt* stmt, size_t width, Backend::RowSet* rows) {
  std::vector<SymbolId> row(width);
  for (size_t j = 0; j < width; ++j) {
    row[j] = static_cast<SymbolId>(
        sqlite3_column_int64(stmt, static_cast<int>(j)));
  }
  rows->push_back(std::move(row));
}

/// Finalize-and-null; safe on null.
void Finalize(sqlite3_stmt** stmt) {
  if (*stmt != nullptr) {
    sqlite3_finalize(*stmt);
    *stmt = nullptr;
  }
}

class SqliteCursor : public Backend::AnswerCursor {
 public:
  SqliteCursor(sqlite3* conn, sqlite3_stmt* page_stmt, size_t total,
               size_t width)
      : conn_(conn), page_stmt_(page_stmt), total_(total), width_(width) {}

  ~SqliteCursor() override {
    Finalize(&page_stmt_);
    if (conn_ != nullptr) {
      sqlite3_exec(conn_, "COMMIT", nullptr, nullptr, nullptr);
      sqlite3_close(conn_);
    }
  }

  size_t total_rows() const override { return total_; }

  Result<Backend::RowSet> Fetch(size_t offset, size_t limit,
                                const Deadline& deadline) override {
    std::lock_guard<std::mutex> lock(mu_);
    sqlite3_bind_int64(page_stmt_, 1, static_cast<sqlite3_int64>(limit));
    sqlite3_bind_int64(page_stmt_, 2, static_cast<sqlite3_int64>(offset));
    Backend::RowSet rows;
    CQA_RETURN_NOT_OK(
        StepStatement(conn_, page_stmt_, deadline, [&](sqlite3_stmt* stmt) {
          AppendRow(stmt, width_, &rows);
        }));
    return rows;
  }

 private:
  std::mutex mu_;
  sqlite3* conn_ = nullptr;
  sqlite3_stmt* page_stmt_ = nullptr;
  size_t total_ = 0;
  size_t width_ = 0;
};

class SqliteBackend : public Backend {
 public:
  SqliteBackend(std::string path, size_t budget)
      : path_(std::move(path)),
        file_backed_(!path_.empty()),
        budget_(budget) {}

  ~SqliteBackend() override {
    std::lock_guard<std::mutex> lock(mu_);
    CloseLocked();
  }

  Status Open() {
    std::lock_guard<std::mutex> lock(mu_);
    const char* target = file_backed_ ? path_.c_str() : ":memory:";
    int rc = sqlite3_open_v2(
        target, &conn_,
        SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE | SQLITE_OPEN_NOMUTEX,
        nullptr);
    if (rc != SQLITE_OK) {
      Status st = SqliteError(conn_, "open " + std::string(target));
      CloseLocked();
      return st;
    }
    if (file_backed_) {
      // WAL is what lets a cursor's read transaction snapshot coexist
      // with delta commits on this connection.
      CQA_RETURN_NOT_OK(ExecLocked("PRAGMA journal_mode=WAL"));
      CQA_RETURN_NOT_OK(ExecLocked("PRAGMA synchronous=NORMAL"));
    }
    return Status::OK();
  }

  Status Load(const Database& db) override {
    std::lock_guard<std::mutex> lock(mu_);
    Status st = LoadLocked(db);
    if (!st.ok()) {
      DegradeLocked();
      sqlite3_exec(conn_, "ROLLBACK", nullptr, nullptr, nullptr);
    }
    return st;
  }

  Status ApplyMutations(const std::vector<Mutation>& mutations) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) return Status::FailedPrecondition("sqlite backend degraded");
    Status st = ApplyMutationsLocked(mutations);
    if (!st.ok()) {
      sqlite3_exec(conn_, "ROLLBACK", nullptr, nullptr, nullptr);
      DegradeLocked();
    }
    return st;
  }

  Status AdmitFallback(const QueryPlan& plan, size_t db_facts) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!degraded_ && PlanSqlLocked(plan)->native) return Status::OK();
    if (budget_ > 0 && db_facts > budget_) {
      ++stats_.fallback_refused;
      return Status::FailedPrecondition(
          "plan is not SQL-servable and the tenant exceeds its resident "
          "budget (" +
          std::to_string(db_facts) + " facts > " + std::to_string(budget_) +
          ")");
    }
    ++stats_.fallback_admitted;
    return Status::OK();
  }

  Result<std::optional<std::vector<char>>> DecideRows(
      const QueryPlan& plan, const RowSet& rows,
      const Deadline& deadline) override {
    using Verdicts = std::optional<std::vector<char>>;
    std::lock_guard<std::mutex> lock(mu_);
    PlanSql* sql = NativeSqlLocked(plan, &PlanSql::row_stmt);
    if (sql == nullptr) return Verdicts();
    std::vector<char> out(rows.size(), 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::vector<SymbolId>& row = rows[i];
      for (size_t j = 0; j < row.size(); ++j) {
        sqlite3_bind_int64(sql->row_stmt, static_cast<int>(j) + 1,
                           static_cast<sqlite3_int64>(row[j]));
      }
      Status st = StepStatement(conn_, sql->row_stmt, deadline,
                                [&](sqlite3_stmt* stmt) {
                                  out[i] = sqlite3_column_int(stmt, 0) != 0;
                                });
      if (!st.ok()) return DeclineOrFailLocked<Verdicts>(st);
    }
    ++stats_.pushed_row_spans;
    stats_.pushed_rows += rows.size();
    return Verdicts(std::move(out));
  }

  Result<std::optional<bool>> SolveCertain(const QueryPlan& plan,
                                           const Deadline& deadline) override {
    std::lock_guard<std::mutex> lock(mu_);
    PlanSql* sql = NativeSqlLocked(plan, &PlanSql::bool_solve_stmt);
    if (sql == nullptr) return std::optional<bool>();
    bool certain = false;
    Status st = StepStatement(conn_, sql->bool_solve_stmt, deadline,
                              [&](sqlite3_stmt* stmt) {
                                certain = sqlite3_column_int(stmt, 0) != 0;
                              });
    if (!st.ok()) return DeclineOrFailLocked<std::optional<bool>>(st);
    ++stats_.pushed_solves;
    return std::optional<bool>(certain);
  }

  Result<std::optional<RowSet>> CertainAnswerSet(
      const QueryPlan& plan, const Deadline& deadline) override {
    std::lock_guard<std::mutex> lock(mu_);
    PlanSql* sql = NativeSqlLocked(plan, &PlanSql::answers_stmt);
    if (sql == nullptr) return std::optional<RowSet>();
    RowSet rows;
    Status st = StepStatement(conn_, sql->answers_stmt, deadline,
                              [&](sqlite3_stmt* stmt) {
                                AppendRow(stmt, sql->width, &rows);
                              });
    if (!st.ok()) return DeclineOrFailLocked<std::optional<RowSet>>(st);
    ++stats_.pushed_answer_sets;
    return std::optional<RowSet>(std::move(rows));
  }

  Result<std::shared_ptr<AnswerCursor>> OpenAnswerCursor(
      const QueryPlan& plan, const Deadline& deadline) override {
    using Cursor = std::shared_ptr<AnswerCursor>;
    std::lock_guard<std::mutex> lock(mu_);
    PlanSql* sql = PlanSqlLocked(plan);
    if (degraded_ || !sql->native || sql->width == 0 || !file_backed_) {
      return Cursor();  // decline
    }
    sqlite3* conn = nullptr;
    if (sqlite3_open_v2(path_.c_str(), &conn, SQLITE_OPEN_READONLY, nullptr) !=
        SQLITE_OK) {
      sqlite3_close(conn);
      return Cursor();
    }
    // BEGIN + the COUNT materialize the read snapshot: every later page
    // fetch on this connection sees exactly the rows counted here, no
    // matter how many deltas commit behind it.
    sqlite3_stmt* count_stmt = nullptr;
    sqlite3_stmt* page_stmt = nullptr;
    size_t total = 0;
    Status st = Status::Internal("sqlite cursor open failed");
    if (sqlite3_exec(conn, "BEGIN", nullptr, nullptr, nullptr) == SQLITE_OK &&
        sqlite3_prepare_v2(conn, sql->count_sql.c_str(), -1, &count_stmt,
                           nullptr) == SQLITE_OK) {
      st = StepStatement(conn, count_stmt, deadline, [&](sqlite3_stmt* stmt) {
        total = static_cast<size_t>(sqlite3_column_int64(stmt, 0));
      });
    }
    Finalize(&count_stmt);
    if (st.ok() && sqlite3_prepare_v2(conn, sql->page_sql.c_str(), -1,
                                      &page_stmt, nullptr) != SQLITE_OK) {
      st = SqliteError(conn, "prepare cursor page");
    }
    if (!st.ok()) {
      Finalize(&page_stmt);
      sqlite3_close(conn);
      if (st.code() == StatusCode::kDeadlineExceeded) return st;
      return Cursor();  // decline
    }
    ++stats_.cursors_opened;
    return Cursor(
        std::make_shared<SqliteCursor>(conn, page_stmt, total, sql->width));
  }

  Stats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    Stats out = stats_;
    out.degraded = degraded_;
    return out;
  }

  void TearDown() override {
    std::lock_guard<std::mutex> lock(mu_);
    CloseLocked();
    if (file_backed_) {
      std::remove(path_.c_str());
      std::remove((path_ + "-wal").c_str());
      std::remove((path_ + "-shm").c_str());
    }
  }

 private:
  /// Per-plan compiled SQL, keyed by the plan's canonical cache key. A
  /// Boolean plan has only `bool_solve_stmt`; a parameterized one the
  /// rest.
  struct PlanSql {
    bool native = false;
    size_t width = 0;                      // parameter count
    sqlite3_stmt* row_stmt = nullptr;      // RowDecisionSql
    sqlite3_stmt* answers_stmt = nullptr;  // CertainAnswersSql
    sqlite3_stmt* bool_solve_stmt = nullptr;  // BooleanSolveSql
    std::string count_sql;  // prepared per cursor connection
    std::string page_sql;

    void FinalizeStatements() {
      Finalize(&row_stmt);
      Finalize(&answers_stmt);
      Finalize(&bool_solve_stmt);
    }
  };

  void DegradeLocked() {
    degraded_ = true;
    stats_.degraded = true;
  }

  /// The plan's SQL when the backend runs its statement `stmt` itself,
  /// counting a statement-cache hit when an earlier call prepared it;
  /// null to decline (degraded, a plan that does not lower, or no such
  /// statement for the plan's width).
  PlanSql* NativeSqlLocked(const QueryPlan& plan,
                           sqlite3_stmt* PlanSql::*stmt) {
    bool cached = false;
    PlanSql* sql = PlanSqlLocked(plan, &cached);
    if (degraded_ || !sql->native || sql->*stmt == nullptr) return nullptr;
    if (cached) ++stats_.statement_cache_hits;
    return sql;
  }

  /// A failed pushed statement: a deadline answers kDeadlineExceeded;
  /// anything else degrades the backend and declines, so the session
  /// serves the request in memory.
  template <typename Declined>
  Result<Declined> DeclineOrFailLocked(const Status& st) {
    if (st.code() == StatusCode::kDeadlineExceeded) return st;
    DegradeLocked();
    return Declined();
  }

  Status ExecLocked(const std::string& sql) {
    char* err = nullptr;
    if (sqlite3_exec(conn_, sql.c_str(), nullptr, nullptr, &err) !=
        SQLITE_OK) {
      std::string msg = err != nullptr ? err : "?";
      sqlite3_free(err);
      return Status::Internal("sqlite exec failed (" + sql + "): " + msg);
    }
    return Status::OK();
  }

  /// Prepares `sql`, when it lowered, into `*stmt`.
  Status PrepareLocked(const Result<std::string>& sql, sqlite3_stmt** stmt) {
    if (!sql.ok()) return sql.status();
    if (sqlite3_prepare_v2(conn_, sql->c_str(), -1, stmt, nullptr) !=
        SQLITE_OK) {
      return SqliteError(conn_, "prepare (" + *sql + ")");
    }
    ++stats_.statements_prepared;
    return Status::OK();
  }

  /// Drops every cached statement (table drops invalidate them all).
  void ClearStatementsLocked() {
    for (auto& [rel, stmt] : insert_stmts_) Finalize(&stmt);
    for (auto& [rel, stmt] : delete_stmts_) Finalize(&stmt);
    insert_stmts_.clear();
    delete_stmts_.clear();
    for (auto& [key, sql] : plans_) sql.FinalizeStatements();
    plans_.clear();
  }

  void CloseLocked() {
    ClearStatementsLocked();
    if (conn_ != nullptr) {
      sqlite3_close(conn_);
      conn_ = nullptr;
    }
  }

  Status CreateTableLocked(SymbolId relation, int arity) {
    if (arity <= 0) {
      return Status::Unsupported("zero-arity relation has no SQL table form");
    }
    std::string cols;
    std::string pk;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) {
        cols += ", ";
        pk += ", ";
      }
      cols += SqlColumnName(i) + " INTEGER NOT NULL";
      pk += SqlColumnName(i);
    }
    CQA_RETURN_NOT_OK(ExecLocked("CREATE TABLE IF NOT EXISTS " +
                                 SqlTableName(relation) + " (" + cols +
                                 ", PRIMARY KEY (" + pk +
                                 ")) WITHOUT ROWID"));
    tables_.insert(relation);
    return Status::OK();
  }

  Result<sqlite3_stmt*> InsertStmtLocked(SymbolId relation, int arity) {
    auto it = insert_stmts_.find(relation);
    if (it != insert_stmts_.end()) return it->second;
    std::string marks;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) marks += ", ";
      marks += "?" + std::to_string(i + 1);
    }
    sqlite3_stmt* stmt = nullptr;
    CQA_RETURN_NOT_OK(PrepareLocked("INSERT OR IGNORE INTO " +
                                        SqlTableName(relation) + " VALUES (" +
                                        marks + ")",
                                    &stmt));
    insert_stmts_.emplace(relation, stmt);
    return stmt;
  }

  Result<sqlite3_stmt*> DeleteStmtLocked(SymbolId relation, int arity) {
    auto it = delete_stmts_.find(relation);
    if (it != delete_stmts_.end()) return it->second;
    std::string conds;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) conds += " AND ";
      conds += SqlColumnName(i) + " = ?" + std::to_string(i + 1);
    }
    sqlite3_stmt* stmt = nullptr;
    CQA_RETURN_NOT_OK(PrepareLocked(
        "DELETE FROM " + SqlTableName(relation) + " WHERE " + conds, &stmt));
    delete_stmts_.emplace(relation, stmt);
    return stmt;
  }

  Status BindStepLocked(sqlite3_stmt* stmt, const Fact& fact) {
    for (int i = 0; i < fact.arity(); ++i) {
      sqlite3_bind_int64(stmt, i + 1,
                         static_cast<sqlite3_int64>(fact.values()[i]));
    }
    int rc = sqlite3_step(stmt);
    sqlite3_reset(stmt);
    sqlite3_clear_bindings(stmt);
    if (rc != SQLITE_DONE) return SqliteError(conn_, "mutation step");
    return Status::OK();
  }

  Status LoadLocked(const Database& db) {
    if (conn_ == nullptr) return Status::Internal("sqlite backend not open");
    ClearStatementsLocked();
    // Rebuild from scratch: drop every mirrored table.
    for (SymbolId relation : tables_) {
      CQA_RETURN_NOT_OK(
          ExecLocked("DROP TABLE IF EXISTS " + SqlTableName(relation)));
    }
    tables_.clear();
    for (SymbolId relation : db.schema().relations()) {
      auto sig = db.schema().Find(relation);
      if (!sig.has_value()) continue;
      CQA_RETURN_NOT_OK(CreateTableLocked(relation, sig->arity));
    }
    CQA_RETURN_NOT_OK(ExecLocked("BEGIN IMMEDIATE"));
    for (const Fact& fact : db.facts()) {
      if (tables_.count(fact.relation()) == 0) {
        CQA_RETURN_NOT_OK(CreateTableLocked(fact.relation(), fact.arity()));
      }
      Result<sqlite3_stmt*> stmt =
          InsertStmtLocked(fact.relation(), fact.arity());
      if (!stmt.ok()) return stmt.status();
      CQA_RETURN_NOT_OK(BindStepLocked(*stmt, fact));
    }
    CQA_RETURN_NOT_OK(ExecLocked("COMMIT"));
    ++stats_.loads;
    return Status::OK();
  }

  Status ApplyMutationsLocked(const std::vector<Mutation>& mutations) {
    if (conn_ == nullptr) return Status::Internal("sqlite backend not open");
    CQA_RETURN_NOT_OK(ExecLocked("BEGIN IMMEDIATE"));
    for (const Mutation& m : mutations) {
      if (tables_.count(m.fact.relation()) == 0) {
        // A delta introduced a new relation: validation checked the
        // fact against its signature, so the fact's arity is the table's.
        CQA_RETURN_NOT_OK(
            CreateTableLocked(m.fact.relation(), m.fact.arity()));
      }
      Result<sqlite3_stmt*> stmt =
          m.add ? InsertStmtLocked(m.fact.relation(), m.fact.arity())
                : DeleteStmtLocked(m.fact.relation(), m.fact.arity());
      if (!stmt.ok()) return stmt.status();
      CQA_RETURN_NOT_OK(BindStepLocked(*stmt, m.fact));
    }
    CQA_RETURN_NOT_OK(ExecLocked("COMMIT"));
    stats_.mutations_mirrored += mutations.size();
    ++stats_.transactions_committed;
    return Status::OK();
  }

  /// Compiles (or fetches) the plan's SQL under mu_. Never fails: a
  /// plan whose program is missing or does not lower simply compiles to
  /// native == false and is served in memory. `*cached` (when given)
  /// says whether an earlier call compiled it: the caller counts a
  /// `statement_cache_hits` only when it then executes one of its
  /// statements, so a lookup alone (AdmitFallback) counts nothing.
  PlanSql* PlanSqlLocked(const QueryPlan& plan, bool* cached = nullptr) {
    auto it = plans_.find(plan.cache_key());
    if (cached != nullptr) *cached = it != plans_.end();
    if (it != plans_.end()) return &it->second;
    PlanSql sql;
    sql.width = plan.canonical().params.size();
    const std::shared_ptr<const FoProgram>& program = plan.fo_program();
    if (conn_ != nullptr && program != nullptr) {
      Status st = CompilePlanLocked(plan, *program, &sql);
      if (!st.ok()) {
        // Not SQL-servable (or a prepare failed): serve in memory.
        sql.FinalizeStatements();
        sql.native = false;
      }
    }
    return &plans_.emplace(plan.cache_key(), std::move(sql)).first->second;
  }

  Status CompilePlanLocked(const QueryPlan& plan, const FoProgram& program,
                           PlanSql* sql) {
    // Guard relations referenced by the program might not exist yet as
    // tables (a query over a relation the database has never seen);
    // create them so the statements prepare.
    for (const FoProgram::Op& op : program.ops()) {
      if (op.relation != 0 && tables_.count(op.relation) == 0 &&
          !op.slots.empty()) {
        CQA_RETURN_NOT_OK(
            CreateTableLocked(op.relation, static_cast<int>(op.slots.size())));
      }
    }
    for (const Atom& atom : plan.canonical().query.atoms()) {
      if (tables_.count(atom.relation()) == 0) {
        CQA_RETURN_NOT_OK(CreateTableLocked(atom.relation(), atom.arity()));
      }
    }
    Result<std::vector<std::string>> index_ddl = ProgramIndexDdl(program);
    if (!index_ddl.ok()) return index_ddl.status();
    for (const std::string& ddl : *index_ddl) CQA_RETURN_NOT_OK(ExecLocked(ddl));

    if (sql->width == 0) {
      CQA_RETURN_NOT_OK(
          PrepareLocked(BooleanSolveSql(program), &sql->bool_solve_stmt));
    } else {
      Result<std::string> page =
          CertainAnswersPageSql(plan.canonical(), program);
      if (!page.ok()) return page.status();
      Result<std::string> count =
          CertainAnswersCountSql(plan.canonical(), program);
      if (!count.ok()) return count.status();
      CQA_RETURN_NOT_OK(PrepareLocked(RowDecisionSql(program), &sql->row_stmt));
      CQA_RETURN_NOT_OK(PrepareLocked(
          CertainAnswersSql(plan.canonical(), program), &sql->answers_stmt));
      sql->page_sql = *page;
      sql->count_sql = *count;
    }
    sql->native = true;
    return Status::OK();
  }

  const std::string path_;
  const bool file_backed_;
  const size_t budget_;

  mutable std::mutex mu_;
  sqlite3* conn_ = nullptr;
  bool degraded_ = false;
  std::unordered_set<SymbolId> tables_;
  std::unordered_map<SymbolId, sqlite3_stmt*> insert_stmts_;
  std::unordered_map<SymbolId, sqlite3_stmt*> delete_stmts_;
  std::unordered_map<std::string, PlanSql> plans_;
  Stats stats_;
};

}  // namespace

bool SqliteBackendAvailable() { return true; }

Result<std::unique_ptr<Backend>> MakeSqliteBackend(
    const std::string& path, size_t resident_budget_facts) {
  auto backend = std::make_unique<SqliteBackend>(path, resident_budget_facts);
  CQA_RETURN_NOT_OK(backend->Open());
  return std::unique_ptr<Backend>(std::move(backend));
}

}  // namespace cqa

#endif  // CQA_WITH_SQLITE
