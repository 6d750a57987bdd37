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
/// they decline cursors). Any unexpected SQLite error *degrades* the
/// backend — it starts declining every pushdown and the session serves
/// from its authoritative in-memory state.

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

/// Rows between deadline checks on the per-row decision loop.
constexpr int kDecideDeadlineStride = 256;
/// SQLite VM instructions between progress-handler deadline polls.
constexpr int kProgressOpStride = 4096;

Status SqliteError(sqlite3* conn, const std::string& what) {
  return Status::Internal("sqlite " + what + ": " +
                          (conn != nullptr ? sqlite3_errmsg(conn) : "?"));
}

int DeadlineProgress(void* arg) {
  return static_cast<const Deadline*>(arg)->Expired() ? 1 : 0;
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

  Result<Backend::RowSet> Fetch(size_t offset, size_t limit) override {
    std::lock_guard<std::mutex> lock(mu_);
    sqlite3_bind_int64(page_stmt_, 1, static_cast<sqlite3_int64>(limit));
    sqlite3_bind_int64(page_stmt_, 2, static_cast<sqlite3_int64>(offset));
    Backend::RowSet rows;
    int rc;
    while ((rc = sqlite3_step(page_stmt_)) == SQLITE_ROW) {
      std::vector<SymbolId> row(width_);
      for (size_t j = 0; j < width_; ++j) {
        row[j] = static_cast<SymbolId>(
            sqlite3_column_int64(page_stmt_, static_cast<int>(j)));
      }
      rows.push_back(std::move(row));
    }
    sqlite3_reset(page_stmt_);
    sqlite3_clear_bindings(page_stmt_);
    if (rc != SQLITE_DONE) return SqliteError(conn_, "cursor page fetch");
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

  Status Load(const Database& db, uint64_t epoch) override {
    (void)epoch;
    std::lock_guard<std::mutex> lock(mu_);
    Status st = LoadLocked(db);
    if (!st.ok()) {
      DegradeLocked();
      sqlite3_exec(conn_, "ROLLBACK", nullptr, nullptr, nullptr);
    }
    return st;
  }

  Status ApplyMutations(const std::vector<Mutation>& mutations,
                        const Database& post, uint64_t epoch) override {
    (void)epoch;
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) return Status::FailedPrecondition("sqlite backend degraded");
    Status st = ApplyMutationsLocked(mutations, post);
    if (!st.ok()) {
      sqlite3_exec(conn_, "ROLLBACK", nullptr, nullptr, nullptr);
      DegradeLocked();
    }
    return st;
  }

  bool SupportsNatively(const QueryPlan& plan) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) return false;
    return PlanSqlLocked(plan)->native;
  }

  Status AdmitFallback(const QueryPlan& plan, size_t db_facts) override {
    (void)plan;
    std::lock_guard<std::mutex> lock(mu_);
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

  Result<std::vector<char>> DecideRows(EvalContext& ctx,
                                       const QueryPlan& plan,
                                       const RowSet& rows,
                                       const Deadline& deadline) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool cached = false;
      PlanSql* sql = PlanSqlLocked(plan, &cached);
      if (!degraded_ && sql->native && sql->row_stmt != nullptr) {
        if (cached) ++stats_.statement_cache_hits;
        std::vector<char> out(rows.size(), 0);
        Status st = DecideRowsLocked(sql, rows, &out, deadline);
        if (st.ok()) {
          ++stats_.pushed_row_spans;
          stats_.pushed_rows += rows.size();
          return out;
        }
        if (st.code() == StatusCode::kDeadlineExceeded) return st;
        // Execution error: degrade and decide the rows in memory below.
        DegradeLocked();
      }
    }
    return plan.IsCertainRows(ctx, rows, deadline);
  }

  Result<std::optional<bool>> SolveCertain(const QueryPlan& plan) override {
    std::lock_guard<std::mutex> lock(mu_);
    bool cached = false;
    PlanSql* sql = PlanSqlLocked(plan, &cached);
    if (degraded_ || !sql->native || sql->bool_solve_stmt == nullptr) {
      return std::optional<bool>();  // decline
    }
    if (cached) ++stats_.statement_cache_hits;
    Result<bool> value = StepBoolLocked(sql->bool_solve_stmt);
    if (!value.ok()) {
      DegradeLocked();
      return std::optional<bool>();  // decline; in-memory solve answers
    }
    ++stats_.pushed_solves;
    return std::optional<bool>(*value);
  }

  Result<std::optional<RowSet>> CertainAnswerSet(
      const QueryPlan& plan, const Deadline& deadline) override {
    std::lock_guard<std::mutex> lock(mu_);
    bool cached = false;
    PlanSql* sql = PlanSqlLocked(plan, &cached);
    if (degraded_ || !sql->native) return std::optional<RowSet>();
    if (cached) ++stats_.statement_cache_hits;
    if (sql->width == 0) {
      // Boolean serving: possible AND certain, one row, one column.
      Result<bool> value = StepBoolLocked(sql->bool_certain_stmt);
      if (!value.ok()) {
        DegradeLocked();
        return std::optional<RowSet>();
      }
      RowSet rows;
      if (*value) rows.push_back({});
      ++stats_.pushed_answer_sets;
      return std::optional<RowSet>(std::move(rows));
    }
    sqlite3_progress_handler(conn_, kProgressOpStride, DeadlineProgress,
                             const_cast<Deadline*>(&deadline));
    RowSet rows;
    int rc;
    while ((rc = sqlite3_step(sql->answers_stmt)) == SQLITE_ROW) {
      std::vector<SymbolId> row(sql->width);
      for (size_t j = 0; j < sql->width; ++j) {
        row[j] = static_cast<SymbolId>(
            sqlite3_column_int64(sql->answers_stmt, static_cast<int>(j)));
      }
      rows.push_back(std::move(row));
    }
    sqlite3_reset(sql->answers_stmt);
    sqlite3_progress_handler(conn_, 0, nullptr, nullptr);
    if (rc != SQLITE_DONE) {
      if (rc == SQLITE_INTERRUPT || deadline.Expired()) {
        return Status::DeadlineExceeded(
            "deadline expired in SQL answer enumeration");
      }
      DegradeLocked();
      return std::optional<RowSet>();  // decline; session recomputes
    }
    ++stats_.pushed_answer_sets;
    return std::optional<RowSet>(std::move(rows));
  }

  Result<std::shared_ptr<AnswerCursor>> OpenAnswerCursor(
      const QueryPlan& plan) override {
    std::lock_guard<std::mutex> lock(mu_);
    PlanSql* sql = PlanSqlLocked(plan);
    if (degraded_ || !sql->native || sql->width == 0 || !file_backed_) {
      return std::shared_ptr<AnswerCursor>();  // decline
    }
    sqlite3* conn = nullptr;
    if (sqlite3_open_v2(path_.c_str(), &conn, SQLITE_OPEN_READONLY, nullptr) !=
        SQLITE_OK) {
      sqlite3_close(conn);
      return std::shared_ptr<AnswerCursor>();
    }
    // BEGIN + the COUNT materialize the read snapshot: every later page
    // fetch on this connection sees exactly the rows counted here, no
    // matter how many deltas commit behind it.
    sqlite3_stmt* count_stmt = nullptr;
    sqlite3_stmt* page_stmt = nullptr;
    size_t total = 0;
    bool ok = sqlite3_exec(conn, "BEGIN", nullptr, nullptr, nullptr) ==
                  SQLITE_OK &&
              sqlite3_prepare_v2(conn, sql->count_sql.c_str(), -1, &count_stmt,
                                 nullptr) == SQLITE_OK &&
              sqlite3_step(count_stmt) == SQLITE_ROW;
    if (ok) {
      total = static_cast<size_t>(sqlite3_column_int64(count_stmt, 0));
      ok = sqlite3_prepare_v2(conn, sql->page_sql.c_str(), -1, &page_stmt,
                              nullptr) == SQLITE_OK;
    }
    Finalize(&count_stmt);
    if (!ok) {
      Finalize(&page_stmt);
      sqlite3_close(conn);
      return std::shared_ptr<AnswerCursor>();  // decline
    }
    ++stats_.cursors_opened;
    return std::shared_ptr<AnswerCursor>(
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
  /// Per-plan compiled SQL, keyed by the plan's canonical cache key.
  struct PlanSql {
    bool native = false;
    size_t width = 0;                       // parameter count
    sqlite3_stmt* row_stmt = nullptr;       // RowDecisionSql
    sqlite3_stmt* answers_stmt = nullptr;   // CertainAnswersSql
    sqlite3_stmt* bool_certain_stmt = nullptr;  // BooleanCertainSql
    sqlite3_stmt* bool_solve_stmt = nullptr;    // BooleanSolveSql
    std::string count_sql;  // prepared per cursor connection
    std::string page_sql;
  };

  void DegradeLocked() {
    degraded_ = true;
    stats_.degraded = true;
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

  Result<sqlite3_stmt*> PrepareLocked(const std::string& sql) {
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(conn_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK) {
      return SqliteError(conn_, "prepare (" + sql + ")");
    }
    ++stats_.statements_prepared;
    return stmt;
  }

  /// Drops every cached statement (table drops invalidate them all).
  void ClearStatementsLocked() {
    for (auto& [rel, stmt] : insert_stmts_) Finalize(&stmt);
    for (auto& [rel, stmt] : delete_stmts_) Finalize(&stmt);
    insert_stmts_.clear();
    delete_stmts_.clear();
    for (auto& [key, sql] : plans_) {
      Finalize(&sql.row_stmt);
      Finalize(&sql.answers_stmt);
      Finalize(&sql.bool_certain_stmt);
      Finalize(&sql.bool_solve_stmt);
    }
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
    Result<sqlite3_stmt*> stmt = PrepareLocked(
        "INSERT OR IGNORE INTO " + SqlTableName(relation) + " VALUES (" +
        marks + ")");
    if (stmt.ok()) insert_stmts_.emplace(relation, *stmt);
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
    Result<sqlite3_stmt*> stmt = PrepareLocked(
        "DELETE FROM " + SqlTableName(relation) + " WHERE " + conds);
    if (stmt.ok()) delete_stmts_.emplace(relation, *stmt);
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

  Status ApplyMutationsLocked(const std::vector<Mutation>& mutations,
                              const Database& post) {
    if (conn_ == nullptr) return Status::Internal("sqlite backend not open");
    CQA_RETURN_NOT_OK(ExecLocked("BEGIN IMMEDIATE"));
    for (const Mutation& m : mutations) {
      if (tables_.count(m.fact.relation()) == 0) {
        // A delta introduced a new relation; its signature is now in
        // the post-delta schema.
        auto sig = post.schema().Find(m.fact.relation());
        int arity = sig.has_value() ? sig->arity : m.fact.arity();
        CQA_RETURN_NOT_OK(CreateTableLocked(m.fact.relation(), arity));
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
  /// statements, so a lookup alone (SupportsNatively) counts nothing.
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
        Finalize(&sql.row_stmt);
        Finalize(&sql.answers_stmt);
        Finalize(&sql.bool_certain_stmt);
        Finalize(&sql.bool_solve_stmt);
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
      Result<std::string> certain =
          BooleanCertainSql(plan.canonical(), program);
      if (!certain.ok()) return certain.status();
      Result<std::string> solve = BooleanSolveSql(program);
      if (!solve.ok()) return solve.status();
      Result<sqlite3_stmt*> certain_stmt = PrepareLocked(*certain);
      if (!certain_stmt.ok()) return certain_stmt.status();
      sql->bool_certain_stmt = *certain_stmt;
      Result<sqlite3_stmt*> solve_stmt = PrepareLocked(*solve);
      if (!solve_stmt.ok()) return solve_stmt.status();
      sql->bool_solve_stmt = *solve_stmt;
    } else {
      Result<std::string> row = RowDecisionSql(program);
      if (!row.ok()) return row.status();
      Result<std::string> answers = CertainAnswersSql(plan.canonical(), program);
      if (!answers.ok()) return answers.status();
      Result<std::string> page =
          CertainAnswersPageSql(plan.canonical(), program);
      if (!page.ok()) return page.status();
      Result<std::string> count =
          CertainAnswersCountSql(plan.canonical(), program);
      if (!count.ok()) return count.status();
      Result<sqlite3_stmt*> row_stmt = PrepareLocked(*row);
      if (!row_stmt.ok()) return row_stmt.status();
      sql->row_stmt = *row_stmt;
      Result<sqlite3_stmt*> answers_stmt = PrepareLocked(*answers);
      if (!answers_stmt.ok()) return answers_stmt.status();
      sql->answers_stmt = *answers_stmt;
      sql->page_sql = *page;
      sql->count_sql = *count;
    }
    sql->native = true;
    return Status::OK();
  }

  Result<bool> StepBoolLocked(sqlite3_stmt* stmt) {
    int rc = sqlite3_step(stmt);
    if (rc != SQLITE_ROW) {
      sqlite3_reset(stmt);
      return SqliteError(conn_, "boolean statement step");
    }
    bool value = sqlite3_column_int(stmt, 0) != 0;
    sqlite3_reset(stmt);
    return value;
  }

  Status DecideRowsLocked(PlanSql* sql, const RowSet& rows,
                          std::vector<char>* out, const Deadline& deadline) {
    sqlite3_stmt* stmt = sql->row_stmt;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i % kDecideDeadlineStride == 0 && deadline.Expired()) {
        return Status::DeadlineExceeded("deadline expired deciding rows");
      }
      const std::vector<SymbolId>& row = rows[i];
      for (size_t j = 0; j < row.size(); ++j) {
        sqlite3_bind_int64(stmt, static_cast<int>(j) + 1,
                           static_cast<sqlite3_int64>(row[j]));
      }
      int rc = sqlite3_step(stmt);
      char verdict =
          rc == SQLITE_ROW && sqlite3_column_int(stmt, 0) != 0 ? 1 : 0;
      sqlite3_reset(stmt);
      sqlite3_clear_bindings(stmt);
      if (rc != SQLITE_ROW) return SqliteError(conn_, "row decision step");
      (*out)[i] = verdict;
    }
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
