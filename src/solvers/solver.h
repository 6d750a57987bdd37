#ifndef CQA_SOLVERS_SOLVER_H_
#define CQA_SOLVERS_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "fo/evaluator.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// The unified solver layer. Every CERTAINTY(q) decision procedure in the
/// library is an instance of the polymorphic `Solver` interface: it is
/// constructed from (and owns) its query, carries per-instance atomic
/// statistics, and decides databases handed to it at call time. Instances
/// are immutable after construction and safe to share across threads —
/// this is what lets a compiled `QueryPlan` serve concurrent traffic.
///
/// Solvers are created through the `SolverRegistry`, keyed by
/// `SolverKind`; the registry is how the plan compiler maps a complexity
/// class to an implementation, and how tests substitute instrumented
/// solvers without touching the dispatch.
///
/// `EvalContext` bundles the per-thread evaluation state (a lazily built
/// `FactIndex` and `FormulaEvaluator` for one database) so a batch worker
/// reuses one set of indexes across every query it serves instead of
/// rebuilding them per call.

namespace cqa {

/// Identity of a decision procedure. Replaces the old stringly-typed
/// `SolveOutcome::solver` so dispatch tests cannot silently pass on a
/// typo.
enum class SolverKind {
  kFoRewriting,
  kTerminalCycles,
  kAck,
  kCk,
  kSat,
  kOracle,
};

/// Stable wire/display name: "fo-rewriting", "terminal-cycles", "ack",
/// "ck", "sat", "oracle".
const char* ToString(SolverKind kind);

std::ostream& operator<<(std::ostream& os, SolverKind kind);

/// Inverse of ToString; nullopt for unknown names.
std::optional<SolverKind> SolverKindFromString(std::string_view name);

/// Per-call result and metrics of one certainty decision. The SAT fields
/// stay zero off the SAT path.
struct SolverCall {
  bool certain = false;
  int64_t sat_vars = 0;
  int64_t sat_clauses = 0;
  int64_t sat_decisions = 0;
};

/// Per-instance accumulated statistics. Atomic so a solver shared by a
/// plan can be probed while worker threads are using it; copyable so
/// value-semantic solvers (Result<FoSolver>) keep working.
struct SolverStats {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> certain{0};
  std::atomic<int64_t> sat_vars{0};
  std::atomic<int64_t> sat_clauses{0};
  std::atomic<int64_t> sat_decisions{0};

  SolverStats() = default;
  SolverStats(const SolverStats& o) { *this = o; }
  SolverStats& operator=(const SolverStats& o);

  /// Plain-value copy for reporting.
  struct Snapshot {
    int64_t calls = 0;
    int64_t certain = 0;
    int64_t sat_vars = 0;
    int64_t sat_clauses = 0;
    int64_t sat_decisions = 0;
  };
  Snapshot snapshot() const;

  void Record(const SolverCall& call);
};

/// Per-thread evaluation state for one database: the database reference
/// plus lazily built, reusable indexes. Not thread-safe — each serving
/// worker owns one. The solvers that can exploit shared indexes (FO
/// evaluation, SAT embedding enumeration) pull them from here; the rest
/// just read `db()`.
class EvalContext {
 public:
  explicit EvalContext(const Database& db, const Deadline& deadline = {})
      : db_(db), deadline_(deadline) {}

  const Database& db() const { return db_; }

  /// The budget of the decision running on this context. The SAT search
  /// and the repair-enumeration oracle poll it and answer
  /// kDeadlineExceeded; the other solvers run to completion.
  const Deadline& deadline() const { return deadline_; }

  /// Lazily built hash index over db's facts, shared across calls.
  FactIndex& fact_index();

  /// Lazily built FO evaluator. Borrows fact_index() (one set of
  /// buckets per context, not two) and snapshots the active domain.
  const FormulaEvaluator& evaluator();

  // ----------------------------------------------- serving-session hooks
  // A long-lived serving `Session` keeps one EvalContext per worker and
  // patches the lazily built state in place after each database delta
  // instead of rebuilding it (see serve/session.cc). State that was
  // never built needs no patching: its first use reads the post-delta
  // database.

  /// The fact index, when already built (null otherwise).
  FactIndex* fact_index_if_built() {
    return index_.has_value() ? &*index_ : nullptr;
  }

  /// Drops the built FO evaluator, if any. A delta may change the
  /// active domain the evaluator snapshotted, so the session calls this
  /// after every delta; the next `evaluator()` takes a fresh snapshot.
  /// Only the interpreter oracle builds an evaluator (a compiled
  /// program asks for one only for its domain quantifiers, which the
  /// rewritings never contain), so the production path never pays for
  /// the snapshot.
  void ResetEvaluator() { evaluator_.reset(); }

 private:
  const Database& db_;
  Deadline deadline_;
  std::optional<FactIndex> index_;
  std::optional<FormulaEvaluator> evaluator_;
};

/// The unified interface all decision procedures implement. A solver is
/// bound to one query at construction; `Decide` answers db ∈
/// CERTAINTY(q). Implementations must be const-thread-safe: `Decide` and
/// `FindFalsifyingRepair` may run concurrently on one instance.
class Solver {
 public:
  explicit Solver(Query q) : query_(std::move(q)) {}
  virtual ~Solver() = default;

  virtual SolverKind kind() const = 0;
  std::string_view name() const { return ToString(kind()); }
  const Query& query() const { return query_; }

  /// Decides ctx.db() ∈ CERTAINTY(query()) and reports per-call metrics.
  virtual Result<SolverCall> Decide(EvalContext& ctx) const = 0;

  /// A repair of ctx.db() falsifying query(), or nullopt when certain.
  /// The default implementation runs the sound-and-complete SAT search;
  /// solvers with a native witness extraction (Ack) override it.
  virtual Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
      EvalContext& ctx) const;

  /// Convenience entry points creating a one-shot context. These also
  /// accumulate the per-instance stats().
  Result<bool> IsCertain(const Database& db) const;
  Result<bool> IsCertain(EvalContext& ctx) const;
  Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
      const Database& db) const;

  /// Accumulated per-instance statistics (never global, never static).
  SolverStats::Snapshot stats() const { return stats_.snapshot(); }

  /// Accumulates one call into stats(). Exposed for callers that drive
  /// Decide directly to harvest the per-call metrics (QueryPlan::Solve).
  void Record(const SolverCall& call) const { stats_.Record(call); }

 protected:
  Query query_;
  mutable SolverStats stats_;
};

/// Factory: builds a solver of some kind for `q`. `params` is only
/// meaningful for compile-time-parameterized solvers (the FO rewriting);
/// the rest ignore it. Construction is cheap for the P-time solvers
/// (validation happens at Decide time); the FO factory runs the rewriter
/// and fails on cyclic attack graphs.
using SolverFactory = std::function<Result<std::unique_ptr<Solver>>(
    const Query& q, const VarSet& params)>;

/// Registry of solver implementations, keyed by SolverKind. The global
/// registry comes pre-populated with the library's six solvers; tests and
/// extensions may re-register a kind to substitute an implementation.
class SolverRegistry {
 public:
  /// The process-wide registry with the built-ins registered.
  static SolverRegistry& Global();

  /// Registers (or replaces) the factory for `kind`.
  void Register(SolverKind kind, SolverFactory factory);

  /// Builds a solver for `q`. Fails when no factory is registered or the
  /// factory rejects the query.
  Result<std::unique_ptr<Solver>> Create(SolverKind kind, const Query& q,
                                         const VarSet& params = {}) const;

  /// The registered factory for `kind` (empty when none). Lets a plan
  /// capture the factory once at compile time instead of taking the
  /// registry lock on every per-row Create.
  SolverFactory Factory(SolverKind kind) const;

  /// Registered kinds, in enum order.
  std::vector<SolverKind> kinds() const;

 private:
  SolverRegistry();

  mutable std::mutex mu_;
  std::map<SolverKind, SolverFactory> factories_;
};

}  // namespace cqa

#endif  // CQA_SOLVERS_SOLVER_H_
