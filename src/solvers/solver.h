#ifndef CQA_SOLVERS_SOLVER_H_
#define CQA_SOLVERS_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "cq/matcher.h"
#include "cq/query.h"
#include "db/database.h"
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
/// Solvers are created by `MakeSolver`, one switch over `SolverKind`:
/// that is how the plan compiler maps a complexity class to an
/// implementation.
///
/// `EvalContext` bundles a decision's evaluation state: the database,
/// the deadline and the `FactIndex` over the database, which a serving
/// session's workers share instead of rebuilding per call.

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

/// Per-call evaluation state for one database: the database, the
/// decision's deadline and the `FactIndex` over the database. A serving
/// `Session` keeps ONE index per tenant and each worker's context borrows
/// it: the index's probes are thread-safe, and the session patches it
/// under its exclusive gate. A context built over a bare database (a
/// direct call, a scoped solve beyond FO) owns an index, built on first
/// use. The solvers that exploit the index (FO evaluation, SAT embedding
/// enumeration) pull it from here; the rest just read `db()`.
class EvalContext {
 public:
  /// A context owning an index over `db`, built on first use.
  explicit EvalContext(const Database& db, const Deadline& deadline = {})
      : db_(db), deadline_(deadline) {}
  /// A context borrowing `index`, which must be over `db` and outlive it.
  EvalContext(const Database& db, const FactIndex& index,
              const Deadline& deadline = {})
      : db_(db), deadline_(deadline), index_(&index) {}

  const Database& db() const { return db_; }

  /// The budget of the decision running on this context. The SAT search
  /// and the repair-enumeration oracle poll it and answer
  /// kDeadlineExceeded; the other solvers run to completion.
  const Deadline& deadline() const { return deadline_; }

  /// The index over db(): the borrowed one, or the owned one, built on
  /// the first call.
  const FactIndex& fact_index();

 private:
  const Database& db_;
  Deadline deadline_;
  const FactIndex* index_ = nullptr;
  std::optional<FactIndex> owned_;
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

/// Builds the solver of `kind` for `q`; a kFoRewriting solver is always
/// an `FoSolver`. `params` is only meaningful for the FO rewriting,
/// which keeps them free; the rest ignore it. Construction is cheap for
/// the P-time solvers (validation happens at Decide time); the FO
/// rewriting runs the rewriter and fails on cyclic attack graphs.
Result<std::unique_ptr<Solver>> MakeSolver(SolverKind kind, const Query& q,
                                           const VarSet& params = {});

}  // namespace cqa

#endif  // CQA_SOLVERS_SOLVER_H_
