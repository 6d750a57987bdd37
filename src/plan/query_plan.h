#ifndef CQA_PLAN_QUERY_PLAN_H_
#define CQA_PLAN_QUERY_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/classifier.h"
#include "cq/canonicalize.h"
#include "cq/query.h"
#include "db/database.h"
#include "solvers/fo_solver.h"
#include "solvers/solver.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// The compiled form of a query. Wijsen's dichotomy makes CERTAINTY(q) a
/// *compile-time* question: classification, attack-graph analysis and
/// (on the FO side) the certain rewriting depend only on q, never on the
/// database. `QueryPlan::Compile` runs all of it once and bundles the
/// results into an immutable, thread-shareable object; solving a
/// database against a plan is then pure evaluation. Plans are produced
/// from the *canonical* form of the query (see cq/canonicalize.h), so
/// one plan serves every α-equivalent query — which is what the
/// `PlanCache` exploits.

namespace cqa {

/// Compile-time key-position metadata of one atom of the canonical
/// query: every key position is a constant, a parameter (a free
/// variable, identified by its positional index in the plan's parameter
/// list), or an existential wildcard.
///
/// This is the plan's handle for *key-prefix pruning* on the database
/// side. A block (relation + key) can participate in an embedding of
/// q[r] only if its key matches some atom's pattern under the row r:
/// constant slots equal the block's key value, parameter slots equal
/// r[param]. Since repairs factor into independent per-block choices,
/// CERTAINTY(q[r]) is invariant under any change to a block matching no
/// pattern — which is what lets the serving session re-decide only the
/// answer rows whose patterns a delta touched, and enumerate candidate
/// rows seeded with the touched key values (see serve/session.cc).
struct AtomKeyPattern {
  struct Slot {
    enum class Kind : uint8_t { kConstant, kParam, kWildcard };
    Kind kind = Kind::kWildcard;
    /// The constant (kConstant) or parameter index (kParam).
    SymbolId constant = 0;
    int param = -1;
  };
  SymbolId relation = 0;
  /// One entry per key position of the atom.
  std::vector<Slot> key;
};

/// The outcome of one certainty decision.
struct SolveOutcome {
  bool certain = false;
  ComplexityClass complexity = ComplexityClass::kFirstOrder;
  /// Which solver produced the answer.
  SolverKind solver = SolverKind::kSat;
  /// Per-call SAT statistics (zero off the SAT path) — surfaced here
  /// instead of through solver globals.
  int64_t sat_vars = 0;
  int64_t sat_clauses = 0;
  int64_t sat_decisions = 0;
};

/// OK iff every variable of `free_vars` occurs in `q` (duplicates are
/// allowed: a repeated free variable just projects the same column
/// twice); InvalidArgument naming the offending variable otherwise. A
/// free variable that never occurs could not be bound by any candidate
/// embedding, so the request is malformed. Shared by the plan compiler,
/// the plan cache (which negatively caches the Status) and the
/// possible-answer enumeration.
Status ValidateFreeVars(const Query& q,
                        const std::vector<SymbolId>& free_vars);

class QueryPlan {
 public:
  /// Compiles a Boolean query: canonicalize, classify (Theorems 1-4),
  /// build the chosen solver (including the FO rewriting when the attack
  /// graph is acyclic). Fails only on malformed queries; the unsupported
  /// fragments (self-joins, non-C(k) cyclic queries) compile to the
  /// sound-and-complete SAT solver.
  static Result<std::shared_ptr<const QueryPlan>> Compile(const Query& q);

  /// Parameterized compile for non-Boolean queries: `free_vars` are kept
  /// free and bound per row at evaluation time (ValidateFreeVars applies).
  /// Classification freezes the parameters (grounding cannot add
  /// attacks, Lemma 5), and on the FO path one parameterized rewriting
  /// serves every binding.
  static Result<std::shared_ptr<const QueryPlan>> Compile(
      const Query& q, const std::vector<SymbolId>& free_vars);

  /// Compile from an already canonicalized query (the PlanCache path —
  /// avoids canonicalizing twice).
  static Result<std::shared_ptr<const QueryPlan>> CompileCanonical(
      CanonicalQuery canonical);

  /// Compiles a Boolean query with the decision procedure FORCED to
  /// `kind` instead of the classifier's choice. Classification still
  /// runs (the plan keeps its diagnostics and true complexity); only
  /// the solver is overridden. This is how `Service` prepared handles
  /// reach every solver — e.g. pinning `SolverKind::kOracle`
  /// to cross-check production answers against repair enumeration, or
  /// `kSat` to exercise the fallback on a tractable query. Fails when
  /// `kind` cannot decide the query (e.g. forcing `kFoRewriting` onto a
  /// non-FO query) or when the query is parameterized. The plan's
  /// `cache_key()` carries a `;solver=` tag so every cache keyed by it
  /// (the Service's handle dedup, a session's answer cache) keeps
  /// forced results apart from the classifier-chosen plan's; forced
  /// plans are still never stored in a `PlanCache`.
  static Result<std::shared_ptr<const QueryPlan>> CompileForcedSolver(
      const Query& q, SolverKind kind);

  // ------------------------------------------------- compile-time facts
  const CanonicalQuery& canonical() const { return canonical_; }
  const std::string& cache_key() const { return canonical_.key; }
  ComplexityClass complexity() const { return complexity_; }
  SolverKind solver_kind() const { return kind_; }
  bool parameterized() const { return !canonical_.params.empty(); }
  /// Attack-graph diagnostics; nullopt for the unsupported fragments
  /// (which fall back to SAT without a classification).
  const std::optional<Classification>& classification() const {
    return classification_;
  }
  /// The compiled solver instance. Null only for parameterized non-FO
  /// plans (their rows are decided by grounding, see IsCertainRow).
  const Solver* solver() const { return solver_.get(); }
  /// The FO solver with the plan's rewriting; null for non-FO plans.
  const FoSolver* fo_solver() const { return fo_; }

  /// The compiled set-at-a-time FO program (parameters positionally
  /// aligned with canonical().params). Null for non-FO plans. This is
  /// what execution backends lower to SQL (fo/sql_lower.h) — a null
  /// program means the plan cannot be pushed down natively.
  const std::shared_ptr<const FoProgram>& fo_program() const {
    return fo_program_;
  }
  /// True when IsCertainRows decides rows with fo_program() (an FO
  /// plan), at a few index probes per row; false when each row costs a
  /// scoped solver call.
  bool DecidesRowsByProgram() const { return fo_program_ != nullptr; }

  /// Per-atom key-position patterns of the canonical query (parameter
  /// indexes positionally aligned with the plan's parameters / the
  /// caller's free_vars). Computed for every plan, including the
  /// SAT-fallback fragments.
  const std::vector<AtomKeyPattern>& key_patterns() const {
    return key_patterns_;
  }

  // ------------------------------------------------------- evaluation
  /// Decides db ∈ CERTAINTY(q) for a Boolean plan. Thread-safe: any
  /// number of threads may Solve one plan concurrently (each with its
  /// own EvalContext).
  ///
  /// FO plans run on `ctx` itself. The terminal-cycle, AC(k), C(k) and
  /// SAT plans run their solver on ctx.db() restricted to the query's
  /// relations: a fact of any other relation lies in no embedding, so
  /// dropping its block preserves certainty (Lemma 1). Forced-oracle
  /// plans enumerate the repairs of the whole database. The FO program
  /// (at its batch checkpoints), the SAT search and the oracle poll
  /// `deadline` and answer kDeadlineExceeded once it expires; the
  /// polynomial solvers run to completion.
  Result<SolveOutcome> Solve(const Database& db) const;
  Result<SolveOutcome> Solve(EvalContext& ctx,
                             const Deadline& deadline = Deadline()) const;

  /// A repair of db falsifying q, or nullopt when certain. Uses the
  /// Theorem 4 witness extraction on AC(k) plans and the SAT search
  /// otherwise.
  Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
      const Database& db) const;

  /// Decides one row of a parameterized plan: `row` binds the canonical
  /// parameters positionally. FO plans evaluate the shared rewriting
  /// under the binding with the tree interpreter over ctx.fact_index()
  /// — this is the row-at-a-time oracle; production row traffic goes
  /// through IsCertainRows. Non-FO plans ground the canonical query and
  /// run the plan's solver kind on it (falling back to a fresh compile
  /// when grounding drifts out of the specialized solver's
  /// precondition).
  Result<bool> IsCertainRow(EvalContext& ctx,
                            const std::vector<SymbolId>& row) const;

  /// Batch row decision, positionally aligned with `rows`. FO plans run
  /// the compiled set-at-a-time program (fo/program.h): every row is
  /// decided in ONE pass over the context's FactIndex, with indexed
  /// probes instead of per-row relation scans. Non-FO plans fall back
  /// to IsCertainRow per row. A non-FO row r is decided on the blocks
  /// that some embedding of q[r] touches, found by a seeded search of the
  /// context's FactIndex; every other block holds only facts in no
  /// embedding, and dropping it preserves CERTAINTY(q[r]) (Lemma 1).
  Result<std::vector<char>> IsCertainRows(
      EvalContext& ctx, const std::vector<std::vector<SymbolId>>& rows,
      const Deadline& deadline = Deadline()) const;

  /// Span variant for data-parallel execution: decides rows[begin, end)
  /// and writes the verdicts into (*out)[begin, end) — `out` must
  /// already have size rows.size(). Rows are decided independently, so
  /// workers covering a batch with disjoint spans (each with its OWN
  /// EvalContext) produce exactly the vector IsCertainRows returns,
  /// without any cross-worker coordination on the output. Entries
  /// outside the span are never touched. `deadline` is polled
  /// cooperatively (per row and inside each row's scoping search and
  /// SAT search on the fallback path, per batch checkpoint on the
  /// FO-program path); expiry abandons the span with kDeadlineExceeded
  /// and leaves its output entries unspecified.
  Status IsCertainRowSpan(EvalContext& ctx,
                          const std::vector<std::vector<SymbolId>>& rows,
                          size_t begin, size_t end, std::vector<char>* out,
                          const Deadline& deadline = Deadline()) const;

 private:
  QueryPlan() = default;

  /// The shared compile path: classification, key patterns, and the
  /// solver of kind `forced`, or the classifier's choice when unset.
  static Result<std::shared_ptr<const QueryPlan>> CompileWith(
      CanonicalQuery canonical, std::optional<SolverKind> forced);

  /// The blocks of ctx.db() that some embedding of q[row] touches, as a
  /// database of their facts in their order in ctx.db(). Polls
  /// `deadline` every 256 embeddings.
  Result<Database> ScopeRow(EvalContext& ctx,
                            const std::vector<SymbolId>& row,
                            const Deadline& deadline) const;

  CanonicalQuery canonical_;
  /// The relations of the canonical query: what a non-FO Boolean solve
  /// restricts the database to.
  std::unordered_set<SymbolId> relations_;
  std::vector<AtomKeyPattern> key_patterns_;
  std::optional<Classification> classification_;
  ComplexityClass complexity_ = ComplexityClass::kOpenConjecturedPtime;
  SolverKind kind_ = SolverKind::kSat;
  std::unique_ptr<const Solver> solver_;
  /// The FoSolver view of solver_ (null for non-FO plans).
  const FoSolver* fo_ = nullptr;
  /// The set-at-a-time program, cached alongside the rewriting: for
  /// Boolean FO plans the solver's own program, for parameterized FO
  /// plans a lowering whose parameters follow the plan's positional
  /// order (canonical_.params). Null for non-FO plans.
  std::shared_ptr<const FoProgram> fo_program_;
};

}  // namespace cqa

#endif  // CQA_PLAN_QUERY_PLAN_H_
