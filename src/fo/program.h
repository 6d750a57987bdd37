#ifndef CQA_FO_PROGRAM_H_
#define CQA_FO_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cq/matcher.h"
#include "fo/formula.h"
#include "util/deadline.h"
#include "util/status.h"

/// \file
/// Set-at-a-time execution of certain FO rewritings.
///
/// `CertainRewriting` fixes the formula at compile time; what varies per
/// request is the database and the candidate answer rows. The tree
/// interpreter (`FormulaEvaluator`) re-descends the AST once per row and
/// scans whole relations for every guarded quantifier. `FoProgram`
/// instead *lowers* the formula once into a flat physical program whose
/// ops work on batches of rows:
///
///   * a guarded ∃ becomes a **semijoin**: every undecided row probes the
///     guard relation through `FactIndex` (key-prefix bucket when the
///     leading positions are bound, best single-position bucket
///     otherwise, full scan only when nothing is bound), extensions are
///     materialized in chunks, the child program filters a whole chunk,
///     and a row survives iff one of its extensions does;
///   * a guarded ∀ becomes an **antijoin**: same probe, but a row dies as
///     soon as one of its extensions fails the child filter;
///   * ¬ is an antijoin against the child's surviving set, ∧/∨ sequence
///     and union filters, = and atom-membership are per-row probes;
///   * the unguarded domain quantifiers loop over the active domain —
///     they exist for FO completeness but never occur in the rewritings
///     the rewriter emits.
///
/// Lowering drops work nobody reads, by three equivalences:
///
///   * ∀ȳ (G → true) ≡ true: a guarded ∀ whose body is `true` lowers to
///     `true`;
///   * ∃ȳ (G ∧ φ) ≡ (∃ȳ G) ∧ φ when no variable of ȳ is free in φ: a
///     guarded ∃ whose body reads none of the registers its guard binds
///     lowers to `and(semijoin G → true, φ)`. The executor decides a
///     semijoin whose child is `true` by the first matching fact of its
///     probe bucket, materializing no extension;
///   * φ ∧ true ≡ φ: `and` drops its `true` children.
///
/// Registers are never reused across binders, so "reads a register the
/// guard binds" is a scan of the body's read slots. In the certain
/// rewriting of R(x | y), S(y | z) with x free, the rules leave one
/// materializing join (the ∀ over R) where the literal lowering had four.
///
/// Variables are compiled to fixed *registers*; a batch is a flat
/// `rows × width` matrix plus a survivor mask, so the executor never
/// allocates a Valuation, never hashes a variable name, and touches the
/// AST zero times per row. Chunked materialization (kChunkRows) bounds
/// memory and gives semijoins first-witness early exit at chunk
/// granularity, so Boolean sentences keep the interpreter's
/// short-circuit behaviour.
///
/// The tree interpreter stays behind `FoExecMode::kInterpreter` as the
/// differential-testing oracle, exactly like `MatcherMode::kNaive` for
/// the matcher.

namespace cqa {

/// Execution policy of compiled FO plans. kProgram is the production
/// set-at-a-time path; kInterpreter is the retained tree-walking oracle.
enum class FoExecMode { kProgram, kInterpreter };

/// Process-wide default mode. Initialised once from the
/// CQA_FO_INTERPRETER environment variable (unset/"0" -> kProgram).
FoExecMode DefaultFoExecMode();
void SetDefaultFoExecMode(FoExecMode mode);

class FoProgram {
 public:
  /// One operand / atom position of an op: a constant, or a register
  /// that is read (bind == false) or written (bind == true, guarded
  /// quantifiers binding a fresh variable at this position).
  struct Slot {
    bool is_const = false;
    SymbolId value = 0;  // kConst payload.
    int reg = -1;        // register payload.
    bool bind = false;
  };

  struct Op {
    enum class Kind : uint8_t {
      kTrue,
      kFalse,
      kEquals,     // lhs == rhs under the row.
      kContains,   // θ(atom) ∈ index; all slots read.
      kNot,        // row survives iff child rejects it.
      kAnd,        // sequential filters.
      kOr,         // union of child filters (each child sees only the
                   // rows the earlier children rejected).
      kSemiJoin,   // guarded ∃: row survives iff some guard fact
                   // extension passes child.
      kAntiJoin,   // guarded ∀: row survives iff no guard fact
                   // extension fails child.
      kExistsDom,  // ∃ reg ∈ adom: child.
      kForallDom,  // ∀ reg ∈ adom: child.
    };
    Kind kind = Kind::kTrue;
    Slot lhs, rhs;            // kEquals.
    SymbolId relation = 0;    // kContains, kSemiJoin, kAntiJoin.
    int key_arity = 0;        // of the guard / membership atom.
    std::vector<Slot> slots;  // one per atom position.
    /// Number of leading positions statically bound: probed as one
    /// key-prefix bucket when >= 2 (a length-1 prefix is the same
    /// bucket as position 0).
    int prefix_len = 0;
    /// Statically bound positions outside the prefix probe, candidates
    /// for single-position buckets.
    std::vector<int> probe_positions;
    int reg = -1;     // kExistsDom / kForallDom binding register.
    int child = -1;   // kNot, joins, dom loops.
    std::vector<int> children;  // kAnd / kOr.
  };

  /// Lowers `formula` into a program whose free variables are exactly
  /// `params`, bound positionally by each input row of EvaluateRows.
  /// Fails when the formula reads a variable that is neither quantified
  /// nor in `params` (the interpreter would assert on the same input).
  static Result<FoProgram> Lower(const FormulaPtr& formula,
                                 const std::vector<SymbolId>& params);

  /// Decides the sentence (params() must be empty). `adom` is only read
  /// by domain-quantifier ops (see needs_adom()).
  bool EvaluateBool(const FactIndex& index,
                    const std::vector<SymbolId>& adom) const;

  /// Set-at-a-time batch evaluation: out[i] != 0 iff the formula holds
  /// under rows[i] bound positionally to params(). All rows are decided
  /// in one pass over the index.
  std::vector<char> EvaluateRows(
      const FactIndex& index, const std::vector<SymbolId>& adom,
      const std::vector<std::vector<SymbolId>>& rows) const;

  /// Contiguous-span variant for data-parallel execution: decides
  /// rows[begin, end) and returns a mask of size end - begin (entry i
  /// answers rows[begin + i]). Rows are per-row-independent, so
  /// evaluating a span is exactly the batch evaluation of its rows —
  /// workers splitting one batch into disjoint spans reproduce the
  /// whole-batch result bit for bit. Thread-safe against concurrent
  /// spans on the same program and index (both are read-only here).
  std::vector<char> EvaluateRows(
      const FactIndex& index, const std::vector<SymbolId>& adom,
      const std::vector<std::vector<SymbolId>>& rows, size_t begin,
      size_t end) const;

  /// Deadline-aware span evaluation: the executor polls `deadline` at
  /// its batch checkpoints (every few hundred rows / extension
  /// flushes) and abandons the evaluation with kDeadlineExceeded once
  /// it fires. An unlimited deadline adds one branch per checkpoint and
  /// produces exactly the plain EvaluateRows mask.
  Result<std::vector<char>> EvaluateRows(
      const FactIndex& index, const std::vector<SymbolId>& adom,
      const std::vector<std::vector<SymbolId>>& rows, size_t begin,
      size_t end, const Deadline& deadline) const;

  const std::vector<SymbolId>& params() const { return params_; }
  /// Register count == row width of the execution matrix.
  int width() const { return width_; }
  size_t size() const { return ops_.size(); }
  int root() const { return root_; }
  const std::vector<Op>& ops() const { return ops_; }
  /// True when the program contains a domain-quantifier op (callers may
  /// skip computing the active domain otherwise).
  bool needs_adom() const { return needs_adom_; }

  /// Human-readable disassembly (one op per line), for tests and debug.
  std::string ToString() const;

 private:
  FoProgram() = default;

  std::vector<Op> ops_;
  int root_ = -1;
  int width_ = 0;
  std::vector<SymbolId> params_;
  bool needs_adom_ = false;
};

}  // namespace cqa

#endif  // CQA_FO_PROGRAM_H_
