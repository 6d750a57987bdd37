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
///     and union filters, = and atom-membership are per-row probes.
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
/// The program is the only way production code executes a rewriting.
/// The tree interpreter (fo/evaluator.h) is the oracle it is tested
/// against, exactly like `MatcherMode::kNaive` for the matcher.

namespace cqa {

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
    int child = -1;   // kNot, joins.
    std::vector<int> children;  // kAnd / kOr.
  };

  /// Lowers `formula` into a program whose free variables are exactly
  /// `params`, bound positionally by each input row of EvaluateRows.
  /// Fails when the formula reads a variable that is neither quantified
  /// nor in `params` (the interpreter would assert on the same input).
  static Result<FoProgram> Lower(const FormulaPtr& formula,
                                 const std::vector<SymbolId>& params);

  /// Decides the sentence (params() must be empty), without a deadline.
  bool EvaluateBool(const FactIndex& index) const;

  /// Set-at-a-time batch evaluation of rows[begin, end): entry i of the
  /// returned mask (of size end - begin) is nonzero iff the formula
  /// holds under rows[begin + i] bound positionally to params(). All
  /// rows of the span are decided in one pass over the index. Rows are
  /// independent, so workers splitting one batch into disjoint spans
  /// reproduce the whole-batch result bit for bit; concurrent spans on
  /// the same program and index are safe (both are read-only here).
  /// The executor polls `deadline` at its batch checkpoints (every few
  /// hundred rows / extension flushes) and answers kDeadlineExceeded
  /// once it fires; an unlimited deadline never fails.
  Result<std::vector<char>> EvaluateRows(
      const FactIndex& index, const std::vector<std::vector<SymbolId>>& rows,
      size_t begin, size_t end, const Deadline& deadline = Deadline()) const;

  const std::vector<SymbolId>& params() const { return params_; }
  /// Register count == row width of the execution matrix.
  int width() const { return width_; }
  size_t size() const { return ops_.size(); }
  int root() const { return root_; }
  const std::vector<Op>& ops() const { return ops_; }

  /// Human-readable disassembly (one op per line), for tests and debug.
  std::string ToString() const;

 private:
  FoProgram() = default;

  std::vector<Op> ops_;
  int root_ = -1;
  int width_ = 0;
  std::vector<SymbolId> params_;
};

}  // namespace cqa

#endif  // CQA_FO_PROGRAM_H_
