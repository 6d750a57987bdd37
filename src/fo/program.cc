#include "fo/program.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <unordered_map>

namespace cqa {

// ----------------------------------------------------------- lowering

namespace {

using Op = FoProgram::Op;
using Slot = FoProgram::Slot;

/// Recursive lowering state: the op buffer under construction plus the
/// static binding environment (variable -> register). The environment
/// mirrors exactly what the interpreter's Valuation would contain at
/// each node, so "statically bound" and "bound at evaluation time"
/// coincide on well-scoped formulas.
class Lowerer {
 public:
  Lowerer(std::vector<Op>* ops, int first_free_reg)
      : ops_(ops), next_reg_(first_free_reg) {}

  std::unordered_map<SymbolId, int>& env() { return env_; }
  int width() const { return next_reg_; }

  Result<int> Lower(const Formula& f);

 private:
  Result<Slot> ReadTerm(const Term& t) const {
    Slot s;
    if (t.is_const()) {
      s.is_const = true;
      s.value = t.id();
      return s;
    }
    auto it = env_.find(t.id());
    if (it == env_.end()) {
      return Status::InvalidArgument(
          "formula reads unbound variable '" + SymbolName(t.id()) +
          "' (not quantified and not a program parameter)");
    }
    s.reg = it->second;
    return s;
  }

  Result<int> LowerGuard(const Formula& f, Op::Kind kind);

  int Emit(Op op) {
    ops_->push_back(std::move(op));
    return static_cast<int>(ops_->size()) - 1;
  }

  int EmitTrue() {
    Op op;
    op.kind = Op::Kind::kTrue;
    return Emit(std::move(op));
  }

  bool IsTrue(int op) const { return (*ops_)[op].kind == Op::Kind::kTrue; }

  /// True when an op emitted at or after `first` reads a register of
  /// `regs`. Ops are emitted in post-order, so the ops from a mark taken
  /// before lowering a subformula are exactly that subformula's.
  bool ReadsAny(size_t first, const std::vector<int>& regs) const {
    auto reads = [&](const Slot& s) {
      return !s.is_const && !s.bind &&
             std::find(regs.begin(), regs.end(), s.reg) != regs.end();
    };
    for (size_t i = first; i < ops_->size(); ++i) {
      const Op& op = (*ops_)[i];
      if (op.kind == Op::Kind::kEquals && (reads(op.lhs) || reads(op.rhs))) {
        return true;
      }
      if (std::any_of(op.slots.begin(), op.slots.end(), reads)) return true;
    }
    return false;
  }

  std::vector<Op>* ops_;
  std::unordered_map<SymbolId, int> env_;
  int next_reg_;
};

Result<int> Lowerer::LowerGuard(const Formula& f, Op::Kind kind) {
  const Atom& a = f.atom();
  Op op;
  op.kind = kind;
  op.relation = a.relation();
  op.key_arity = a.key_arity();
  op.slots.reserve(a.arity());
  std::vector<SymbolId> fresh;  // variables this guard binds.
  std::vector<int> fresh_regs;  // and their registers.
  // A position can seed an index probe only when its value is known
  // BEFORE the guard runs: a constant, or a register bound by an outer
  // scope. A check slot whose register this same atom binds at an
  // earlier position (repeated variable, e.g. R(x | x)) is verified by
  // MatchBind but cannot be probed.
  std::vector<bool> probeable;
  for (const Term& t : a.terms()) {
    Slot s;
    bool can_probe = false;
    if (t.is_const()) {
      s.is_const = true;
      s.value = t.id();
      can_probe = true;
    } else if (auto it = env_.find(t.id()); it != env_.end()) {
      s.reg = it->second;  // Bound: the position is a check.
      can_probe = std::find(fresh.begin(), fresh.end(), t.id()) ==
                  fresh.end();
    } else {
      s.reg = next_reg_++;
      s.bind = true;
      env_.emplace(t.id(), s.reg);
      fresh.push_back(t.id());
      fresh_regs.push_back(s.reg);
    }
    op.slots.push_back(s);
    probeable.push_back(can_probe);
  }
  // Probe plan: a run of >= 2 probeable leading positions is one
  // key-prefix bucket (a length-1 prefix is the position-0 bucket); all
  // probeable positions stay candidates for single-position buckets,
  // and the executor picks the smallest at run time.
  int leading = 0;
  while (leading < a.arity() && probeable[leading]) ++leading;
  op.prefix_len = leading >= 2 ? leading : 0;
  for (int i = 0; i < a.arity(); ++i) {
    if (probeable[i]) op.probe_positions.push_back(i);
  }

  const size_t body_start = ops_->size();
  Result<int> child = Lower(*f.children()[0]);
  for (SymbolId v : fresh) env_.erase(v);
  if (!child.ok()) return child.status();
  if (kind == Op::Kind::kAntiJoin && IsTrue(*child)) {
    // ∀ȳ (G → true) ≡ true.
    ops_->resize(body_start);
    return EmitTrue();
  }
  if (kind == Op::Kind::kSemiJoin && !IsTrue(*child) &&
      !ReadsAny(body_start, fresh_regs)) {
    // ∃ȳ (G ∧ φ) ≡ (∃ȳ G) ∧ φ when ȳ ∉ free(φ): the guard becomes a
    // membership test that materializes no extension.
    op.child = EmitTrue();
    Op conj;
    conj.kind = Op::Kind::kAnd;
    conj.children = {Emit(std::move(op)), *child};
    return Emit(std::move(conj));
  }
  op.child = *child;
  return Emit(std::move(op));
}

Result<int> Lowerer::Lower(const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      return EmitTrue();
    case Formula::Kind::kFalse: {
      Op op;
      op.kind = Op::Kind::kFalse;
      return Emit(std::move(op));
    }
    case Formula::Kind::kEquals: {
      Op op;
      op.kind = Op::Kind::kEquals;
      Result<Slot> lhs = ReadTerm(f.lhs());
      if (!lhs.ok()) return lhs.status();
      Result<Slot> rhs = ReadTerm(f.rhs());
      if (!rhs.ok()) return rhs.status();
      op.lhs = *lhs;
      op.rhs = *rhs;
      return Emit(std::move(op));
    }
    case Formula::Kind::kAtom: {
      Op op;
      op.kind = Op::Kind::kContains;
      op.relation = f.atom().relation();
      op.key_arity = f.atom().key_arity();
      for (const Term& t : f.atom().terms()) {
        Result<Slot> s = ReadTerm(t);
        if (!s.ok()) return s.status();
        op.slots.push_back(*s);
      }
      return Emit(std::move(op));
    }
    case Formula::Kind::kNot: {
      Result<int> child = Lower(*f.children()[0]);
      if (!child.ok()) return child.status();
      Op op;
      op.kind = Op::Kind::kNot;
      op.child = *child;
      return Emit(std::move(op));
    }
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      bool conj = f.kind() == Formula::Kind::kAnd;
      if (f.children().empty()) {
        Op op;
        op.kind = conj ? Op::Kind::kTrue : Op::Kind::kFalse;
        return Emit(std::move(op));
      }
      if (f.children().size() == 1) return Lower(*f.children()[0]);
      Op op;
      op.kind = conj ? Op::Kind::kAnd : Op::Kind::kOr;
      for (const FormulaPtr& c : f.children()) {
        const size_t child_start = ops_->size();
        Result<int> child = Lower(*c);
        if (!child.ok()) return child.status();
        if (conj && IsTrue(*child)) {
          ops_->resize(child_start);  // φ ∧ true ≡ φ.
          continue;
        }
        op.children.push_back(*child);
      }
      if (op.children.empty()) return EmitTrue();
      if (op.children.size() == 1) return op.children[0];
      return Emit(std::move(op));
    }
    case Formula::Kind::kExistsGuard:
      return LowerGuard(f, Op::Kind::kSemiJoin);
    case Formula::Kind::kForallGuard:
      return LowerGuard(f, Op::Kind::kAntiJoin);
  }
  return Status::Internal("unreachable formula kind");
}

}  // namespace

Result<FoProgram> FoProgram::Lower(const FormulaPtr& formula,
                                   const std::vector<SymbolId>& params) {
  FoProgram prog;
  prog.params_ = params;
  Lowerer lowerer(&prog.ops_, static_cast<int>(params.size()));
  for (size_t i = 0; i < params.size(); ++i) {
    lowerer.env().emplace(params[i], static_cast<int>(i));
  }
  if (lowerer.env().size() != params.size()) {
    return Status::InvalidArgument("program parameters must be distinct");
  }
  Result<int> root = lowerer.Lower(*formula);
  if (!root.ok()) return root.status();
  prog.root_ = *root;
  prog.width_ = std::max(lowerer.width(), 1);
  return prog;
}

// ---------------------------------------------------------- execution

namespace {

/// Chunk sizing for extension batches. The budget starts small and
/// doubles after every flush: a semijoin whose first extensions already
/// witness the row (the common certain-database Boolean case) decides
/// after a handful of child evaluations — the interpreter's
/// first-witness short-circuit — while large batches quickly reach the
/// cap where per-chunk dispatch amortizes across hundreds of rows.
constexpr size_t kChunkInitial = 8;
constexpr size_t kChunkRows = 512;

/// Rows between deadline polls: one steady_clock read per interval
/// keeps the overhead of an armed deadline under ~0.1% of row cost.
constexpr int kDeadlineCheckRows = 256;

/// A batch of partial bindings: a flat rows x width register matrix.
struct Table {
  size_t width = 0;
  size_t n = 0;
  std::vector<SymbolId> data;

  SymbolId* row(size_t i) { return data.data() + i * width; }
  const SymbolId* row(size_t i) const { return data.data() + i * width; }
};

class Executor {
 public:
  Executor(const FoProgram& prog, const FactIndex& index,
           const Deadline* deadline)
      : prog_(prog), index_(index), deadline_(deadline) {}

  /// True once an armed deadline fired mid-evaluation; the surviving
  /// mask is then partial garbage and the caller must discard it.
  bool expired() const { return expired_; }

  /// In-place filter: clears mask[i] for every row of `t` that does not
  /// satisfy op `op_idx`. Only rows with mask[i] != 0 are examined.
  void Filter(int op_idx, int depth, Table& t, std::vector<char>& mask);

 private:
  /// Per-depth scratch: one op invocation per recursion level is live at
  /// a time, so buffers are reused across the (many) chunk flushes of
  /// that level without reallocation.
  struct Scratch {
    Table chunk;
    std::vector<int> src;          // chunk row -> source row.
    std::vector<char> chunk_mask;
    std::vector<char> decided;     // semijoin: witnessed; antijoin: failed.
    std::vector<char> tmp, acc, rem;
    std::vector<SymbolId> prefix;
    std::vector<SymbolId> values;  // kContains values; ∃-membership row.
  };

  Scratch& At(int depth) {
    if (static_cast<size_t>(depth) >= scratch_.size()) {
      scratch_.resize(depth + 1);
    }
    if (!scratch_[depth]) scratch_[depth] = std::make_unique<Scratch>();
    return *scratch_[depth];
  }

  static SymbolId SlotValue(const Slot& s, const SymbolId* row) {
    return s.is_const ? s.value : row[s.reg];
  }

  /// Amortized cooperative deadline poll: reads the clock once per
  /// kDeadlineCheckRows calls. Returns true once expired (sticky).
  bool CheckDeadline() {
    if (deadline_ == nullptr || expired_) return expired_;
    if (--deadline_countdown_ <= 0) {
      deadline_countdown_ = kDeadlineCheckRows;
      if (deadline_->Expired()) expired_ = true;
    }
    return expired_;
  }

  /// The smallest candidate run the index offers for the guard under
  /// `row`: key-prefix run, best bound-position run, or the whole
  /// relation. Runs stay valid for the duration of an evaluation (a lazy
  /// build only fills a table nobody has read yet).
  FactRun ProbeRun(const Op& op, const SymbolId* row, Scratch& s) {
    FactRun best = index_.Facts(op.relation);
    if (op.prefix_len > 0 && !best.empty()) {
      s.prefix.clear();
      for (int i = 0; i < op.prefix_len; ++i) {
        s.prefix.push_back(SlotValue(op.slots[i], row));
      }
      FactRun block = index_.FactsWithKeyPrefix(op.relation, s.prefix);
      if (block.size() < best.size()) best = block;
    }
    for (int p : op.probe_positions) {
      if (best.size() <= 1) break;
      FactRun run =
          index_.FactsAt(op.relation, p, SlotValue(op.slots[p], row));
      if (run.size() < best.size()) best = run;
    }
    return best;
  }

  /// Unifies the guard against `fact` on the extension row `row` (which
  /// already holds the source row's registers): checks the bound and
  /// constant positions, writes the binding positions. Mirrors
  /// UnifyGuard in fo/evaluator.cc, without the Valuation.
  static bool MatchBind(const Op& op, const Fact& fact, SymbolId* row) {
    if (fact.arity() != static_cast<int>(op.slots.size())) return false;
    const std::vector<SymbolId>& vals = fact.values();
    for (size_t i = 0; i < op.slots.size(); ++i) {
      const Slot& s = op.slots[i];
      if (s.bind) {
        // Later positions repeating this variable read the register the
        // write just filled, so repeated fresh variables stay consistent.
        row[s.reg] = vals[i];
        continue;
      }
      if (vals[i] != SlotValue(s, row)) return false;
    }
    return true;
  }

  /// Guarded ∃ (anti == false): a row survives iff some extension by
  /// a guard fact passes the child. Guarded ∀ (anti == true): a row
  /// survives iff no extension fails it.
  void FilterJoin(const Op& op, bool anti, int depth, Table& t,
                  std::vector<char>& mask);

  const FoProgram& prog_;
  const FactIndex& index_;
  const Deadline* deadline_;
  int deadline_countdown_ = kDeadlineCheckRows;
  bool expired_ = false;
  std::vector<std::unique_ptr<Scratch>> scratch_;
};

void Executor::FilterJoin(const Op& op, bool anti, int depth, Table& t,
                          std::vector<char>& mask) {
  Scratch& s = At(depth);
  const size_t W = prog_.width();
  if (!anti && prog_.ops()[op.child].kind == Op::Kind::kTrue) {
    // ∃ȳ G: the first matching fact of the probe bucket decides the row.
    s.values.resize(W);
    for (size_t i = 0; i < t.n; ++i) {
      if (CheckDeadline()) return;
      if (!mask[i]) continue;
      const SymbolId* r = t.row(i);
      std::copy(r, r + W, s.values.begin());
      FactRun run = ProbeRun(op, r, s);
      mask[i] = std::any_of(run.begin(), run.end(), [&](int id) {
        return MatchBind(op, index_.fact(id), s.values.data());
      });
    }
    return;
  }
  // Extensions are materialized in chunks with an adaptive budget, and
  // the child filters a whole chunk at a time.
  s.decided.assign(t.n, 0);
  s.chunk.width = W;
  s.chunk.data.clear();
  s.src.clear();

  auto flush = [&] {
    if (s.src.empty()) return;
    s.chunk.n = s.src.size();
    s.chunk_mask.assign(s.chunk.n, 1);
    Filter(op.child, depth + 1, s.chunk, s.chunk_mask);
    for (size_t k = 0; k < s.chunk.n; ++k) {
      // Semijoin: one surviving extension decides the source row.
      // Antijoin: one failing extension decides (kills) it.
      if (anti ? !s.chunk_mask[k] : s.chunk_mask[k] != 0) {
        s.decided[s.src[k]] = 1;
      }
    }
    s.chunk.data.clear();
    s.src.clear();
  };

  size_t budget = kChunkInitial;
  for (size_t i = 0; i < t.n; ++i) {
    if (CheckDeadline()) break;
    if (!mask[i]) continue;
    const SymbolId* r = t.row(i);
    for (int id : ProbeRun(op, r, s)) {
      // A flush may have decided row i (first witness / first
      // counterexample — the interpreter's short-circuit at chunk
      // granularity).
      if (s.decided[i]) break;
      size_t pos = s.chunk.data.size();
      s.chunk.data.resize(pos + W);
      SymbolId* ext = s.chunk.data.data() + pos;
      std::copy(r, r + W, ext);
      if (!MatchBind(op, index_.fact(id), ext)) {
        s.chunk.data.resize(pos);
        continue;
      }
      s.src.push_back(static_cast<int>(i));
      if (s.src.size() >= budget) {
        flush();
        budget = std::min(budget * 2, kChunkRows);
      }
    }
  }
  flush();
  for (size_t i = 0; i < t.n; ++i) {
    if (!mask[i]) continue;
    mask[i] = anti ? !s.decided[i] : s.decided[i];
  }
}

void Executor::Filter(int op_idx, int depth, Table& t,
                      std::vector<char>& mask) {
  // Once the deadline fires, every remaining filter is a no-op: the
  // recursion unwinds fast and the caller discards the partial mask.
  if (expired_) return;
  const Op& op = prog_.ops()[op_idx];
  switch (op.kind) {
    case Op::Kind::kTrue:
      return;
    case Op::Kind::kFalse:
      std::fill(mask.begin(), mask.end(), 0);
      return;
    case Op::Kind::kEquals: {
      for (size_t i = 0; i < t.n; ++i) {
        if (!mask[i]) continue;
        const SymbolId* r = t.row(i);
        if (SlotValue(op.lhs, r) != SlotValue(op.rhs, r)) mask[i] = 0;
      }
      return;
    }
    case Op::Kind::kContains: {
      Scratch& s = At(depth);
      for (size_t i = 0; i < t.n; ++i) {
        if (CheckDeadline()) return;
        if (!mask[i]) continue;
        const SymbolId* r = t.row(i);
        s.values.clear();
        for (const Slot& slot : op.slots) {
          s.values.push_back(SlotValue(slot, r));
        }
        if (!index_.Contains(op.relation, s.values.data(), s.values.size(),
                             op.key_arity)) {
          mask[i] = 0;
        }
      }
      return;
    }
    case Op::Kind::kNot: {
      Scratch& s = At(depth);
      s.tmp = mask;
      Filter(op.child, depth + 1, t, s.tmp);
      for (size_t i = 0; i < t.n; ++i) {
        if (mask[i] && s.tmp[i]) mask[i] = 0;
      }
      return;
    }
    case Op::Kind::kAnd: {
      for (int child : op.children) {
        Filter(child, depth + 1, t, mask);
      }
      return;
    }
    case Op::Kind::kOr: {
      Scratch& s = At(depth);
      s.acc.assign(t.n, 0);
      s.rem = mask;
      for (int child : op.children) {
        s.tmp = s.rem;
        Filter(child, depth + 1, t, s.tmp);
        bool any_left = false;
        for (size_t i = 0; i < t.n; ++i) {
          if (s.tmp[i]) {
            s.acc[i] = 1;
            s.rem[i] = 0;
          }
          any_left = any_left || s.rem[i];
        }
        if (!any_left) break;
      }
      mask = s.acc;
      return;
    }
    case Op::Kind::kSemiJoin:
      FilterJoin(op, /*anti=*/false, depth, t, mask);
      return;
    case Op::Kind::kAntiJoin:
      FilterJoin(op, /*anti=*/true, depth, t, mask);
      return;
  }
}

}  // namespace

bool FoProgram::EvaluateBool(const FactIndex& index) const {
  assert(params_.empty() && "Boolean evaluation of a parameterized program");
  std::vector<std::vector<SymbolId>> one_row(1);
  // Unlimited deadlines never fail, so the Result unwrap is safe.
  return (*EvaluateRows(index, one_row, 0, 1))[0] != 0;
}

Result<std::vector<char>> FoProgram::EvaluateRows(
    const FactIndex& index, const std::vector<std::vector<SymbolId>>& rows,
    size_t begin, size_t end, const Deadline& deadline) const {
  assert(begin <= end && end <= rows.size());
  size_t n = end - begin;
  std::vector<char> mask(n, 1);
  if (n == 0) return mask;
  if (deadline.Expired()) {
    return Status::DeadlineExceeded(
        "deadline expired before batch evaluation");
  }
  Table t;
  t.width = width_;
  t.n = n;
  t.data.assign(t.n * t.width, 0);
  for (size_t i = 0; i < n; ++i) {
    assert(rows[begin + i].size() == params_.size() && "row arity != params()");
    std::copy(rows[begin + i].begin(), rows[begin + i].end(), t.row(i));
  }
  Executor exec(*this, index, deadline.unlimited() ? nullptr : &deadline);
  exec.Filter(root_, 0, t, mask);
  if (exec.expired()) {
    return Status::DeadlineExceeded(
        "deadline expired during batch evaluation");
  }
  return mask;
}

// -------------------------------------------------------------- debug

namespace {

std::string SlotToString(const Slot& s) {
  if (s.is_const) return "'" + SymbolName(s.value) + "'";
  return (s.bind ? ">r" : "r") + std::to_string(s.reg);
}

}  // namespace

std::string FoProgram::ToString() const {
  std::ostringstream os;
  os << "program width=" << width_ << " params=" << params_.size()
     << " root=" << root_ << "\n";
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    os << "  [" << i << "] ";
    switch (op.kind) {
      case Op::Kind::kTrue:
        os << "true";
        break;
      case Op::Kind::kFalse:
        os << "false";
        break;
      case Op::Kind::kEquals:
        os << "eq " << SlotToString(op.lhs) << " " << SlotToString(op.rhs);
        break;
      case Op::Kind::kContains:
      case Op::Kind::kSemiJoin:
      case Op::Kind::kAntiJoin: {
        os << (op.kind == Op::Kind::kContains
                   ? "contains "
                   : op.kind == Op::Kind::kSemiJoin ? "semijoin " : "antijoin ")
           << SymbolName(op.relation) << "(";
        for (size_t j = 0; j < op.slots.size(); ++j) {
          if (j > 0) os << ",";
          os << SlotToString(op.slots[j]);
        }
        os << ")";
        if (op.kind != Op::Kind::kContains) {
          os << " prefix=" << op.prefix_len << " child=" << op.child;
        }
        break;
      }
      case Op::Kind::kNot:
        os << "not child=" << op.child;
        break;
      case Op::Kind::kAnd:
      case Op::Kind::kOr: {
        os << (op.kind == Op::Kind::kAnd ? "and" : "or");
        for (int c : op.children) os << " " << c;
        break;
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cqa
