#include "plan/query_plan.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "cq/matcher.h"
#include "fo/evaluator.h"

namespace cqa {

namespace {

SolverKind KindForComplexity(ComplexityClass complexity) {
  switch (complexity) {
    case ComplexityClass::kFirstOrder:
      return SolverKind::kFoRewriting;
    case ComplexityClass::kPtimeTerminalCycles:
      return SolverKind::kTerminalCycles;
    case ComplexityClass::kPtimeAck:
      return SolverKind::kAck;
    case ComplexityClass::kPtimeCk:
      return SolverKind::kCk;
    case ComplexityClass::kConpComplete:
    case ComplexityClass::kOpenConjecturedPtime:
      return SolverKind::kSat;
  }
  return SolverKind::kSat;
}

/// Freezes the canonical parameters to constants for classification:
/// grounding cannot add attacks (Lemma 5), and the attack graph ignores
/// constant identity, so one classification is valid for every row.
Query FreezeParams(const Query& q, const std::vector<SymbolId>& params) {
  Query frozen = q;
  for (SymbolId v : params) {
    frozen = frozen.Substitute(v, InternSymbol("$param_" + SymbolName(v)));
  }
  return frozen;
}

/// Classifies every key position of every canonical atom against the
/// parameter list (see AtomKeyPattern in the header).
std::vector<AtomKeyPattern> ComputeKeyPatterns(
    const Query& q, const std::vector<SymbolId>& params) {
  std::vector<AtomKeyPattern> patterns;
  patterns.reserve(q.atoms().size());
  for (const Atom& atom : q.atoms()) {
    AtomKeyPattern pattern;
    pattern.relation = atom.relation();
    pattern.key.reserve(atom.key_arity());
    for (int i = 0; i < atom.key_arity(); ++i) {
      const Term& t = atom.terms()[i];
      AtomKeyPattern::Slot slot;
      if (t.is_const()) {
        slot.kind = AtomKeyPattern::Slot::Kind::kConstant;
        slot.constant = t.id();
      } else {
        auto it = std::find(params.begin(), params.end(), t.id());
        if (it != params.end()) {
          slot.kind = AtomKeyPattern::Slot::Kind::kParam;
          slot.param = static_cast<int>(it - params.begin());
        }
      }
      pattern.key.push_back(slot);
    }
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

std::unordered_set<SymbolId> RelationsOf(
    const std::vector<AtomKeyPattern>& patterns) {
  std::unordered_set<SymbolId> relations;
  for (const AtomKeyPattern& pattern : patterns) {
    relations.insert(pattern.relation);
  }
  return relations;
}

}  // namespace

Status ValidateFreeVars(const Query& q,
                        const std::vector<SymbolId>& free_vars) {
  VarSet query_vars = q.Vars();
  for (SymbolId v : free_vars) {
    if (query_vars.count(v) == 0) {
      return Status::InvalidArgument(
          "free variable '" + SymbolName(v) +
          "' does not occur in the query " + q.ToString());
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::Compile(const Query& q) {
  return CompileCanonical(Canonicalize(q));
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::Compile(
    const Query& q, const std::vector<SymbolId>& free_vars) {
  CQA_RETURN_NOT_OK(ValidateFreeVars(q, free_vars));
  return CompileCanonical(Canonicalize(q, free_vars));
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::CompileCanonical(
    CanonicalQuery canonical) {
  return CompileWith(std::move(canonical), std::nullopt);
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::CompileForcedSolver(
    const Query& q, SolverKind kind) {
  CanonicalQuery canonical = Canonicalize(q);
  if (!canonical.params.empty()) {
    return Status::InvalidArgument(
        "solver override requires a Boolean query");
  }
  // Tag the key: everything keyed by cache_key() — the Service's
  // prepared-handle dedup AND the session answer cache — must keep a
  // forced plan's results apart from the classifier-chosen plan's.
  canonical.key += std::string(";solver=") + ToString(kind);
  return CompileWith(std::move(canonical), kind);
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::CompileWith(
    CanonicalQuery canonical, std::optional<SolverKind> forced) {
  std::shared_ptr<QueryPlan> plan(new QueryPlan());
  plan->canonical_ = std::move(canonical);
  const CanonicalQuery& c = plan->canonical_;
  // Free-variable occurrence is validated against the ORIGINAL query
  // (ValidateFreeVars, run by Compile and by the PlanCache) — the
  // canonical form cannot express it: a duplicated free variable is
  // legal but leaves its later #p_i placeholders without occurrences.
  plan->key_patterns_ = ComputeKeyPatterns(c.query, c.params);
  plan->relations_ = RelationsOf(plan->key_patterns_);

  Result<Classification> cls = ClassifyQuery(
      c.params.empty() ? c.query : FreezeParams(c.query, c.params));
  if (cls.ok()) {
    plan->classification_ = *cls;
    plan->complexity_ = cls->complexity;
  } else if (cls.status().code() == StatusCode::kUnsupported) {
    // Unsupported fragment (self-join, non-C(k) cyclic query): the
    // sound-and-complete SAT search decides it.
    plan->complexity_ = ComplexityClass::kOpenConjecturedPtime;
  } else {
    return cls.status();  // A malformed query.
  }
  plan->kind_ = forced.value_or(KindForComplexity(plan->complexity_));

  const bool fo = plan->kind_ == SolverKind::kFoRewriting;
  if (!c.params.empty() && !fo) {
    // Parameterized non-FO plans keep solver_ null: rows are decided by
    // grounding the canonical query (IsCertainRow).
    return std::shared_ptr<const QueryPlan>(std::move(plan));
  }
  // The rewriting is compiled over the *unfrozen* canonical query with
  // the parameters kept free, so one formula serves every binding.
  Result<std::unique_ptr<Solver>> solver = MakeSolver(
      plan->kind_, c.query, VarSet(c.params.begin(), c.params.end()));
  if (!solver.ok()) return solver.status();
  plan->solver_ = std::move(solver).value();
  if (fo) {
    // MakeSolver builds every kFoRewriting solver as an FoSolver.
    plan->fo_ = static_cast<const FoSolver*>(plan->solver_.get());
    if (c.params.empty()) {
      plan->fo_program_ = plan->fo_->program();
    } else {
      // The solver's own program orders parameters by SymbolId; the
      // plan's rows arrive in canonical positional order, so lower a
      // second program over the same (shared) rewriting with the
      // positional parameter list. Lowering a rewriting cannot fail.
      Result<FoProgram> program =
          FoProgram::Lower(plan->fo_->rewriting(), c.params);
      if (!program.ok()) return program.status();
      plan->fo_program_ =
          std::make_shared<const FoProgram>(std::move(*program));
    }
  }
  return std::shared_ptr<const QueryPlan>(std::move(plan));
}

Result<SolveOutcome> QueryPlan::Solve(const Database& db) const {
  EvalContext ctx(db);
  return Solve(ctx);
}

Result<SolveOutcome> QueryPlan::Solve(EvalContext& ctx,
                                      const Deadline& deadline) const {
  if (parameterized()) {
    return Status::InvalidArgument(
        "parameterized plan cannot be solved as a Boolean query; use "
        "IsCertainRow");
  }
  Result<SolverCall> call = [&]() -> Result<SolverCall> {
    if (fo_ != nullptr) return fo_->Decide(ctx, deadline);
    if (kind_ == SolverKind::kOracle) {
      // The reference the scoped solvers are checked against: every
      // repair of the whole database.
      EvalContext whole(ctx.db(), deadline);
      return solver_->Decide(whole);
    }
    Database scoped = ctx.db().Restrict(relations_);
    EvalContext scoped_ctx(scoped, deadline);
    return solver_->Decide(scoped_ctx);
  }();
  if (!call.ok()) return call.status();
  solver_->Record(*call);
  SolveOutcome out;
  out.certain = call->certain;
  out.complexity = complexity_;
  out.solver = kind_;
  out.sat_vars = call->sat_vars;
  out.sat_clauses = call->sat_clauses;
  out.sat_decisions = call->sat_decisions;
  return out;
}

Result<std::optional<std::vector<Fact>>> QueryPlan::FindFalsifyingRepair(
    const Database& db) const {
  if (parameterized()) {
    return Status::InvalidArgument(
        "parameterized plan has no Boolean falsifying repair");
  }
  return solver_->FindFalsifyingRepair(db);
}

Result<std::vector<char>> QueryPlan::IsCertainRows(
    EvalContext& ctx, const std::vector<std::vector<SymbolId>>& rows,
    const Deadline& deadline) const {
  std::vector<char> out(rows.size(), 0);
  Status s = IsCertainRowSpan(ctx, rows, 0, rows.size(), &out, deadline);
  if (!s.ok()) return s;
  return out;
}

Status QueryPlan::IsCertainRowSpan(
    EvalContext& ctx, const std::vector<std::vector<SymbolId>>& rows,
    size_t begin, size_t end, std::vector<char>* out,
    const Deadline& deadline) const {
  if (!parameterized()) {
    return Status::InvalidArgument("plan has no parameters; use Solve");
  }
  assert(begin <= end && end <= rows.size() && out->size() == rows.size());
  for (size_t i = begin; i < end; ++i) {
    if (rows[i].size() != canonical_.params.size()) {
      return Status::InvalidArgument("row arity does not match plan params");
    }
  }
  if (fo_program_ != nullptr) {
    Result<std::vector<char>> mask = fo_program_->EvaluateRows(
        ctx.fact_index(), rows, begin, end, deadline);
    if (!mask.ok()) return mask.status();
    std::copy(mask->begin(), mask->end(), out->begin() + begin);
    return Status::OK();
  }
  // Row-at-a-time for non-FO plans. Rows here can be arbitrarily
  // expensive (grounded SAT calls), so the deadline is polled before
  // every row, and each row's solver gets it too.
  for (size_t i = begin; i < end; ++i) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("deadline expired deciding rows");
    }
    Result<Database> scoped = ScopeRow(ctx, rows[i], deadline);
    if (!scoped.ok()) return scoped.status();
    EvalContext row_ctx(*scoped, deadline);
    Result<bool> certain = IsCertainRow(row_ctx, rows[i]);
    if (!certain.ok()) return certain.status();
    (*out)[i] = *certain ? 1 : 0;
  }
  return Status::OK();
}

Result<Database> QueryPlan::ScopeRow(EvalContext& ctx,
                                     const std::vector<SymbolId>& row,
                                     const Deadline& deadline) const {
  Valuation seed;
  for (size_t i = 0; i < row.size(); ++i) {
    seed.Bind(canonical_.params[i], row[i]);
  }
  // The context's index is over ctx.db(), so the matched ids are its.
  std::vector<int> touched;
  uint64_t embeddings = 0;
  bool complete = ForEachEmbeddingFacts(
      ctx.fact_index(), canonical_.query, seed,
      [&](const Valuation&, const std::vector<int>& fact_ids) {
        if ((++embeddings & 255) == 0 && deadline.Expired()) return false;
        touched.insert(touched.end(), fact_ids.begin(), fact_ids.end());
        return true;
      });
  if (!complete) {
    return Status::DeadlineExceeded("deadline expired scoping a row");
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const Database& db = ctx.db();
  std::vector<int> blocks;
  blocks.reserve(touched.size());
  for (int id : touched) blocks.push_back(db.BlockIdOf(db.facts()[id]));
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  std::vector<int> ids;
  for (int b : blocks) {
    const std::vector<int>& block = db.blocks()[b].fact_ids;
    ids.insert(ids.end(), block.begin(), block.end());
  }
  std::sort(ids.begin(), ids.end());
  return db.Subset(ids);
}

Result<bool> QueryPlan::IsCertainRow(
    EvalContext& ctx, const std::vector<SymbolId>& row) const {
  if (!parameterized()) {
    return Status::InvalidArgument("plan has no parameters; use Solve");
  }
  if (row.size() != canonical_.params.size()) {
    return Status::InvalidArgument("row arity does not match plan params");
  }
  if (fo_ != nullptr) {
    Valuation binding;
    for (size_t i = 0; i < row.size(); ++i) {
      binding.Bind(canonical_.params[i], row[i]);
    }
    return fo_->IsCertainRow(FormulaEvaluator(ctx.fact_index()), binding);
  }
  Query ground = canonical_.query;
  for (size_t i = 0; i < row.size(); ++i) {
    ground = ground.Substitute(canonical_.params[i], row[i]);
  }
  // The plan's kind on the ground row query; for kSat this is exact and
  // never fails — which also covers the unsupported fragments.
  Result<std::unique_ptr<Solver>> solver = MakeSolver(kind_, ground);
  if (solver.ok()) {
    Result<bool> r = (*solver)->IsCertain(ctx);
    if (r.ok() || r.status().code() == StatusCode::kDeadlineExceeded) {
      return r;
    }
    // Precondition drifted under grounding (substitution can merge
    // atoms); fall through to the full dispatch.
  }
  // Full re-compile of the ground row query — reproduces the complete
  // dispatch, including the SAT fallback for unsupported fragments.
  // Uncached on purpose: row constants would thrash the plan cache.
  Result<std::shared_ptr<const QueryPlan>> fallback = Compile(ground);
  if (!fallback.ok()) return fallback.status();
  Result<SolveOutcome> out = (*fallback)->Solve(ctx, ctx.deadline());
  if (!out.ok()) return out.status();
  return out->certain;
}

}  // namespace cqa
