#include "solvers/sat_solver.h"

#include "cq/matcher.h"
#include "solvers/sat/cnf.h"
#include "solvers/sat/dpll.h"

namespace cqa {

namespace {

struct Encoding {
  Cnf cnf;
  // fact id (index into db.facts()) -> SAT variable.
  std::vector<int> fact_var;
};

/// False when ctx.deadline() expired before every embedding was added.
bool Encode(EvalContext& ctx, const Query& q, Encoding* out) {
  const Database& db = ctx.db();
  Encoding& enc = *out;
  enc.fact_var.assign(db.facts().size(), 0);
  for (size_t i = 0; i < db.facts().size(); ++i) {
    enc.fact_var[i] = enc.cnf.AddVar();
  }
  // Exactly one fact per block.
  for (const Database::Block& block : db.blocks()) {
    std::vector<int> at_least_one;
    at_least_one.reserve(block.fact_ids.size());
    for (int fid : block.fact_ids) {
      at_least_one.push_back(enc.fact_var[fid]);
    }
    enc.cnf.AddClause(at_least_one);
    for (size_t a = 0; a < block.fact_ids.size(); ++a) {
      for (size_t b = a + 1; b < block.fact_ids.size(); ++b) {
        enc.cnf.AddClause({-enc.fact_var[block.fact_ids[a]],
                           -enc.fact_var[block.fact_ids[b]]});
      }
    }
  }
  // Forbid every embedding of q. The matcher hands back the matched
  // facts' ids: the context's index is over ctx.db(), so they are its
  // fact ids. A batch worker reuses the context's lazily built tables
  // across every query it serves.
  // The deadline is polled every 256 embeddings.
  const Deadline& deadline = ctx.deadline();
  uint64_t embeddings = 0;
  return ForEachEmbeddingFacts(
      ctx.fact_index(), q, Valuation(),
      [&](const Valuation&, const std::vector<int>& fact_ids) {
        if ((++embeddings & 255) == 0 && deadline.Expired()) return false;
        std::vector<int> clause;
        clause.reserve(q.size());
        for (int fid : fact_ids) {
          int lit = -enc.fact_var[fid];
          // Dedup repeated literals (two atoms hitting the same fact).
          bool dup = false;
          for (int existing : clause) dup = dup || existing == lit;
          if (!dup) clause.push_back(lit);
        }
        enc.cnf.AddClause(std::move(clause));
        return true;
      });
}

}  // namespace

Result<std::optional<std::vector<Fact>>> SatSolver::SearchFalsifyingRepair(
    EvalContext& ctx, const Query& q, SolverCall* call) {
  // An empty database has the single repair {}; it satisfies q only if q
  // is satisfied by the empty fact set (q must be empty).
  const Database& db = ctx.db();
  Encoding enc;
  if (!Encode(ctx, q, &enc)) {
    return Status::DeadlineExceeded("deadline expired encoding SAT search");
  }
  DpllSolver solver(enc.cnf, ctx.deadline());
  SatResult result = solver.Solve();
  call->sat_vars = enc.cnf.num_vars();
  call->sat_clauses = static_cast<int64_t>(enc.cnf.clauses().size());
  call->sat_decisions = solver.decisions();
  if (result == SatResult::kDeadlineExceeded) {
    return Status::DeadlineExceeded("deadline expired in SAT search");
  }
  if (result == SatResult::kUnsat) return std::optional<std::vector<Fact>>();
  std::vector<Fact> repair;
  for (size_t i = 0; i < db.facts().size(); ++i) {
    if (solver.model()[enc.fact_var[i] - 1]) {
      repair.push_back(db.facts()[i]);
    }
  }
  return std::optional<std::vector<Fact>>(std::move(repair));
}

Result<SolverCall> SatSolver::Decide(EvalContext& ctx) const {
  SolverCall call;
  Result<std::optional<std::vector<Fact>>> repair =
      SearchFalsifyingRepair(ctx, query_, &call);
  if (!repair.ok()) return repair.status();
  call.certain = !repair->has_value();
  return call;
}

Result<std::optional<std::vector<Fact>>> SatSolver::FindFalsifyingRepair(
    EvalContext& ctx) const {
  SolverCall call;
  Result<std::optional<std::vector<Fact>>> repair =
      SearchFalsifyingRepair(ctx, query_, &call);
  if (!repair.ok()) return repair.status();
  call.certain = !repair->has_value();
  stats_.Record(call);
  return repair;
}

}  // namespace cqa
