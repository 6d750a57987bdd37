#include "solvers/solver.h"

#include <utility>

#include "solvers/ack_solver.h"
#include "solvers/ck_solver.h"
#include "solvers/fo_solver.h"
#include "solvers/oracle_solver.h"
#include "solvers/sat_solver.h"
#include "solvers/terminal_cycle_solver.h"

namespace cqa {

const char* ToString(SolverKind kind) {
  switch (kind) {
    case SolverKind::kFoRewriting:
      return "fo-rewriting";
    case SolverKind::kTerminalCycles:
      return "terminal-cycles";
    case SolverKind::kAck:
      return "ack";
    case SolverKind::kCk:
      return "ck";
    case SolverKind::kSat:
      return "sat";
    case SolverKind::kOracle:
      return "oracle";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, SolverKind kind) {
  return os << ToString(kind);
}

std::optional<SolverKind> SolverKindFromString(std::string_view name) {
  for (SolverKind kind :
       {SolverKind::kFoRewriting, SolverKind::kTerminalCycles,
        SolverKind::kAck, SolverKind::kCk, SolverKind::kSat,
        SolverKind::kOracle}) {
    if (name == ToString(kind)) return kind;
  }
  return std::nullopt;
}

SolverStats& SolverStats::operator=(const SolverStats& o) {
  calls.store(o.calls.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  certain.store(o.certain.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  sat_vars.store(o.sat_vars.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  sat_clauses.store(o.sat_clauses.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  sat_decisions.store(o.sat_decisions.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return *this;
}

SolverStats::Snapshot SolverStats::snapshot() const {
  Snapshot s;
  s.calls = calls.load(std::memory_order_relaxed);
  s.certain = certain.load(std::memory_order_relaxed);
  s.sat_vars = sat_vars.load(std::memory_order_relaxed);
  s.sat_clauses = sat_clauses.load(std::memory_order_relaxed);
  s.sat_decisions = sat_decisions.load(std::memory_order_relaxed);
  return s;
}

void SolverStats::Record(const SolverCall& call) {
  calls.fetch_add(1, std::memory_order_relaxed);
  if (call.certain) certain.fetch_add(1, std::memory_order_relaxed);
  // Skip the zero adds off the SAT path: a shared plan's stats line is
  // contended, and most solves never touch the SAT fields.
  if (call.sat_vars != 0) {
    sat_vars.fetch_add(call.sat_vars, std::memory_order_relaxed);
  }
  if (call.sat_clauses != 0) {
    sat_clauses.fetch_add(call.sat_clauses, std::memory_order_relaxed);
  }
  if (call.sat_decisions != 0) {
    sat_decisions.fetch_add(call.sat_decisions, std::memory_order_relaxed);
  }
}

const FactIndex& EvalContext::fact_index() {
  if (index_ == nullptr) index_ = &owned_.emplace(db_);
  return *index_;
}

Result<std::optional<std::vector<Fact>>> Solver::FindFalsifyingRepair(
    EvalContext& ctx) const {
  // Sound and complete for every query; solvers with a native witness
  // extraction override this.
  SolverCall call;
  Result<std::optional<std::vector<Fact>>> repair =
      SatSolver::SearchFalsifyingRepair(ctx, query_, &call);
  if (!repair.ok()) return repair.status();
  call.certain = !repair->has_value();
  stats_.Record(call);
  return repair;
}

Result<bool> Solver::IsCertain(const Database& db) const {
  EvalContext ctx(db);
  return IsCertain(ctx);
}

Result<bool> Solver::IsCertain(EvalContext& ctx) const {
  Result<SolverCall> call = Decide(ctx);
  if (!call.ok()) return call.status();
  stats_.Record(*call);
  return call->certain;
}

Result<std::optional<std::vector<Fact>>> Solver::FindFalsifyingRepair(
    const Database& db) const {
  EvalContext ctx(db);
  return FindFalsifyingRepair(ctx);
}

Result<std::unique_ptr<Solver>> MakeSolver(SolverKind kind, const Query& q,
                                           const VarSet& params) {
  switch (kind) {
    case SolverKind::kFoRewriting: {
      Result<FoSolver> fo = FoSolver::Create(q, params);
      if (!fo.ok()) return fo.status();
      return std::unique_ptr<Solver>(new FoSolver(std::move(fo).value()));
    }
    case SolverKind::kTerminalCycles:
      return std::unique_ptr<Solver>(new TerminalCycleSolver(q));
    case SolverKind::kAck:
      return std::unique_ptr<Solver>(new AckSolver(q));
    case SolverKind::kCk:
      return std::unique_ptr<Solver>(new CkSolver(q));
    case SolverKind::kSat:
      return std::unique_ptr<Solver>(new SatSolver(q));
    case SolverKind::kOracle:
      return std::unique_ptr<Solver>(new OracleSolver(q));
  }
  return Status::InvalidArgument("unknown solver kind");
}

}  // namespace cqa
