#include "solvers/oracle_solver.h"

#include "cq/matcher.h"

namespace cqa {

namespace {

/// Counts visited repairs and polls `deadline` every 256 of them.
class RepairBudget {
 public:
  explicit RepairBudget(const Deadline& deadline) : deadline_(deadline) {}

  /// False once the deadline has expired; the enumeration then stops.
  bool Continue() {
    if ((++visited_ & 255) == 0 && deadline_.Expired()) expired_ = true;
    return !expired_;
  }
  bool expired() const { return expired_; }

 private:
  const Deadline& deadline_;
  uint64_t visited_ = 0;
  bool expired_ = false;
};

const char kExpired[] = "deadline expired enumerating repairs";

}  // namespace

Result<SolverCall> OracleSolver::Decide(EvalContext& ctx) const {
  RepairEnumerator repairs(ctx.db());
  RepairBudget budget(ctx.deadline());
  SolverCall call;
  call.certain = repairs.ForEachIndexed(
      [&](const FactIndex& index, const Repair&) {
        return budget.Continue() && Satisfies(index, query_);
      });
  if (budget.expired()) return Status::DeadlineExceeded(kExpired);
  return call;
}

Result<std::optional<std::vector<Fact>>> OracleSolver::FindFalsifyingRepair(
    EvalContext& ctx) const {
  std::optional<std::vector<Fact>> out;
  RepairEnumerator repairs(ctx.db());
  RepairBudget budget(ctx.deadline());
  repairs.ForEachIndexed([&](const FactIndex& index, const Repair& repair) {
    if (!budget.Continue()) return false;
    if (Satisfies(index, query_)) return true;
    std::vector<Fact> copy;
    copy.reserve(repair.size());
    for (const Fact* f : repair) copy.push_back(*f);
    out = std::move(copy);
    return false;
  });
  if (budget.expired()) return Status::DeadlineExceeded(kExpired);
  SolverCall call;
  call.certain = !out.has_value();
  stats_.Record(call);
  return out;
}

BigInt OracleSolver::CountSatisfyingRepairs(const Database& db) const {
  BigInt count(0);
  RepairEnumerator repairs(db);
  repairs.ForEachIndexed([&](const FactIndex& index, const Repair&) {
    if (Satisfies(index, query_)) count += BigInt(1);
    return true;
  });
  return count;
}

}  // namespace cqa
