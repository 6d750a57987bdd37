#include "solvers/sat/dpll.h"

#include <cassert>
#include <cstdlib>

namespace cqa {

DpllSolver::DpllSolver(const Cnf& cnf, const Deadline& deadline)
    : num_vars_(cnf.num_vars()), clauses_(cnf.clauses()),
      assignment_(cnf.num_vars(), kUnassigned),
      occurrences_(cnf.num_vars(), 0), deadline_(deadline) {
  for (const auto& clause : clauses_) {
    for (int lit : clause) {
      int v = std::abs(lit) - 1;
      assert(v >= 0 && v < num_vars_);
      ++occurrences_[v];
    }
  }
}

bool DpllSolver::Assign(int literal, std::vector<int>* undo) {
  int v = std::abs(literal) - 1;
  int8_t value = literal > 0 ? kTrue : kFalse;
  if (assignment_[v] != kUnassigned) return assignment_[v] == value;
  assignment_[v] = value;
  undo->push_back(v);
  return true;
}

bool DpllSolver::Propagate(std::vector<int>* undo) {
  bool changed = true;
  while (changed) {
    // One pass scans every clause, so a large formula is checked here
    // too, not only between decisions.
    if (deadline_.Expired()) {
      expired_ = true;
      return false;
    }
    changed = false;
    for (const auto& clause : clauses_) {
      int unassigned_lit = 0;
      int unassigned_count = 0;
      bool satisfied = false;
      for (int lit : clause) {
        int v = std::abs(lit) - 1;
        int8_t value = assignment_[v];
        if (value == kUnassigned) {
          ++unassigned_count;
          unassigned_lit = lit;
          if (unassigned_count > 1) break;
        } else if ((lit > 0) == (value == kTrue)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned_count == 0) return false;  // Conflict.
      if (unassigned_count == 1) {
        if (!Assign(unassigned_lit, undo)) return false;
        changed = true;
      }
    }
  }
  return true;
}

void DpllSolver::Undo(const std::vector<int>& undo) {
  for (int v : undo) assignment_[v] = kUnassigned;
}

int DpllSolver::PickBranchVariable() const {
  int best = -1;
  int best_count = -1;
  for (int v = 0; v < num_vars_; ++v) {
    if (assignment_[v] == kUnassigned && occurrences_[v] > best_count) {
      best = v;
      best_count = occurrences_[v];
    }
  }
  return best;
}

bool DpllSolver::Search() {
  std::vector<int> undo;
  if (!Propagate(&undo)) {
    Undo(undo);
    return false;
  }
  int v = PickBranchVariable();
  if (v == -1) return true;  // Fully assigned, no conflict: SAT.
  ++decisions_;
  if ((decisions_ & 255) == 0 && deadline_.Expired()) expired_ = true;
  for (int phase = 1; phase >= 0 && !expired_; --phase) {
    std::vector<int> branch_undo;
    int lit = phase == 1 ? v + 1 : -(v + 1);
    if (Assign(lit, &branch_undo) && Search()) return true;
    Undo(branch_undo);
  }
  Undo(undo);
  return false;
}

SatResult DpllSolver::Solve() {
  if (Search()) {
    model_.assign(num_vars_, false);
    for (int v = 0; v < num_vars_; ++v) model_[v] = assignment_[v] == kTrue;
    return SatResult::kSat;
  }
  return expired_ ? SatResult::kDeadlineExceeded : SatResult::kUnsat;
}

}  // namespace cqa
