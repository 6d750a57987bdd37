#ifndef CQA_SOLVERS_SAT_DPLL_H_
#define CQA_SOLVERS_SAT_DPLL_H_

#include <cstdint>
#include <vector>

#include "solvers/sat/cnf.h"
#include "util/deadline.h"

/// \file
/// A compact DPLL SAT solver (unit propagation + most-occurrences
/// branching). CERTAINTY(q) for coNP-classified queries is decided through
/// this solver via the falsifying-repair encoding in `SatSolver`. Plain
/// DPLL is entirely adequate for the block-structured instances the engine
/// generates, and vastly outperforms exhaustive repair enumeration while
/// staying small enough to audit.

namespace cqa {

enum class SatResult { kSat, kUnsat, kDeadlineExceeded };

class DpllSolver {
 public:
  /// `deadline` is polled every 256 decisions and on every propagation
  /// pass; once it expires the search unwinds and Solve() answers
  /// kDeadlineExceeded.
  explicit DpllSolver(const Cnf& cnf, const Deadline& deadline = {});

  SatResult Solve();

  /// Valid after Solve() returned kSat: model()[v-1] is the value of
  /// variable v (1-based ids, as in the Cnf).
  const std::vector<bool>& model() const { return model_; }

  /// Number of branching decisions made (for benchmark reporting).
  int64_t decisions() const { return decisions_; }

 private:
  enum : int8_t { kUnassigned = -1, kFalse = 0, kTrue = 1 };

  /// Assigns a literal; false on conflict with the current assignment.
  bool Assign(int literal, std::vector<int>* undo);
  /// Unit propagation by clause scanning; false on conflict.
  bool Propagate(std::vector<int>* undo);
  void Undo(const std::vector<int>& undo);
  int PickBranchVariable() const;
  bool Search();

  int num_vars_;
  std::vector<std::vector<int>> clauses_;
  std::vector<int8_t> assignment_;  // Indexed by variable - 1.
  std::vector<int> occurrences_;    // Literal occurrence counts per var.
  std::vector<bool> model_;
  int64_t decisions_ = 0;
  Deadline deadline_;
  bool expired_ = false;
};

}  // namespace cqa

#endif  // CQA_SOLVERS_SAT_DPLL_H_
