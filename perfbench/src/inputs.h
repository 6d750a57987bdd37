#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "serve/session.h"
#include "solvers/solver.h"
#include "util/rng.h"

/// \file
/// Seeded input generators. Every workload's database, queries and delta
/// stream are built here, single-threaded, before any thread starts.
/// Block counts and conflict counts are fixed by construction and only
/// the contents vary with the seed (the small frontier parts come from
/// gen's random generators), so the work a request does, and so its
/// latency, depends on the program rather than on which seed was drawn.

namespace perfbench {

/// An answer set served from a periodic delta stream, with everything
/// needed to check a response at any epoch. The stream has period
/// `period()`: after that many deltas the database is back where it
/// started, so the expected answers are a function of the phase
/// `(epoch - base_epoch) % period()`.
struct AnswerStream {
  cqa::Query query;                 // the non-Boolean query
  std::vector<cqa::SymbolId> free_vars;
  std::vector<cqa::Delta> deltas;   // one period
  size_t page_size = 64;
  /// Expected per phase: total rows and fingerprints of the first two
  /// pages (see RowsFingerprint).
  struct Expected {
    size_t total = 0;
    uint64_t page0 = 0;
    uint64_t page1 = 0;
  };
  std::vector<Expected> expected;   // index = phase
  size_t period() const { return deltas.size(); }
  const Expected& At(uint64_t epoch, uint64_t base_epoch) const {
    return expected[(epoch - base_epoch) % period()];
  }
};

/// Relations P<tag>(x | y), Q<tag>(y | z) and the answer query
/// q(x) = P(x | y), Q(y | z). The delta stream toggles `toggled`
/// two-fact P-blocks, `per_delta` per delta, whose keys the free
/// variable pins, between two live facts (certain) and a live fact plus
/// a dead end (not certain), and back: the answer cache re-decides only
/// the touched rows. With `conflicts`, one other block in seven of P and
/// of Q holds two facts.
void AddPinnedAnswers(const std::string& tag, int p_blocks, int toggled,
                      int per_delta, bool conflicts, cqa::Rng* rng,
                      cqa::Database* db, AnswerStream* out);

/// Relations R(x | y), S(y | z) for the full-recompute workload:
/// `r_blocks` R-blocks, one in seven conflicting, over `s_blocks`
/// S-blocks. Each delta of the period-2 stream deletes one single-fact
/// S-block and restores another. S's key is existential, so every cached
/// answer is invalidated by it.
void AddUnpinnedAnswers(int r_blocks, int s_blocks, cqa::Rng* rng,
                        cqa::Database* db, AnswerStream* out);

/// A Boolean query and what every reply to it must say.
struct BoolQuery {
  std::string name;  // in mismatch messages
  cqa::Query query;
  /// The solver the classifier must route the query to.
  cqa::SolverKind solver = cqa::SolverKind::kSat;
  /// The verdict the database was built to give, when it was built to
  /// give one.
  std::optional<bool> by_construction;
  /// The verdict through ExpectedVerdict; set by FillVerdicts.
  bool certain = false;
};

/// Sets `certain` of every query through ExpectedVerdict on `db`, and
/// aborts when it contradicts `by_construction` (a generator bug).
void FillVerdicts(const cqa::Database& db, std::vector<BoolQuery>* queries);

/// Relations <a>(u | v), <b>(v | w) and two Boolean FO queries over
/// them, each a scan of every <a>-block:
/// - <a>(u | v), <b>(v | 'yes'), not certain by construction: no
///   <b>-block holds only 'yes';
/// - its twin <a>(u | v), <b>(v | 'no'), certain by construction: the
///   last <a>-block in insertion order, the witness, holds one fact
///   pointing at the one <b>-block that holds 'no' (every other holds
///   'maybe'). No other <a>-block satisfies it, so the FO program's
///   first-witness short-circuit fires only at the end of the scan and
///   the twin costs what the scan costs.
/// With `conflicts`, one other <a>-block in seven holds two facts, and
/// two <b>-blocks in three hold 'maybe' beside 'yes' or beside 'no'
/// (as many of each). The cost is linear in `blocks` and the same
/// across seeds.
std::vector<BoolQuery> AddBooleanScan(const std::string& a,
                                      const std::string& b, int blocks,
                                      bool conflicts, cqa::Rng* rng,
                                      cqa::Database* db);

/// The sides of the paper's frontier over one database, two queries per
/// side, in this order: FO (Theorem 1), Fig. 4's weak terminal cycles
/// (Theorem 3), AC(3) (Theorem 4), C(4) (Corollary 1) and q0 (Theorem
/// 2's source, on the SAT fallback). The first query of a side runs on
/// its generated instance: the FO scan and q0 are not certain by
/// construction, the other three take whatever verdict the seed gives.
/// The second runs on a copy of that instance over renamed relations
/// plus one consistent embedding of the query (a single-fact block per
/// atom), so it is certain by construction at about the same cost.
std::vector<BoolQuery> AddFrontier(int fo_blocks, int cycle_blocks,
                                   int layer_size, cqa::Rng* rng,
                                   cqa::Database* db);

/// Adds one fact, aborting on a signature clash (a generator bug).
void MustAdd(cqa::Database* db, const cqa::Fact& fact);

/// Fills `out->expected` for every phase of `out->deltas` against the
/// initial database `db`, through a path the service does not take:
/// each delta is applied to a plain copy with ApplyDeltaToDatabase, the
/// candidates are enumerated with CollectProjectionsSorted, and every
/// candidate is decided row by row with QueryPlan::IsCertainRow (the
/// tree interpreter for FO plans). Rows whose certainty a delta cannot
/// change are decided once.
void ComputeExpected(const cqa::Database& db, AnswerStream* out);

/// The Boolean verdict of `q` on `db` through the SAT solver forced onto
/// the query (QueryPlan::CompileForcedSolver), not the classifier's
/// choice. Aborts if the query fails to compile or solve.
bool ExpectedVerdict(const cqa::Query& q, const cqa::Database& db);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
