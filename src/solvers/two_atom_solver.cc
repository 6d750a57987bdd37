#include "solvers/two_atom_solver.h"

#include <algorithm>
#include <vector>

#include "core/attack_graph.h"
#include "cq/matcher.h"
#include "db/purify.h"
#include "solvers/blossom.h"
#include "solvers/fo_solver.h"
#include "solvers/mis.h"
#include "solvers/sat_solver.h"

namespace cqa {

namespace {

/// Conflict pairs: fact-id pairs {θ(F), θ(G)} over all embeddings θ.
std::vector<std::pair<int, int>> ConflictPairs(const Database& db,
                                               const Query& q) {
  std::vector<std::pair<int, int>> pairs;
  FactIndex index(db);
  ForEachEmbeddingFacts(
      index, q, Valuation(),
      [&](const Valuation&, const std::vector<int>& fact_ids) {
        pairs.emplace_back(fact_ids[0], fact_ids[1]);
        return true;
      });
  // Dedup (repeated variables can produce the same pair twice).
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Blocks as fact-id -> block-id, plus the number of blocks.
std::pair<std::vector<int>, int> BlockIds(const Database& db) {
  std::vector<int> block_of(db.size(), -1);
  int num = static_cast<int>(db.blocks().size());
  for (int b = 0; b < num; ++b) {
    for (int fid : db.blocks()[b].fact_ids) block_of[fid] = b;
  }
  return {block_of, num};
}

/// Polynomial path: conflicts form a partial matching. Builds the
/// bipartite multigraph H (blocks + conflict pairs; facts are edges) and
/// checks ν(H) == #blocks.
bool MatchingPathNotCertain(const Database& db,
                            const std::vector<std::pair<int, int>>& pairs) {
  auto [block_of, num_blocks] = BlockIds(db);
  int num_pairs = static_cast<int>(pairs.size());
  // Vertices: [0, num_blocks) blocks, then conflict-pair vertices, then
  // one auxiliary vertex per partnerless fact.
  std::vector<int> partner_pair(db.size(), -1);
  for (int p = 0; p < num_pairs; ++p) {
    partner_pair[pairs[p].first] = p;
    partner_pair[pairs[p].second] = p;
  }
  int aux = 0;
  for (int f = 0; f < db.size(); ++f) {
    if (partner_pair[f] == -1) ++aux;
  }
  BlossomMatching matching(num_blocks + num_pairs + aux);
  int next_aux = num_blocks + num_pairs;
  for (int f = 0; f < db.size(); ++f) {
    int other = partner_pair[f] == -1 ? next_aux++
                                      : num_blocks + partner_pair[f];
    matching.AddEdge(block_of[f], other);
  }
  int matched = matching.Solve();
  // A matching of size #blocks is a transversal avoiding all conflicts.
  return matched >= num_blocks;
}

/// General path: exact MIS on the conflict graph (block cliques +
/// conflict edges); a falsifying repair exists iff α == #blocks.
bool MisPathNotCertain(const Database& db,
                       const std::vector<std::pair<int, int>>& pairs) {
  int num_blocks = static_cast<int>(db.blocks().size());
  MaxIndependentSet mis(db.size());
  for (const Database::Block& block : db.blocks()) {
    for (size_t a = 0; a < block.fact_ids.size(); ++a) {
      for (size_t b = a + 1; b < block.fact_ids.size(); ++b) {
        mis.AddEdge(block.fact_ids[a], block.fact_ids[b]);
      }
    }
  }
  for (auto [a, b] : pairs) mis.AddEdge(a, b);
  return mis.Solve() >= num_blocks;
}

}  // namespace

Result<bool> TwoAtomSolver::IsCertain(const Database& db) {
  const Query& q = query_;
  if (q.size() != 2) {
    return Status::InvalidArgument("TwoAtomSolver needs exactly two atoms");
  }
  if (q.HasSelfJoin()) {
    return Status::Unsupported("TwoAtomSolver assumes no self-join");
  }
  Result<AttackGraph> graph = AttackGraph::Compute(q);
  if (!graph.ok()) return graph.status();

  if (graph->IsAcyclic()) {
    path_ = Path::kFoRewriting;
    Result<FoSolver> fo = FoSolver::Create(q);
    if (!fo.ok()) return fo.status();
    return fo->IsCertain(db);
  }
  bool weak_cycle = graph->IsWeakAttack(0, 1) && graph->IsWeakAttack(1, 0);
  if (!weak_cycle) {
    // Strong cycle: coNP-complete (Theorem 2); decide by SAT search.
    path_ = Path::kSat;
    return SatSolver(q).IsCertain(db);
  }

  Database purified = Purify(db, q);
  if (purified.empty()) {
    // The empty repair falsifies the (nonempty) query.
    path_ = Path::kMatching;
    return false;
  }
  std::vector<std::pair<int, int>> pairs = ConflictPairs(purified, q);
  // Matching regime: every fact participates in at most one conflict.
  std::vector<int> degree(purified.size(), 0);
  bool is_matching = true;
  for (auto [a, b] : pairs) {
    if (++degree[a] > 1 || ++degree[b] > 1) {
      is_matching = false;
      break;
    }
  }
  bool not_certain;
  if (is_matching) {
    path_ = Path::kMatching;
    not_certain = MatchingPathNotCertain(purified, pairs);
  } else {
    path_ = Path::kMis;
    not_certain = MisPathNotCertain(purified, pairs);
  }
  return !not_certain;
}

}  // namespace cqa
