#include "prob/counting.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cq/matcher.h"
#include "prob/safe_plan.h"
#include "solvers/oracle_solver.h"

namespace cqa {

BigInt Counting::CountByOracle(const Database& db, const Query& q) {
  return OracleSolver(q).CountSatisfyingRepairs(db);
}

namespace {

/// Union-find over block ids.
struct UnionFind {
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
  std::vector<int> parent;
};

/// Embeddings as block-id/fact-id constraint lists.
struct EmbeddingTable {
  // Each embedding: the (block, fact) choices it requires, deduped.
  std::vector<std::vector<std::pair<int, int>>> embeddings;
};

/// Branch-and-prune counter over one component, generic in the counter
/// type: `Num` is uint64_t on the fast path (a component with < 2^63
/// choice combinations, the overwhelmingly common case) and BigInt
/// otherwise.
template <typename Num>
class PrunedFalsifyCounter {
 public:
  PrunedFalsifyCounter(
      const std::vector<const Database::Block*>& blocks,
      const std::vector<std::vector<std::pair<int, int>>>& embeds)
      : blocks_(blocks),
        reqs_by_block_(blocks.size()),
        remaining_(embeds.size()),
        dead_(embeds.size(), false),
        suffix_(blocks.size() + 1, Num(1)),
        alive_(static_cast<int>(embeds.size())) {
    for (size_t e = 0; e < embeds.size(); ++e) {
      remaining_[e] = static_cast<int>(embeds[e].size());
      for (auto [b, fid] : embeds[e]) {
        reqs_by_block_[b].emplace_back(static_cast<int>(e), fid);
      }
    }
    // suffix_[i]: number of choice-combinations of blocks i..n-1.
    for (size_t i = blocks.size(); i > 0; --i) {
      suffix_[i - 1] =
          suffix_[i] *
          Num(static_cast<int64_t>(blocks[i - 1]->fact_ids.size()));
    }
  }

  Num Count() {
    count_ = Num(0);
    Recurse(0);
    return count_;
  }

 private:
  /// Each choice kills or advances the embeddings touching that block; a
  /// subtree with no live embedding contributes a suffix product of
  /// block sizes in one step, and a subtree in which some embedding is
  /// already fully selected contributes nothing — the recursion never
  /// walks individual leaves.
  void Recurse(size_t i) {
    if (alive_ == 0) {
      // No embedding can complete below here: every remaining choice
      // combination falsifies.
      count_ += suffix_[i];
      return;
    }
    if (i == blocks_.size()) return;  // Live embeddings left incomplete
                                      // never occur: their requirements
                                      // sit in blocks < n.
    std::vector<int> undo_dead;
    for (int fid : blocks_[i]->fact_ids) {
      bool complete = false;
      undo_dead.clear();
      for (auto [e, req] : reqs_by_block_[i]) {
        if (req == fid) {
          if (--remaining_[e] == 0 && !dead_[e]) complete = true;
        } else if (!dead_[e]) {
          dead_[e] = true;
          --alive_;
          undo_dead.push_back(e);
        }
      }
      // A fully selected embedding survives in every leaf below: the
      // subtree contributes no falsifying repair.
      if (!complete) Recurse(i + 1);
      for (auto [e, req] : reqs_by_block_[i]) {
        if (req == fid) ++remaining_[e];
      }
      for (int e : undo_dead) {
        dead_[e] = false;
        ++alive_;
      }
    }
  }

  const std::vector<const Database::Block*>& blocks_;
  /// Requirements grouped by local block id: (embedding, required fact).
  std::vector<std::vector<std::pair<int, int>>> reqs_by_block_;
  std::vector<int> remaining_;  // Unselected requirements per embedding.
  std::vector<bool> dead_;
  std::vector<Num> suffix_;
  int alive_;
  Num count_{0};
};

/// Machine-word fast path: when the component's combination count fits
/// in 62 bits (the overwhelmingly common case), counts the falsifying
/// choice-combinations into `*out` and returns true.
bool TryCountFalsifyingSmall(
    const std::vector<const Database::Block*>& blocks,
    const std::vector<std::vector<std::pair<int, int>>>& embeds,
    uint64_t* out) {
  BigIntProduct product;
  for (const Database::Block* b : blocks) {
    product.Multiply(b->fact_ids.size());
    if (product.spilled()) return false;
  }
  *out = PrunedFalsifyCounter<uint64_t>(blocks, embeds).Count();
  return true;
}

}  // namespace

BigInt Counting::CountByDecomposition(const Database& db, const Query& q) {
  if (q.empty()) return db.RepairCount();  // Every repair satisfies {}.

  // Map each fact id to its block id, straight from the block lists.
  std::vector<int> block_of(db.facts().size(), -1);
  for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
    for (int fid : db.blocks()[b].fact_ids) block_of[fid] = b;
  }
  // Collect embeddings as (block, fact) requirement lists and union the
  // blocks each embedding touches. The matcher hands back the matched
  // facts' ids, which are db's: the index is over db.
  UnionFind uf(static_cast<int>(db.blocks().size()));
  std::vector<std::vector<std::pair<int, int>>> embeddings;
  FactIndex index(db);
  ForEachEmbeddingFacts(index, q, Valuation(), [&](
      const Valuation&, const std::vector<int>& fact_ids) {
    std::vector<std::pair<int, int>> req;
    req.reserve(fact_ids.size());
    bool consistent = true;
    for (int fid : fact_ids) {
      int b = block_of[fid];
      bool dup = false;
      for (auto [eb, ef] : req) {
        if (eb == b) {
          dup = true;
          // Two atoms demanding different facts of one block can never
          // be jointly selected; drop the embedding.
          if (ef != fid) consistent = false;
        }
      }
      if (!dup) req.emplace_back(b, fid);
    }
    if (consistent) {
      for (size_t i = 1; i < req.size(); ++i) {
        uf.Union(req[0].first, req[i].first);
      }
      embeddings.push_back(std::move(req));
    }
    return true;
  });

  // Group touched blocks and embeddings by component root; untouched
  // blocks multiply freely into the falsifying count.
  int num_blocks = static_cast<int>(db.blocks().size());
  std::vector<bool> touched(num_blocks, false);
  for (const auto& embed : embeddings) {
    for (auto [b, fid] : embed) touched[b] = true;
  }
  std::vector<int> comp_id(num_blocks, -1);  // root -> dense component.
  std::vector<std::vector<int>> comp_blocks;
  std::vector<std::vector<int>> comp_embeds;
  for (int b = 0; b < num_blocks; ++b) {
    if (!touched[b]) continue;
    int root = uf.Find(b);
    if (comp_id[root] == -1) {
      comp_id[root] = static_cast<int>(comp_blocks.size());
      comp_blocks.emplace_back();
      comp_embeds.emplace_back();
    }
    comp_blocks[comp_id[root]].push_back(b);
  }
  for (int e = 0; e < static_cast<int>(embeddings.size()); ++e) {
    comp_embeds[comp_id[uf.Find(embeddings[e][0].first)]].push_back(e);
  }

  // The falsifying count is a product of per-component counts and the
  // free sizes of untouched blocks; BigIntProduct batches the
  // machine-word factors (the BigInt multiply used to run per block).
  BigIntProduct falsifying;
  for (int b = 0; b < num_blocks && !falsifying.is_zero(); ++b) {
    if (!touched[b]) falsifying.Multiply(db.blocks()[b].fact_ids.size());
  }
  std::vector<int> local_id(num_blocks, -1);  // Reused per component.
  std::vector<int> pinned;
  for (size_t c = 0; c < comp_blocks.size() && !falsifying.is_zero();
       ++c) {
    const std::vector<int>& block_list = comp_blocks[c];
    if (block_list.size() == 1) {
      // Single-block component: each embedding pins one fact of the
      // block, so the falsifying choices are the unpinned facts.
      const Database::Block& block = db.blocks()[block_list[0]];
      pinned.clear();
      for (int e : comp_embeds[c]) pinned.push_back(embeddings[e][0].second);
      std::sort(pinned.begin(), pinned.end());
      pinned.erase(std::unique(pinned.begin(), pinned.end()),
                   pinned.end());
      falsifying.Multiply(
          static_cast<uint64_t>(block.fact_ids.size() - pinned.size()));
      continue;
    }
    // Localize embeddings fully inside this component.
    std::vector<const Database::Block*> blocks;
    blocks.reserve(block_list.size());
    for (int b : block_list) {
      local_id[b] = static_cast<int>(blocks.size());
      blocks.push_back(&db.blocks()[b]);
    }
    std::vector<std::vector<std::pair<int, int>>> local_embeds;
    local_embeds.reserve(comp_embeds[c].size());
    for (int e : comp_embeds[c]) {
      std::vector<std::pair<int, int>> local;
      local.reserve(embeddings[e].size());
      for (auto [b, fid] : embeddings[e]) {
        local.emplace_back(local_id[b], fid);
      }
      local_embeds.push_back(std::move(local));
    }
    uint64_t small = 0;
    if (TryCountFalsifyingSmall(blocks, local_embeds, &small)) {
      falsifying.Multiply(small);
    } else {
      falsifying.Multiply(
          PrunedFalsifyCounter<BigInt>(blocks, local_embeds).Count());
    }
    for (int b : block_list) local_id[b] = -1;
  }
  return db.RepairCount() - falsifying.Value();
}

Result<BigInt> Counting::CountBySafePlan(const Database& db,
                                         const Query& q) {
  BidDatabase bid = BidDatabase::UniformOverRepairs(db);
  Result<Rational> p = SafePlan::Probability(bid, q);
  if (!p.ok()) return p.status();
  Rational count = *p * Rational(db.RepairCount(), BigInt(1));
  if (!(count.den() == BigInt(1))) {
    return Status::Internal(
        "uniform-repair probability times repair count must be integral");
  }
  return count.num();
}

}  // namespace cqa
