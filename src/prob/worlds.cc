#include "prob/worlds.h"

#include <functional>
#include <vector>

#include "cq/matcher.h"

namespace cqa {

Rational WorldsOracle::Probability(const BidDatabase& bid, const Query& q) {
  const Database& db = bid.database();
  const auto& blocks = db.blocks();
  size_t n = blocks.size();
  Rational total;
  // One view of the database shows the current partial world and
  // changes as the recursion walks the block tree — no per-leaf index
  // rebuild.
  FactIndex view(db, FactIndex::Shown::kNone);

  std::function<void(size_t, Rational)> Recurse = [&](size_t i,
                                                      Rational weight) {
    if (weight.is_zero()) return;
    if (i == n) {
      if (Satisfies(view, q)) total += weight;
      return;
    }
    const Database::Block& block = blocks[i];
    // Option: no fact of this block (possible worlds need not be
    // maximal).
    Rational none = Rational::One() - bid.BlockMass(block);
    Recurse(i + 1, weight * none);
    // Option: exactly one fact; each option swaps in for the one before.
    const std::vector<int>& ids = block.fact_ids;
    view.Show(ids[0]);
    for (size_t k = 0; k < ids.size(); ++k) {
      if (k > 0) view.Swap(ids[k - 1], ids[k]);
      Recurse(i + 1, weight * bid.Probability(db.facts()[ids[k]]));
    }
    view.Hide(ids.back());
  };
  Recurse(0, Rational::One());
  return total;
}

}  // namespace cqa
