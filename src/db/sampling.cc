#include "db/sampling.h"

#include <cassert>

#include "cq/matcher.h"

namespace cqa {

Repair SampleRepair(const Database& db, Rng* rng) {
  Repair repair;
  repair.reserve(db.blocks().size());
  for (const Database::Block& block : db.blocks()) {
    int pick = static_cast<int>(rng->Below(block.fact_ids.size()));
    repair.push_back(&db.facts()[block.fact_ids[pick]]);
  }
  return repair;
}

Rational EstimateSatisfactionProbability(const Database& db, const Query& q,
                                         int samples, Rng* rng) {
  assert(samples > 0);
  // One view shows the current sample, SampleRepair's draws in its
  // order: each block's pick swaps in for the last sample's.
  const std::vector<Database::Block>& blocks = db.blocks();
  FactIndex view(db, FactIndex::Shown::kNone);
  std::vector<int> shown(blocks.size(), -1);
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      const std::vector<int>& ids = blocks[b].fact_ids;
      int pick = ids[rng->Below(ids.size())];
      if (shown[b] < 0) {
        view.Show(pick);
      } else {
        view.Swap(shown[b], pick);
      }
      shown[b] = pick;
    }
    if (Satisfies(view, q)) ++hits;
  }
  return Rational(BigInt(hits), BigInt(samples));
}

}  // namespace cqa
