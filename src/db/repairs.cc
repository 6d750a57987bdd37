#include "db/repairs.h"

#include "cq/matcher.h"

namespace cqa {

bool RepairEnumerator::ForEach(
    const std::function<bool(const Repair&)>& fn) const {
  const auto& blocks = db_.blocks();
  const auto& facts = db_.facts();
  size_t n = blocks.size();
  std::vector<size_t> choice(n, 0);
  Repair repair(n, nullptr);
  for (;;) {
    for (size_t i = 0; i < n; ++i) {
      repair[i] = &facts[blocks[i].fact_ids[choice[i]]];
    }
    if (!fn(repair)) return false;
    // Odometer increment.
    size_t i = 0;
    for (; i < n; ++i) {
      if (++choice[i] < blocks[i].fact_ids.size()) break;
      choice[i] = 0;
    }
    if (i == n) return true;
  }
}

bool RepairEnumerator::ForEachIndexed(
    const std::function<bool(const FactIndex&, const Repair&)>& fn) const {
  const auto& blocks = db_.blocks();
  const auto& facts = db_.facts();
  size_t n = blocks.size();
  std::vector<size_t> choice(n, 0);
  Repair repair(n, nullptr);
  FactIndex view(db_, FactIndex::Shown::kNone);
  for (size_t i = 0; i < n; ++i) {
    view.Show(blocks[i].fact_ids[0]);
    repair[i] = &facts[blocks[i].fact_ids[0]];
  }
  for (;;) {
    if (!fn(view, repair)) return false;
    // Odometer increment; every flipped block is one Swap (digits that
    // wrap back to 0 included), so the index mutation cost per repair is
    // the number of carried digits — amortised O(1).
    size_t i = 0;
    for (; i < n; ++i) {
      const std::vector<int>& ids = blocks[i].fact_ids;
      size_t next = choice[i] + 1 < ids.size() ? choice[i] + 1 : 0;
      view.Swap(ids[choice[i]], ids[next]);
      repair[i] = &facts[ids[next]];
      choice[i] = next;
      if (next != 0) break;
    }
    if (i == n) return true;
  }
}

}  // namespace cqa
