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
  for (size_t i = 0; i < n; ++i) repair[i] = &facts[blocks[i].fact_ids[0]];
  FactIndex index(repair);
  for (;;) {
    if (!fn(index, repair)) return false;
    // Odometer increment; every flipped block is one SwapFact (digits
    // that wrap back to 0 included), so the index mutation cost per
    // repair is the number of carried digits — amortised O(1).
    size_t i = 0;
    for (; i < n; ++i) {
      size_t next = choice[i] + 1 < blocks[i].fact_ids.size()
                        ? choice[i] + 1
                        : 0;
      const Fact* new_fact = &facts[blocks[i].fact_ids[next]];
      index.SwapFact(repair[i], new_fact);
      repair[i] = new_fact;
      choice[i] = next;
      if (next != 0) break;
    }
    if (i == n) return true;
  }
}

}  // namespace cqa
