#include "serve/row_block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cqa {

namespace {

/// The first index in [lo, hi) whose row's first `n` values compare
/// greater than `key` (`upper`) or not less than it (otherwise).
size_t Bound(const RowBlock& block, size_t lo, size_t hi,
             const SymbolId* key, size_t n, bool upper) {
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    const SymbolId* row = block.row(mid);
    bool before = upper ? !std::lexicographical_compare(key, key + n, row,
                                                        row + n)
                        : std::lexicographical_compare(row, row + n, key,
                                                       key + n);
    if (before) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

RowBlock::RowBlock(size_t width,
                   const std::vector<std::vector<SymbolId>>& rows)
    : width_(width) {
  values_.reserve(rows.size() * width);
  for (const std::vector<SymbolId>& row : rows) Append(row);
}

void RowBlock::Append(const std::vector<SymbolId>& row) {
  assert(row.size() == width_);
  values_.insert(values_.end(), row.begin(), row.end());
  ++rows_;
}

std::vector<std::vector<SymbolId>> RowBlock::Rows(size_t begin,
                                                  size_t end) const {
  std::vector<std::vector<SymbolId>> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.emplace_back(row(i), row(i) + width_);
  }
  return out;
}

RowBlock RowBlock::Refresh(const RowBlock& cached,
                           const std::vector<RowPattern>& dirty,
                           const RowBlock& decided, size_t* kept) {
  const size_t width = cached.width_;
  const size_t n = cached.rows_;
  assert(decided.width_ == width);

  std::vector<size_t> dropped;
  std::vector<SymbolId> key(width);
  for (const RowPattern& pattern : dirty) {
    // The leading columns the pattern binds narrow it to one range.
    size_t lead = 0;
    while (lead < pattern.bindings.size() && lead < width &&
           pattern.bindings[lead].first == static_cast<int>(lead)) {
      key[lead] = pattern.bindings[lead].second;
      ++lead;
    }
    size_t lo = 0;
    size_t hi = n;
    if (lead > 0) {
      lo = Bound(cached, 0, n, key.data(), lead, false);
      hi = Bound(cached, lo, n, key.data(), lead, true);
    }
    for (size_t i = lo; i < hi; ++i) {
      const SymbolId* row = cached.row(i);
      bool match = std::all_of(
          pattern.bindings.begin() + static_cast<ptrdiff_t>(lead),
          pattern.bindings.end(), [&](const std::pair<int, SymbolId>& b) {
            return row[b.first] == b.second;
          });
      if (match) dropped.push_back(i);
    }
  }
  std::sort(dropped.begin(), dropped.end());
  dropped.erase(std::unique(dropped.begin(), dropped.end()), dropped.end());

  // Decided rows are sorted, so their insertion points never decrease.
  std::vector<size_t> insert_at(decided.rows_);
  for (size_t d = 0, from = 0; d < decided.rows_; ++d) {
    from = Bound(cached, from, n, decided.row(d), width, false);
    insert_at[d] = from;
  }

  RowBlock out(width);
  out.rows_ = n - dropped.size() + decided.rows_;
  out.values_.resize(out.rows_ * width);
  SymbolId* dst = out.values_.data();
  auto copy = [&](const SymbolId* src, size_t rows) {
    size_t values = rows * width;
    if (values == 0) return;
    std::memcpy(dst, src, values * sizeof(SymbolId));
    dst += values;
  };
  // Walk the cached rows once: copy the run up to the next event, then
  // insert a decided row (before the cached row at its insertion point)
  // or skip a dropped row.
  size_t next = 0;
  size_t x = 0;
  size_t d = 0;
  while (true) {
    size_t stop = n;
    if (x < dropped.size()) stop = std::min(stop, dropped[x]);
    if (d < decided.rows_) stop = std::min(stop, insert_at[d]);
    copy(cached.row(next), stop - next);
    next = stop;
    if (d < decided.rows_ && insert_at[d] == stop) {
      copy(decided.row(d), 1);
      ++d;
    } else if (x < dropped.size() && dropped[x] == stop) {
      ++next;
      ++x;
    } else {
      break;
    }
  }
  *kept = n - dropped.size();
  return out;
}

}  // namespace cqa
