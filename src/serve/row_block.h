#ifndef CQA_SERVE_ROW_BLOCK_H_
#define CQA_SERVE_ROW_BLOCK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/interner.h"

/// \file
/// The session's answer snapshots in flat form. A `RowBlock` is a width,
/// a row count and one contiguous buffer of `SymbolId`s holding distinct
/// rows sorted lexicographically. The answer cache keeps one per entry;
/// a page copies only its own rows out of it, and a refresh after a
/// delta copies the runs of rows the delta cannot reach with `memcpy`
/// instead of visiting every row.

namespace cqa {

/// A conjunctive constraint on rows: row[column] == value for every
/// binding. The session builds one per dirty key pattern of a delta, with
/// the bindings sorted by column; rows matching any of them are
/// re-decided.
struct RowPattern {
  std::vector<std::pair<int, SymbolId>> bindings;
  bool operator<(const RowPattern& o) const { return bindings < o.bindings; }
  bool operator==(const RowPattern& o) const {
    return bindings == o.bindings;
  }
};

class RowBlock {
 public:
  /// An empty block of `width` columns.
  explicit RowBlock(size_t width) : width_(width) {}
  /// The block of `rows`, each of `width` values, distinct and sorted.
  RowBlock(size_t width, const std::vector<std::vector<SymbolId>>& rows);

  size_t width() const { return width_; }
  /// Row count (a Boolean answer has width 0 and zero rows or one).
  size_t size() const { return rows_; }
  /// The `width()` values of row `i`.
  const SymbolId* row(size_t i) const { return values_.data() + i * width_; }

  /// Appends `row`, which must have `width()` values and sort after every
  /// row already in the block.
  void Append(const std::vector<SymbolId>& row);

  /// Rows [begin, end) as vectors: the shape of an answer page.
  std::vector<std::vector<SymbolId>> Rows(size_t begin, size_t end) const;

  /// The rows of `cached` that match no pattern of `dirty`, merged with
  /// `decided`, whose rows must each match some pattern (so the two parts
  /// are disjoint). `decided` has the width of `cached`. `*kept`
  /// receives the number of cached rows carried over.
  ///
  /// Rows are sorted, so a pattern binding columns 0..k-1 can match only
  /// inside the range where those columns equal its values; that range
  /// is found by binary search and only its rows are checked against the
  /// pattern's other bindings. A pattern that does not bind column 0
  /// checks every row. The output is assembled by copying the runs of
  /// kept rows between the dropped rows and the decided rows' insertion
  /// points.
  static RowBlock Refresh(const RowBlock& cached,
                          const std::vector<RowPattern>& dirty,
                          const RowBlock& decided, size_t* kept);

 private:
  size_t width_ = 0;
  size_t rows_ = 0;
  std::vector<SymbolId> values_;
};

}  // namespace cqa

#endif  // CQA_SERVE_ROW_BLOCK_H_
