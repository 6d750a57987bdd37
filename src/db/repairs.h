#ifndef CQA_DB_REPAIRS_H_
#define CQA_DB_REPAIRS_H_

#include <functional>
#include <vector>

#include "db/database.h"

namespace cqa {
class FactIndex;
}

/// \file
/// Enumeration of repairs. A repair is a maximal consistent subset of an
/// uncertain database, i.e. one fact per block. The number of repairs is
/// the product of block sizes, so enumeration is exponential — it is the
/// ground-truth oracle, not a production code path.

namespace cqa {

/// A repair represented as one fact pointer per block (pointers into the
/// owning database's fact storage).
using Repair = std::vector<const Fact*>;

class RepairEnumerator {
 public:
  explicit RepairEnumerator(const Database& db) : db_(db) {}

  /// Invokes `fn` on every repair. `fn` returns false to stop early.
  /// Returns true when all repairs were visited.
  ///
  /// The empty database has exactly one repair: the empty set.
  bool ForEach(const std::function<bool(const Repair&)>& fn) const;

  /// Like ForEach, but also maintains ONE FactIndex view of the database
  /// showing the current repair, changed by FactIndex::Swap on every
  /// block-choice change (the odometer flips one block most of the time),
  /// instead of letting callers rebuild an index per repair. This keeps
  /// the lazy position / key-prefix tables warm across the whole
  /// enumeration.
  bool ForEachIndexed(
      const std::function<bool(const FactIndex&, const Repair&)>& fn) const;

  /// Number of repairs (product of block sizes).
  BigInt Count() const { return db_.RepairCount(); }

 private:
  const Database& db_;
};

}  // namespace cqa

#endif  // CQA_DB_REPAIRS_H_
