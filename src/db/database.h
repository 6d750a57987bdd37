#ifndef CQA_DB_DATABASE_H_
#define CQA_DB_DATABASE_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/fact.h"
#include "db/schema.h"
#include "util/bigint.h"
#include "util/status.h"

/// \file
/// An *uncertain database*: a finite set of facts in which primary keys
/// need not be satisfied. A *block* is a maximal set of key-equal facts;
/// a *repair* picks exactly one fact from each block (Section 3).
///
/// Facts live in a deque, so a stored fact's address is stable under
/// AddFact — this is what lets long-lived `FactIndex`es (and the serving
/// `Session`'s per-worker indexes) reference facts by pointer while the
/// database keeps growing. RemoveFact compacts by moving the *last* fact
/// into the vacated slot, so exactly two addresses are affected per
/// removal (the removed slot, whose contents change, and the popped back
/// slot, which dies); callers maintaining external indexes read
/// `FactPtr`/`LastFact` before the removal and patch accordingly (see
/// serve/session.cc).

namespace cqa {

class Database {
 public:
  Database() = default;
  explicit Database(Schema schema) : schema_(std::move(schema)) {}

  // The address->id map must follow the copy's own storage; moves keep
  // the deque's slots (and thus the handed-out fact addresses) alive.
  Database(const Database& o);
  Database& operator=(const Database& o);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  /// Inserts `fact` (no-op when already present). Registers the relation
  /// in the schema when unknown; fails when the fact contradicts a known
  /// signature. Addresses of previously stored facts are unaffected.
  Status AddFact(const Fact& fact);

  /// Removes `fact`. Fails with NotFound when absent. Compacts fact ids
  /// by relocating the last fact into the removed slot (so ids stay
  /// dense); the removed slot's contents and the last fact's address are
  /// the only addresses invalidated — see the file comment.
  Status RemoveFact(const Fact& fact);

  /// All facts, in insertion order.
  const std::deque<Fact>& facts() const { return facts_; }
  int size() const { return static_cast<int>(facts_.size()); }
  bool empty() const { return facts_.empty(); }

  bool Contains(const Fact& fact) const {
    return fact_ids_.find(fact) != fact_ids_.end();
  }

  /// Index of `fact` in facts(), or -1 when absent. Hash lookup; the hot
  /// paths (SAT encoding, repair counting) use this instead of building
  /// their own fact -> id maps.
  int FactId(const Fact& fact) const;

  /// Id of a fact referenced by its *storage address* (a pointer handed
  /// out by FactPtr or observed through a FactIndex over this database);
  /// -1 for strangers. Pointer-keyed hash lookup — cheaper than hashing
  /// the fact's values on the embedding-enumeration hot paths.
  int FactIdOf(const Fact* fact) const;

  /// Storage address of `fact`, or nullptr when absent. Stable until the
  /// fact is removed (or the last fact is relocated over it).
  const Fact* FactPtr(const Fact& fact) const;

  /// Storage address of facts()[id] (id must be in range).
  const Fact* FactPtrAt(int id) const { return &facts_[id]; }

  /// Address of the highest-id fact — the one RemoveFact relocates.
  /// Null when empty.
  const Fact* LastFact() const {
    return facts_.empty() ? nullptr : &facts_.back();
  }

  /// Index of the block containing `fact` in blocks(), or -1 when absent.
  int BlockIdOf(const Fact& fact) const;

  /// Fact indices (into facts()) of all facts of `relation`.
  const std::vector<int>& FactsOf(SymbolId relation) const;

  /// A block: maximal set of key-equal facts.
  struct Block {
    SymbolId relation;
    std::vector<SymbolId> key;
    std::vector<int> fact_ids;  // indices into facts()
  };

  /// All blocks, in order of first appearance.
  const std::vector<Block>& blocks() const { return blocks_; }

  /// The block containing `fact` (which must be in the database).
  const Block& BlockOf(const Fact& fact) const;

  /// The block with this relation and key, or nullptr when absent. The
  /// delta layer's lookup for ReplaceBlock ops.
  const Block* FindBlock(SymbolId relation,
                         const std::vector<SymbolId>& key) const;

  /// True iff every block is a singleton.
  bool IsConsistent() const;

  /// Number of repairs: the product of block sizes (1 when empty).
  BigInt RepairCount() const;

  /// All constants occurring in the database, sorted.
  std::vector<SymbolId> ActiveDomain() const;

  /// Database restricted to the given relations: exactly their facts, in
  /// their relative order in facts(). Reads only those relations' facts.
  Database Restrict(const std::unordered_set<SymbolId>& relations) const;

  /// The facts with the given (distinct) ids, indices into facts(),
  /// added in the order given, under this database's schema.
  Database Subset(const std::vector<int>& fact_ids) const;

  /// One line per fact, sorted; convenient for tests and goldens.
  std::string ToString() const;

 private:
  /// Stores `fact`, which must be absent and fit the schema.
  void Insert(const Fact& fact);

  struct BlockKeyHash {
    size_t operator()(const std::pair<SymbolId, std::vector<SymbolId>>& k)
        const {
      size_t h = k.first;
      for (SymbolId v : k.second) h = h * 1000003u + v;
      return h;
    }
  };

  Schema schema_;
  std::deque<Fact> facts_;
  std::unordered_map<Fact, int, FactHash> fact_ids_;
  /// Storage address -> id, for FactIdOf. Rebuilt entry-wise alongside
  /// fact_ids_ (deque slots are address-stable until popped).
  std::unordered_map<const Fact*, int> ptr_ids_;
  /// rel_slots_[id] = position of `id` inside by_relation_[relation of
  /// facts_[id]]. Keeps RemoveFact O(block) instead of O(|relation|) —
  /// the serving session's small-delta-over-large-db contract.
  std::vector<int> rel_slots_;
  std::vector<Block> blocks_;
  std::unordered_map<std::pair<SymbolId, std::vector<SymbolId>>, int,
                     BlockKeyHash>
      block_index_;
  std::unordered_map<SymbolId, std::vector<int>> by_relation_;
};

}  // namespace cqa

#endif  // CQA_DB_DATABASE_H_
