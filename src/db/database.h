#ifndef CQA_DB_DATABASE_H_
#define CQA_DB_DATABASE_H_

#include <cstdint>
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
/// AddFact, so a fact handed out by address (`FactPtr`, a `Repair`)
/// stays put while the database keeps growing. RemoveFact compacts by
/// moving the *last* fact into the vacated slot, so exactly two ids and
/// addresses are affected per removal (the removed slot, whose contents
/// change, and the popped back slot, which dies); an index kept over the
/// database hears of it before the removal (`FactIndex::Erasing`, see
/// serve/session.cc).
///
/// Layout. Two flat open-addressing tables of int32 ids index the
/// facts and the blocks in place: the fact table hashes facts()[id] by
/// value, the block table hashes blocks()[id] by (relation, key). A
/// slot is an id and its key's 32-bit hash (8 bytes), and the tables
/// stay at most three quarters full, so neither holds a second copy of
/// a fact, a key or an address, and a copy of the database copies two
/// flat vectors. For two-column facts in blocks of one or two, a fact
/// costs about 220 allocator bytes (230 when built fact by fact, with
/// the vectors' growth slack): its deque slot and values, its block's
/// `Block` with two heap vectors, two ints of per-relation bookkeeping
/// and the two tables' slots (`bench_database`).

namespace cqa {

class Database {
 public:
  Database() = default;
  explicit Database(Schema schema) : schema_(std::move(schema)) {}

  // The tables hold ids, not addresses, so a copy copies them as they
  // are; moves keep the deque's slots (and thus the handed-out fact
  // addresses) alive.
  Database(const Database&) = default;
  Database& operator=(const Database&) = default;
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

  bool Contains(const Fact& fact) const { return FactId(fact) >= 0; }

  /// Index of `fact` in facts(), or -1 when absent. Hash lookup; the hot
  /// paths (SAT encoding, repair counting) use this instead of building
  /// their own fact -> id maps.
  int FactId(const Fact& fact) const;

  /// FactId of the fact (relation, values[0..arity)) with key arity
  /// `key_arity`, without building a `Fact`.
  int FactId(SymbolId relation, const SymbolId* values, size_t arity,
             int key_arity) const;

  /// Id of a fact referenced by its *storage address* (a pointer handed
  /// out by FactPtr or observed through a FactIndex over this database);
  /// -1 for strangers, equal facts stored elsewhere included. Resolves
  /// the fact by value and then checks the address, so it dereferences
  /// `fact`: the pointer must be live. Every caller passes a fact
  /// matched through a FactIndex over this same database.
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

  /// Fact indices (into facts()) of all facts of `relation`. Once the
  /// relation holds a fact, the reference stays valid (and follows the
  /// relation's changes) for the database's lifetime.
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
  /// The block (relation, key[0..key_arity)), or nullptr: the key-prefix
  /// probe of an index over this database.
  const Block* FindBlock(SymbolId relation, const SymbolId* key,
                         size_t key_arity) const;

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
  /// Open-addressing table of int32 ids whose keys live elsewhere (in
  /// facts_ or blocks_): linear probing over a power-of-two slot array
  /// at most kMaxLoadNum/kMaxLoadDen full. Each slot keeps its id's
  /// 32-bit hash, so a probe compares hashes before it reads a key, and
  /// growth rehashes without reading any. Deletion shifts the rest of
  /// the probe run back over the freed slot (wrapping around the end of
  /// the array), so the table never holds a tombstone.
  class IdTable {
   public:
    /// The id stored under `hash` for which `eq(id)` holds, or -1.
    template <typename Eq>
    int Find(uint32_t hash, const Eq& eq) const;
    /// Adds `id`, which must be absent, under `hash`.
    void Insert(uint32_t hash, int id);
    /// Removes `id`, stored under `hash`.
    void Erase(uint32_t hash, int id);
    /// The slot holding `from` (stored under `hash`) holds `to` instead.
    void Repoint(uint32_t hash, int from, int to);
    /// Grows the slot array so that `n` ids fit without growing again.
    void Reserve(size_t n);

   private:
    static constexpr size_t kMaxLoadNum = 3;
    static constexpr size_t kMaxLoadDen = 4;
    static constexpr int32_t kEmpty = -1;
    struct Slot {
      int32_t id = kEmpty;
      uint32_t hash = 0;
    };
    /// Index of the slot holding `id`, stored under `hash`.
    size_t SlotOf(uint32_t hash, int id) const;
    void Rehash(size_t capacity);

    std::vector<Slot> slots_;
    size_t size_ = 0;
  };

  /// Id of `fact`, whose hash is `hash`, or -1.
  int FindFact(const Fact& fact, uint32_t hash) const;
  /// Id of the block (relation, key[0..key_arity)), whose hash is
  /// `hash`, or -1.
  int FindBlockId(SymbolId relation, const SymbolId* key, size_t key_arity,
                  uint32_t hash) const;

  /// Stores `fact`, which must be absent and fit the schema; `hash` is
  /// its fact-table hash.
  void Insert(const Fact& fact, uint32_t hash);

  Schema schema_;
  std::deque<Fact> facts_;
  /// facts_ by value: Contains, FactId, FactPtr and FactIdOf.
  IdTable fact_table_;
  /// rel_slots_[id] = position of `id` inside by_relation_[relation of
  /// facts_[id]]. Keeps RemoveFact O(block) instead of O(|relation|) —
  /// the serving session's small-delta-over-large-db contract.
  std::vector<int> rel_slots_;
  std::vector<Block> blocks_;
  /// blocks_ by (relation, key): FindBlock, BlockIdOf and BlockOf.
  IdTable block_table_;
  std::unordered_map<SymbolId, std::vector<int>> by_relation_;
};

}  // namespace cqa

#endif  // CQA_DB_DATABASE_H_
